"""Tests for the latency histogram of the observability layer."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.hist import LatencyHistogram


class TestLatencyHistogram:
    def test_record_and_stats(self):
        hist = LatencyHistogram()
        for us in (1, 2, 4, 100, 1000):
            hist.record(us * 1e-6)
        assert hist.count == 5
        assert hist.mean == pytest.approx(1107 * 1e-6 / 5, rel=0.01)
        assert hist.max == pytest.approx(1e-3)
        assert hist.percentile(0.5) <= hist.percentile(0.99)

    def test_percentile_bounds(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.99) == 0.0
        hist.record(5e-6)
        with pytest.raises(ConfigurationError):
            hist.percentile(1.5)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().record(-1.0)

    def test_reset(self):
        hist = LatencyHistogram()
        hist.record(1e-6)
        hist.reset()
        assert hist.count == 0 and hist.mean == 0.0

    def test_summary_keys(self):
        hist = LatencyHistogram()
        hist.record(1e-5)
        assert set(hist.summary()) == {"count", "mean", "p50", "p99", "max"}
