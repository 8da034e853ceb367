"""Tests for the bench-history regression harness (DESIGN.md §12).

The acceptance criteria of the PR: the gate demonstrably **fails** on an
injected 2× slowdown and **passes** on the recorded ``BENCH_*.json``
trajectory (which seeded the checked-in ``BENCH_HISTORY.jsonl``).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO, "benchmarks"))

from bench_history import (  # noqa: E402  (path bootstrap above)
    DEFAULT_TOLERANCE,
    compare,
    extract_metrics,
    load_history,
    main,
    record,
)


def _ingest_payload(scale=1.0, mode="full"):
    return {
        "mode": mode,
        "build": {"compress_on": {"bulk_edges_per_s": 950_000.0 * scale}},
        "update": {"batched_ops_per_s": 105_000.0 * scale},
    }


class TestExtractMetrics:
    def test_known_benches(self):
        m = extract_metrics("bulk_ingest", _ingest_payload())
        assert set(m) == {"bulk_edges_per_s", "batched_update_ops_per_s"}
        m = extract_metrics("monitoring", {"metrics": {"scrapes_per_s": 5900}})
        assert m == {"scrapes_per_s": 5900.0}

    def test_unknown_bench_fails_loudly(self):
        with pytest.raises(KeyError):
            extract_metrics("nope", {})


class TestHistoryRoundTrip:
    def test_record_then_load(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        entry = record(path, "bulk_ingest", _ingest_payload())
        assert entry["mode"] == "full"
        (loaded,) = load_history(path)
        assert loaded["metrics"] == entry["metrics"]
        assert load_history(str(tmp_path / "missing.jsonl")) == []

    def test_corrupt_history_raises(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError):
            load_history(str(path))


class TestGate:
    def _history(self, tmp_path, runs=1, scale=1.0):
        path = str(tmp_path / "hist.jsonl")
        for _ in range(runs):
            record(path, "bulk_ingest", _ingest_payload(scale))
        return load_history(path)

    def test_first_run_establishes_baseline(self):
        results = compare("bulk_ingest", _ingest_payload(), [])
        assert all(r["baseline"] is None for r in results)
        assert not any(r["regressed"] for r in results)

    def test_equal_run_passes(self, tmp_path):
        history = self._history(tmp_path)
        results = compare("bulk_ingest", _ingest_payload(), history)
        assert not any(r["regressed"] for r in results)
        assert all(r["ratio"] == pytest.approx(1.0) for r in results)

    def test_2x_slowdown_fails_gate(self, tmp_path):
        history = self._history(tmp_path)
        results = compare("bulk_ingest", _ingest_payload(0.5), history)
        assert all(r["regressed"] for r in results)

    def test_within_tolerance_jitter_passes(self, tmp_path):
        history = self._history(tmp_path)
        results = compare("bulk_ingest", _ingest_payload(0.9), history)
        assert not any(r["regressed"] for r in results)  # 10% < 15% floor

    def test_noise_widens_tolerance(self, tmp_path):
        # A jittery trajectory (CV ~ 20%) must not flap the gate on a
        # drop that a fixed 15% floor would have flagged.
        path = str(tmp_path / "hist.jsonl")
        for scale in (1.0, 0.65, 1.05, 0.7):
            record(path, "bulk_ingest", _ingest_payload(scale))
        history = load_history(path)
        results = compare("bulk_ingest", _ingest_payload(0.55), history)
        assert all(r["tolerance"] > DEFAULT_TOLERANCE for r in results)
        assert not any(r["regressed"] for r in results)
        # ...but a collapse still fails even with the widened band.
        results = compare("bulk_ingest", _ingest_payload(0.1), history)
        assert all(r["regressed"] for r in results)

    def test_modes_never_cross_compare(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        record(path, "bulk_ingest", _ingest_payload(5.0, mode="full"))
        history = load_history(path)
        # A smoke run 10x slower than the full run is a first-of-mode
        # baseline, not a regression.
        results = compare(
            "bulk_ingest", _ingest_payload(0.5, mode="smoke"), history
        )
        assert all(r["baseline"] is None for r in results)
        assert not any(r["regressed"] for r in results)


class TestRecordedTrajectory:
    """The checked-in history must pass against the checked-in benches."""

    @pytest.mark.parametrize(
        "bench", ["bulk_ingest", "monitoring", "flight_recorder"]
    )
    def test_recorded_bench_passes_checked_in_history(self, bench):
        payload_path = os.path.join(_REPO, f"BENCH_{bench}.json")
        history_path = os.path.join(_REPO, "BENCH_HISTORY.jsonl")
        with open(payload_path) as fh:
            payload = json.load(fh)
        history = load_history(history_path)
        assert history, "BENCH_HISTORY.jsonl must ship seeded"
        results = compare(bench, payload, history)
        assert results, "gated metrics must be non-empty"
        assert not any(r["regressed"] for r in results)

    def test_every_recorded_bench_still_exists(self):
        """A history record outlives its bench only as noise: every
        bench it names has a ``benchmarks/bench_<name>.py``."""
        history = load_history(os.path.join(_REPO, "BENCH_HISTORY.jsonl"))
        missing = sorted({
            entry["bench"] for entry in history
            if not os.path.exists(os.path.join(
                _REPO, "benchmarks", f"bench_{entry['bench']}.py"
            ))
        })
        assert not missing

    def test_cli_compare_exit_codes(self, tmp_path):
        hist = str(tmp_path / "hist.jsonl")
        payload = str(tmp_path / "payload.json")
        with open(payload, "w") as fh:
            json.dump(_ingest_payload(), fh)
        base = ["--bench", "bulk_ingest", "--input", payload,
                "--history", hist]
        assert main(["record"] + base) == 0
        assert main(["compare"] + base) == 0
        # Inject the 2x slowdown and watch the gate trip.
        with open(payload, "w") as fh:
            json.dump(_ingest_payload(0.5), fh)
        assert main(["compare"] + base) == 1

    def test_cli_compare_record_appends_on_pass(self, tmp_path):
        hist = str(tmp_path / "hist.jsonl")
        payload = str(tmp_path / "payload.json")
        with open(payload, "w") as fh:
            json.dump(_ingest_payload(), fh)
        base = ["--bench", "bulk_ingest", "--input", payload,
                "--history", hist]
        assert main(["compare", "--record"] + base) == 0  # first run
        assert main(["compare", "--record"] + base) == 0
        assert len(load_history(hist)) == 2
