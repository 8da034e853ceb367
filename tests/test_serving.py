"""Tests for the skew-aware serving layer: the read image under a scan
and request coalescing."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.snapshot import KEEP_IDLE
from repro.core.topology import DynamicGraphStore
from repro.distributed import LocalCluster
from tests.conftest import compact_image

try:  # scipy is part of the baked toolchain, but degrade gracefully.
    from scipy import stats as _scipy_stats
except ImportError:  # pragma: no cover
    _scipy_stats = None


def _chi2_pvalue(observed, expected):
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if _scipy_stats is not None:
        return float(_scipy_stats.chisquare(observed, expected).pvalue)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    k = len(observed) - 1
    z = ((chi2 / k) ** (1.0 / 3.0) - (1 - 2.0 / (9 * k))) / np.sqrt(
        2.0 / (9 * k)
    )
    return float(0.5 * (1.0 - np.math.erf(z / np.sqrt(2.0))))


class TestAdmission:
    def test_scan_does_not_evict_hot_entries(self):
        """A hot set read in every compaction interval keeps its rows
        while a scan of one-hit wonders passes through the image: the
        scan's rows leave after ``KEEP_IDLE`` intervals, so the image
        stays bounded by the hot set plus the recent scan window."""
        store = DynamicGraphStore(config=SamtreeConfig(capacity=16))
        rng = np.random.default_rng(11)
        hot = list(range(6))
        window = 10
        sources = len(hot) + window * (KEEP_IDLE + 2)  # the first scan ages out
        for src in range(sources):
            for dst in rng.integers(0, 1 << 20, 8):
                store.add_edge(src, int(dst), 1.0)
        cache = store.snapshot_cache
        evictions = cache.stats.evictions
        for start in range(len(hot), sources, window):
            store.sample_neighbors_many(hot, 4, rng)
            for scan in range(start, min(start + window, sources)):
                store.sample_neighbors_many([scan], 4, rng)  # never again
            evictions += compact_image(cache)
            assert len(cache) <= len(hot) + KEEP_IDLE * window
        assert all((0, src) in cache for src in hot)
        assert (0, 6) not in cache and evictions > 0


class TestCoalescing:
    def _cluster(self) -> LocalCluster:
        cluster = LocalCluster(num_servers=2)
        # One heavily-skewed source plus a second shard-mate.
        weights = [10.0, 5.0, 2.0, 2.0, 1.0]
        for dst, w in enumerate(weights):
            cluster.client.add_edge(7, 100 + dst, w)
            cluster.client.add_edge(8, 100 + dst, w)
        return cluster

    def test_counters_and_rate(self):
        cluster = self._cluster()
        stats = cluster.client.serving_stats
        frontier = [7, 8, 7, 7, 8]
        cluster.client.sample_neighbors_many(
            frontier, 2, np.random.default_rng(0)
        )
        assert stats.batches == 1
        assert stats.sources == 5
        assert stats.distinct_sources == 2
        assert stats.coalesced_sources == 3
        assert stats.grouped_rpcs >= 1
        assert stats.coalesce_rate == pytest.approx(3 / 5)

    def test_duplicates_get_independent_draws(self):
        # Every occurrence of a coalesced source must receive its own
        # draws (server-side expansion), not copies of one row.
        cluster = self._cluster()
        rows = cluster.client.sample_neighbors_many(
            [7] * 400, 1, np.random.default_rng(1)
        ).rows()
        counts = Counter(int(r[0]) for r in rows)
        assert len(counts) == 5  # all five neighbors appear
        weights = np.array([10.0, 5.0, 2.0, 2.0, 1.0])
        expected = 400 * weights / weights.sum()
        observed = [counts[100 + i] for i in range(5)]
        assert _chi2_pvalue(observed, expected) > 0.01

    def test_distribution_matches_uncoalesced_path(self):
        weights = np.array([10.0, 5.0, 2.0, 2.0, 1.0])
        expected = 200 * weights / weights.sum()
        cluster = self._cluster()
        rows = cluster.client.sample_neighbors_many(
            [7, 8, 7] * 200, 1, np.random.default_rng(2)
        ).rows()
        counts = Counter(int(rows[i][0]) for i in range(0, 600, 3))
        observed = [counts.get(100 + i, 0) for i in range(5)]
        assert _chi2_pvalue(observed, expected) > 0.01
