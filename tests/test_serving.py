"""Tests for the skew-aware serving layer: the read image under a scan,
request coalescing, and hot-replica read spreading / write coherence."""

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


def _hot_cluster(num_servers: int = 4) -> LocalCluster:
    cluster = LocalCluster(num_servers=num_servers, hot_set_capacity=64)
    rng = np.random.default_rng(3)
    hub = 9
    for dst in rng.integers(0, 1 << 20, 50):
        cluster.client.add_edge(hub, int(dst), 1.0)
    for src in range(40):
        cluster.client.add_edge(src + 100, int(rng.integers(0, 1 << 20)), 1.0)
    # Train the tracker: the hub dominates traffic.
    for _ in range(20):
        cluster.client.sample_neighbors_many(
            [hub] * 8 + [100, 101], 2, np.random.default_rng(4)
        )
    return cluster


class TestHotReplicas:
    def test_replicate_and_spread_reads(self):
        cluster = _hot_cluster()
        installed = cluster.replicate_hot(top_n=2, copies=2, min_count=2)
        assert installed
        src, read_set = installed[0]
        assert src == 9
        assert len(read_set) == 3  # primary + 2 copies
        stats = cluster.client.serving_stats
        stats.reset()
        for _ in range(6):
            cluster.client.sample_neighbors_many(
                [9, 9, 9], 2, np.random.default_rng(5)
            )
        assert stats.hot_reads == 6
        # Round-robin: two thirds of the windows hit a non-primary copy.
        assert stats.spread_reads == 4

    def test_replica_stores_hold_identical_adjacency(self):
        cluster = _hot_cluster()
        (src, read_set), = cluster.replicate_hot(
            top_n=1, copies=2, min_count=2
        )
        reference = sorted(cluster.servers[read_set[0]].store.neighbors(src))
        for shard in read_set[1:]:
            assert sorted(cluster.servers[shard].store.neighbors(src)) == (
                reference
            )

    def test_logical_totals_count_a_multi_relation_copy_once(self):
        """A hot copy holds one ``(etype, src)`` key per relation of its
        source: the client's totals subtract every one of them."""
        cluster = LocalCluster(num_servers=4, hot_set_capacity=8)
        src = np.repeat(np.arange(10), 10)
        dst = np.tile(np.arange(100, 110), 10)
        etype = np.tile(np.repeat([0, 1], 5), 10)
        cluster.client.bulk_load(src, dst, 1.0, etype)
        client = cluster.client
        assert (client.num_sources, client.num_edges) == (20, 100)
        client.sample_neighbors_many([3], 2, rng=0)
        installed = cluster.replicate_hot()
        assert [s for s, _ in installed] == [3]
        assert (client.num_sources, client.num_edges) == (20, 100)

    def test_writes_fan_out_to_all_copies(self):
        cluster = _hot_cluster()
        (src, read_set), = cluster.replicate_hot(
            top_n=1, copies=2, min_count=2
        )
        cluster.client.add_edge(src, 777_777, 3.0)
        for shard in read_set:
            store = cluster.servers[shard].store
            assert store.edge_weight(src, 777_777) == pytest.approx(3.0)
        assert cluster.client.serving_stats.hot_write_ops >= 2

    def test_failed_coherence_write_drops_copy(self):
        cluster = _hot_cluster()
        (src, read_set), = cluster.replicate_hot(
            top_n=1, copies=2, min_count=2
        )
        victim = read_set[1]
        cluster.crash_shard(victim)
        cluster.client.add_edge(src, 888_888, 1.0)
        stats = cluster.client.serving_stats
        assert stats.hot_write_drops >= 1
        remaining = cluster.client.hot_replicas.shards(src)
        assert victim not in remaining
        # Reads keep flowing through the surviving copies.
        rows = cluster.client.sample_neighbors_many(
            [src] * 4, 2, np.random.default_rng(6)
        ).rows()
        assert all(len(r) == 2 for r in rows)
