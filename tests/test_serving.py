"""Tests for the skew-aware serving layer: TinyLFU cache admission,
request coalescing, and hot-replica read spreading / write coherence."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.snapshot import SnapshotCache
from repro.core.topology import DynamicGraphStore
from repro.distributed import LocalCluster

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


def _store_with_sources(num_sources: int, degree: int) -> DynamicGraphStore:
    store = DynamicGraphStore(config=SamtreeConfig(capacity=16))
    rng = np.random.default_rng(11)
    for src in range(num_sources):
        for dst in rng.integers(0, 1 << 20, degree):
            store.add_edge(src, int(dst), 1.0)
    return store


class TestAdmission:
    def _scan_workload(self, admission: bool) -> SnapshotCache:
        """Warm a small hot set, then scan one-hit wonders through."""
        store = _store_with_sources(120, 8)
        # Budget fits ~6 degree-8 snapshots: the hot set exactly.
        cache = SnapshotCache(
            capacity_bytes=6 * 8 * 16, min_degree=0, admission=admission
        )
        store.snapshot_cache = cache
        rng = np.random.default_rng(5)
        hot = list(range(6))
        for _ in range(10):  # train frequencies + fill the cache
            store.sample_neighbors_many(hot, 4, rng)
        for scan in range(6, 120):  # one access each, never again
            store.sample_neighbors_many([scan], 4, rng)
        return cache

    def test_scan_does_not_evict_hot_entries(self):
        cache = self._scan_workload(admission=True)
        cached = {src for _, src in cache.keys()}
        assert set(range(6)) <= cached
        assert cache.stats.admission_rejects > 0

    def test_plain_lru_loses_hot_entries_to_scan(self):
        # The contrast case: without admission the same scan flushes the
        # hot set (this is the failure mode TinyLFU exists for).
        cache = self._scan_workload(admission=False)
        cached = {src for _, src in cache.keys()}
        assert not (set(range(6)) & cached)
        assert cache.stats.admission_rejects == 0

    def test_admitted_when_hotter_than_victim(self):
        store = _store_with_sources(4, 8)
        cache = SnapshotCache(
            capacity_bytes=1 * 8 * 16, min_degree=0, admission=True
        )
        store.snapshot_cache = cache
        rng = np.random.default_rng(5)
        store.sample_neighbors_many([0], 4, rng)  # cached, frequency 1
        for _ in range(3):  # source 1 becomes clearly hotter
            store.sample_neighbors_many([1], 4, rng)
        assert {src for _, src in cache.keys()} == {1}
        assert cache.stats.evictions == 1


class TestCoalescing:
    def _cluster(self, coalesce: bool) -> LocalCluster:
        cluster = LocalCluster(num_servers=2, coalesce=coalesce)
        # One heavily-skewed source plus a second shard-mate.
        weights = [10.0, 5.0, 2.0, 2.0, 1.0]
        for dst, w in enumerate(weights):
            cluster.client.add_edge(7, 100 + dst, w)
            cluster.client.add_edge(8, 100 + dst, w)
        return cluster

    def test_counters_and_rate(self):
        cluster = self._cluster(coalesce=True)
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
        cluster = self._cluster(coalesce=True)
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
        for coalesce in (False, True):
            cluster = self._cluster(coalesce=coalesce)
            rows = cluster.client.sample_neighbors_many(
                [7, 8, 7] * 200, 1, np.random.default_rng(2)
            ).rows()
            counts = Counter(int(rows[i][0]) for i in range(0, 600, 3))
            observed = [counts.get(100 + i, 0) for i in range(5)]
            assert _chi2_pvalue(observed, expected) > 0.01, coalesce

    def test_uncoalesced_window_has_no_grouped_rpcs(self):
        cluster = self._cluster(coalesce=False)
        stats = cluster.client.serving_stats
        cluster.client.sample_neighbors_many(
            [7, 8, 7, 7], 2, np.random.default_rng(0)
        )
        assert stats.grouped_rpcs == 0
        assert stats.coalesced_sources == 0
        assert stats.shard_rpcs >= 1


def _hot_cluster(num_servers: int = 4) -> LocalCluster:
    cluster = LocalCluster(
        num_servers=num_servers, hot_set_capacity=64, coalesce=True
    )
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

    def test_drop_hot_replicas_restores_primary_only_reads(self):
        cluster = _hot_cluster()
        cluster.replicate_hot(top_n=1, copies=2, min_count=2)
        assert cluster.client.hot_replicas
        cluster.drop_hot_replicas()
        assert not cluster.client.hot_replicas
        stats = cluster.client.serving_stats
        stats.reset()
        cluster.client.sample_neighbors_many(
            [9, 9], 2, np.random.default_rng(7)
        )
        assert stats.hot_reads == 0
