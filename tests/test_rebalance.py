"""Tests for shard rebalancing over the local cluster."""

from __future__ import annotations

import pickle
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.samtree import SamtreeConfig
from repro.distributed import HashBySourcePartitioner, LocalCluster
from repro.distributed.rebalance import (
    MigrationStats,
    Move,
    OverridePartitioner,
    execute_plan,
    plan_rebalance,
)
from repro.errors import ConfigurationError, PartitionError

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


def skewed_cluster(num_servers=3, hub_edges=600, seed=0) -> LocalCluster:
    """A cluster where one hub source dominates its shard."""
    cluster = LocalCluster(num_servers=num_servers, config=SamtreeConfig(capacity=32))
    rng = random.Random(seed)
    hub = 424242
    for i in range(hub_edges):
        cluster.client.add_edge(hub, i, 1.0)
    for src in range(80):
        for _ in range(4):
            cluster.client.add_edge(src, rng.randrange(10_000), 1.0)
    return cluster


class TestOverridePartitioner:
    def test_override_wins(self):
        base = HashBySourcePartitioner(4)
        part = OverridePartitioner(base)
        src = 12345
        original = base.shard_for(src)
        target = (original + 1) % 4
        part.add_override(src, target)
        assert part.shard_for(src) == target
        assert part.shard_for(src + 1) == base.shard_for(src + 1)

    def test_override_validation(self):
        part = OverridePartitioner(HashBySourcePartitioner(2))
        with pytest.raises(PartitionError):
            part.add_override(1, 5)

    def test_same_shard_override_is_normalized_away(self):
        base = HashBySourcePartitioner(4)
        part = OverridePartitioner(base)
        src = 777
        home = base.shard_for(src)
        part.add_override(src, (home + 1) % 4)
        assert src in part.overrides
        # Moving a source back home must *clear* the override, not
        # store a redundant entry that pins it forever.
        part.add_override(src, home)
        assert src not in part.overrides
        assert part.shard_for(src) == home

    def test_shards_for_array_matches_scalar_path(self):
        base = HashBySourcePartitioner(4)
        part = OverridePartitioner(base)
        rng = np.random.default_rng(0)
        srcs = rng.integers(0, 10_000, 500).astype(np.int64)
        for src in srcs[:40]:
            part.add_override(int(src), int(rng.integers(0, 4)))
        vectorized = part.shards_for_array(srcs)
        scalar = np.array([part.shard_for(int(s)) for s in srcs])
        assert np.array_equal(vectorized, scalar)

    def test_pickles_through_rpc_path(self):
        # The partitioner ships to workers; a lambda/closure in its
        # state would break the RPC path's serialization.
        base = HashBySourcePartitioner(4)
        part = OverridePartitioner(base)
        part.add_override(5, (base.shard_for(5) + 1) % 4)
        clone = pickle.loads(pickle.dumps(part))
        assert clone.overrides == part.overrides
        for src in range(100):
            assert clone.shard_for(src) == part.shard_for(src)


class TestPlanning:
    def test_empty_cluster_no_moves(self):
        cluster = LocalCluster(num_servers=2)
        assert plan_rebalance(cluster) == []

    def test_validation(self):
        cluster = LocalCluster(num_servers=2)
        with pytest.raises(ConfigurationError):
            plan_rebalance(cluster, tolerance=0.0)
        with pytest.raises(ConfigurationError):
            plan_rebalance(cluster, max_moves=-1)

    def test_plan_reduces_spread(self):
        cluster = skewed_cluster()
        before = [s.store.num_edges for s in cluster.servers]
        moves = plan_rebalance(cluster, tolerance=0.2)
        assert moves
        # Simulate the plan's accounting.
        loads = list(before)
        for m in moves:
            loads[m.from_shard] -= m.load
            loads[m.to_shard] += m.load
        assert max(loads) - min(loads) < max(before) - min(before)

    def test_plan_respects_max_moves(self):
        cluster = skewed_cluster()
        assert len(plan_rebalance(cluster, tolerance=0.01, max_moves=2)) <= 2

    def test_balanced_cluster_needs_nothing(self):
        cluster = LocalCluster(num_servers=2)
        # Perfectly splittable uniform load.
        for src in range(200):
            cluster.client.add_edge(src, src + 1000, 1.0)
        moves = plan_rebalance(cluster, tolerance=0.3)
        assert moves == []


class TestExecution:
    def test_migration_preserves_graph(self):
        cluster = skewed_cluster()
        snapshot = {}
        for server in cluster.servers:
            for etype in server.store.etypes():
                for src in server.store.sources(etype):
                    for dst, w in server.store.neighbors(src, etype):
                        snapshot[(etype, src, dst)] = w
        moves = plan_rebalance(cluster, tolerance=0.2)
        execute_plan(cluster, moves)
        after = {}
        for server in cluster.servers:
            for etype in server.store.etypes():
                for src in server.store.sources(etype):
                    for dst, w in server.store.neighbors(src, etype):
                        after[(etype, src, dst)] = w
        assert after == snapshot
        # Client reads route correctly through the overrides.
        for (etype, src, dst), w in list(snapshot.items())[:50]:
            assert cluster.client.edge_weight(src, dst, etype) == w

    def test_spread_shrinks_after_execution(self):
        cluster = skewed_cluster()
        before = [s.store.num_edges for s in cluster.servers]
        moves = plan_rebalance(cluster, tolerance=0.2)
        execute_plan(cluster, moves)
        after = [s.store.num_edges for s in cluster.servers]
        assert max(after) - min(after) < max(before) - min(before)
        assert sum(after) == sum(before)

    def test_new_traffic_follows_overrides(self):
        cluster = skewed_cluster()
        moves = plan_rebalance(cluster, tolerance=0.2)
        execute_plan(cluster, moves)
        moved = moves[0]
        cluster.client.add_edge(moved.src, 999_999, 2.0)
        owner = cluster.servers[moved.to_shard]
        assert owner.store.edge_weight(moved.src, 999_999) == 2.0

    def test_idempotent_partitioner_reuse(self):
        cluster = skewed_cluster()
        part = execute_plan(cluster, plan_rebalance(cluster, tolerance=0.2))
        # A second round reuses the same override partitioner.
        part2 = execute_plan(cluster, plan_rebalance(cluster, tolerance=0.2))
        assert part2 is part

    def test_sampling_distribution_survives_migration(self):
        # Migrating a source must not perturb its sampling distribution:
        # chi-square parity on a skewed adjacency, before vs analytic.
        cluster = LocalCluster(num_servers=3)
        src = 4242
        weights = [8.0, 4.0, 2.0, 1.0, 1.0]
        for dst, w in enumerate(weights):
            cluster.client.add_edge(src, 100 + dst, w)
        from_shard = cluster.partitioner.shard_for(src)
        to_shard = (from_shard + 1) % 3
        execute_plan(
            cluster,
            [Move(src=src, from_shard=from_shard, to_shard=to_shard, load=5)],
        )
        draws = 1200
        rows = cluster.client.sample_neighbors_many(
            [src] * draws, 1, np.random.default_rng(9)
        ).rows()
        counts = Counter(int(r[0]) for r in rows)
        w = np.asarray(weights)
        expected = draws * w / w.sum()
        observed = [counts.get(100 + i, 0) for i in range(5)]
        assert _chi2_pvalue(observed, expected) > 0.01

    def test_no_lost_writes_under_concurrent_churn(self):
        # Writes racing the copy (injected between copy and cutover via
        # the before_cutover hook) must trigger a recopy, not vanish.
        cluster = skewed_cluster()
        moves = plan_rebalance(cluster, tolerance=0.2)
        assert moves
        racing = {}

        def churn(move):
            dst = 500_000 + move.src
            cluster.client.add_edge(move.src, dst, 3.5)
            racing[move.src] = dst

        stats = MigrationStats()
        execute_plan(cluster, moves, before_cutover=churn, stats=stats)
        assert stats.recopies >= len(moves)
        for move in moves:
            owner = cluster.servers[move.to_shard].store
            assert owner.edge_weight(move.src, racing[move.src]) == 3.5
            # The racing edge is also visible through the client route.
            assert cluster.client.edge_weight(
                move.src, racing[move.src]
            ) == 3.5
        # Source copies were fully retracted: no edge exists twice.
        total = sum(s.store.num_edges for s in cluster.servers)
        assert total == cluster.client.num_edges


class TestTrafficPlanning:
    def test_traffic_mode_requires_tracker(self):
        cluster = LocalCluster(num_servers=2)
        with pytest.raises(ConfigurationError):
            plan_rebalance(cluster, by="traffic")

    @staticmethod
    def _traffic_skewed_cluster():
        """Uniform storage, skewed *traffic*: one shard serves a handful
        of warm sources (an edge-count planner sees nothing to move)."""
        cluster = LocalCluster(num_servers=3, hot_set_capacity=64)
        for src in range(30):
            cluster.client.add_edge(src, 1000 + src, 1.0)
        part = cluster.partitioner
        hot_shard = part.shard_for(0)
        warm = [s for s in range(30) if part.shard_for(s) == hot_shard][:4]
        rng = np.random.default_rng(1)
        frontier = (
            [warm[0]] * 6 + [warm[1]] * 5 + [warm[2]] * 4 + [warm[3]] * 3
        )
        other = [s for s in range(30) if part.shard_for(s) != hot_shard][:2]
        for _ in range(40):
            cluster.client.sample_neighbors_many(frontier + other, 1, rng)
        return cluster, warm

    def test_traffic_loads_come_from_tracker_not_shard_scan(self):
        cluster, warm = self._traffic_skewed_cluster()
        moves = plan_rebalance(cluster, tolerance=0.2, by="traffic")
        assert moves
        for move in moves:
            assert move.src in warm
            # Loads are the tracker's observed read counts, not edge
            # counts (every source holds exactly one edge).
            assert move.load == cluster.hot_tracker.count(move.src)
            assert move.load > 1

    def test_auto_prefers_traffic_when_tracker_active(self):
        cluster, _ = self._traffic_skewed_cluster()
        auto = plan_rebalance(cluster, tolerance=0.2, by="auto")
        traffic = plan_rebalance(cluster, tolerance=0.2, by="traffic")
        assert auto == traffic
        assert auto

    def test_replicated_sources_are_not_planned(self):
        cluster, warm = self._traffic_skewed_cluster()
        cluster.replicate_hot(top_n=1, copies=1, min_count=1)
        replicated = {src for src, _ in cluster.client.hot_replicas.items()}
        assert replicated == {warm[0]}
        moves = plan_rebalance(cluster, tolerance=0.2, by="traffic")
        assert all(m.src != warm[0] for m in moves)
