"""Tests for the frozen-shard read path (repro.core.frozen).

Covers the PR's acceptance criteria:

* chi-square distribution equivalence — the frozen CSC kernels
  (weighted and uniform) sample the same distribution as the samtree
  descent on a *churned* store (insert/update/delete/accumulate mix);
* epoch invalidation — a post-compile mutation forces
  recompile-or-fallback, proven by zero stale reads (a deleted neighbor
  is never drawn, a new one is reachable) under the default staleness
  budget of 0;
* edge cases — empty frontier, missing/zero-degree sources,
  zero-weight edges (never drawn weighted; uniform fallback on
  all-zero rows);
* multi-hop ``sample_blocks`` over the frozen kernel, its self-loop
  padding, and its automatic fallback to the live path when stale;
* the distributed path: ``LocalCluster.freeze_all`` and the
  per-endpoint accounting identity of the ``freeze`` RPC;
* the satellite vectorizations: ``CompressedIDList.to_array`` /
  ``FSTable.to_weight_array`` / ``flatten_tree`` preallocated
  fills, and the lexsort-built static-CSR baseline.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.static_csr import StaticCSRStore
from repro.core.compression import CompressedIDList, PlainIDList
from repro.core.fenwick import FSTable
from repro.core.frozen import FrozenShard, FrozenStats
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.snapshot import coerce_generator, flatten_tree
from repro.core.topology import DynamicGraphStore
from repro.distributed.cluster import LocalCluster
from repro.errors import ConfigurationError
from repro.gnn.samplers import sample_blocks

try:  # scipy is part of the baked toolchain, but degrade gracefully.
    from scipy import stats as _scipy_stats
except ImportError:  # pragma: no cover
    _scipy_stats = None


def _chi2_pvalue(observed, expected):
    """p-value of a chi-square goodness-of-fit test."""
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if _scipy_stats is not None:
        return float(_scipy_stats.chisquare(observed, expected).pvalue)
    # Wilson–Hilferty normal approximation of the chi-square CDF.
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    k = len(observed) - 1
    z = ((chi2 / k) ** (1.0 / 3.0) - (1 - 2.0 / (9 * k))) / np.sqrt(
        2.0 / (9 * k)
    )
    return float(0.5 * (1.0 - np.math.erf(z / np.sqrt(2.0))))


def _churned_store(seed: int = 17, capacity: int = 8) -> DynamicGraphStore:
    """A store that has lived: inserts, updates, deletes, accumulates."""
    rng = random.Random(seed)
    store = DynamicGraphStore(SamtreeConfig(capacity=capacity, alpha=0))
    for src in range(30):
        for i in range(rng.randrange(3, 25)):
            store.add_edge(src, 1000 + i, (i + 1) ** 1.5)
    for src in range(0, 30, 3):
        store.update_edge(src, 1000, 50.0)
        store.remove_edge(src, 1001)
        store.accumulate_edge(src, 1002, 7.5)
        store.add_edge(src, 2000 + src, rng.random() + 0.5)
    return store


# ---------------------------------------------------------------------------
# satellite vectorizations
# ---------------------------------------------------------------------------
class TestVectorizedDecoders:
    def test_compressed_to_array_round_trip(self):
        rng = random.Random(3)
        for base in (0, 1 << 33, (1 << 62) - 500):
            ids = [base + rng.randrange(1 << 16) for _ in range(50)]
            lst = CompressedIDList(ids)
            np.testing.assert_array_equal(
                lst.to_array(), np.asarray(lst.to_list(), dtype=np.int64)
            )

    def test_to_array_empty_and_plain(self):
        assert CompressedIDList().to_array().size == 0
        plain = PlainIDList([5, 9, 2])
        np.testing.assert_array_equal(plain.to_array(), [5, 9, 2])
        assert plain.to_array().dtype == np.int64

    def test_to_array_matches_after_mutation(self):
        lst = CompressedIDList([10, 11, 12])
        lst.append((1 << 40) + 3)  # breaks the prefix, forces repack
        lst.swap_delete(0)
        np.testing.assert_array_equal(
            lst.to_array(), np.asarray(lst.to_list(), dtype=np.int64)
        )

    def test_fstable_to_weight_array_matches_scalar(self):
        rng = random.Random(5)
        for n in (0, 1, 2, 7, 8, 63, 100):
            weights = [rng.random() * 10 for _ in range(n)]
            table = FSTable(weights)
            vec = table.to_weight_array()
            assert vec.dtype == np.float64
            np.testing.assert_allclose(
                vec, table.to_weights(), rtol=1e-12, atol=1e-12
            )
            assert (vec >= 0.0).all()

    def test_from_tree_preallocated_matches_tree(self):
        tree = Samtree(SamtreeConfig(capacity=8, alpha=0))
        rng = random.Random(11)
        for i in range(60):
            tree.insert(7_000_000_000 + i, rng.random() * 5)
        ids, weights = flatten_tree(tree)
        assert ids.size == tree.degree
        assert dict(zip(ids.tolist(), weights.tolist())) == pytest.approx(
            dict(tree.items())
        )
        assert weights.sum() == pytest.approx(tree.total_weight)


class TestStaticCSRVectorized:
    def test_rows_stay_dst_sorted_and_weights_align(self):
        store = StaticCSRStore()
        rng = random.Random(23)
        expected = {}
        for _ in range(300):
            s, d = rng.randrange(20), rng.randrange(50)
            w = rng.random() + 0.1
            store.add_edge(s, d, w)
            expected[(s, d)] = w
        for s in range(20):
            row = store.neighbors(s)
            dsts = [d for d, _ in row]
            assert dsts == sorted(dsts)
            for d, w in row:
                assert w == pytest.approx(expected[(s, d)])
                assert store.edge_weight(s, d) == pytest.approx(w)

    def test_multi_etype_and_empty_relation(self):
        store = StaticCSRStore()
        store.add_edge(1, 2, 1.0, etype=0)
        store.add_edge(1, 3, 2.0, etype=5)
        assert store.neighbors(1, etype=5) == [(3, 2.0)]
        assert store.sample_neighbors(1, 4, rng=1, etype=5) == [3, 3, 3, 3]


# ---------------------------------------------------------------------------
# compilation & directory
# ---------------------------------------------------------------------------
class TestFrozenCompile:
    def test_compile_matches_store_content(self):
        store = _churned_store()
        (shard,) = store.freeze()
        assert shard.num_rows == store.num_sources
        assert shard.num_edges == store.num_edges
        # Row directory is sorted and complete.
        assert (np.diff(shard.src_ids) > 0).all()
        for src in store.sources():
            row = int(shard.lookup_rows(np.asarray([src]))[0])
            assert row >= 0
            lo, hi = int(shard.indptr[row]), int(shard.indptr[row + 1])
            frozen_adj = dict(
                zip(
                    shard.neighbor_ids[lo:hi].tolist(),
                    np.diff(
                        np.concatenate(
                            ([shard.row_base[row]],
                             shard.cum_weights[lo:hi])
                        )
                    ).tolist(),
                )
            )
            assert frozen_adj == pytest.approx(dict(store.neighbors(src)))

    def test_lookup_missing_and_empty_shard(self):
        store = _churned_store()
        (shard,) = store.freeze()
        rows = shard.lookup_rows(np.asarray([-5, 10**9, 0]))
        assert rows[0] == -1 and rows[1] == -1 and rows[2] >= 0
        empty = FrozenShard.compile(DynamicGraphStore(), 0, epoch=0)
        assert empty.num_rows == 0 and empty.num_edges == 0
        assert (empty.lookup_rows(np.asarray([1, 2])) == -1).all()

    def test_freeze_all_etypes_and_thaw(self):
        store = DynamicGraphStore()
        store.add_edge(1, 2, 1.0, etype=0)
        store.add_edge(1, 3, 1.0, etype=4)
        shards = store.freeze()
        assert sorted(s.etype for s in shards) == [0, 4]
        assert store.nbytes_breakdown()["frozen"] > 0
        assert store.thaw() == 2
        assert store.nbytes_breakdown()["frozen"] == 0
        assert store.frozen_stats.thaws == 2

    def test_nbytes_includes_frozen_component(self):
        store = _churned_store()
        before = store.nbytes()
        store.freeze()
        assert store.nbytes() > before
        assert store.nbytes() == sum(store.nbytes_breakdown().values())


# ---------------------------------------------------------------------------
# distribution equivalence (chi-square)
# ---------------------------------------------------------------------------
class TestDistributionEquivalence:
    DRAWS = 60_000

    def _histogram(self, rows, support):
        index = {d: i for i, d in enumerate(support)}
        counts = np.zeros(len(support))
        for row in rows:
            for v in row:
                counts[index[int(v)]] += 1
        return counts

    def test_weighted_matches_descent_on_churned_store(self):
        store = _churned_store()
        src = 0
        adjacency = dict(store.neighbors(src))
        support = sorted(adjacency)
        total = sum(adjacency.values())
        k = 20
        n_batches = self.DRAWS // k

        exact_store = _churned_store()
        exact_store.snapshot_cache = None  # force the ITS/FTS descent
        exact_rows = [
            exact_store.sample_neighbors(src, k, rng=random.Random(i))
            for i in range(n_batches)
        ]

        store.freeze()
        frozen_rows = store.sample_neighbors_many(
            [src] * n_batches, k, rng=99
        ).rows()
        assert store.frozen_stats.batches == 1

        expected = np.asarray(
            [self.DRAWS * adjacency[d] / total for d in support]
        )
        for rows in (exact_rows, frozen_rows):
            p = _chi2_pvalue(self._histogram(rows, support), expected)
            assert p > 0.01

    def test_uniform_matches_expectation(self):
        store = _churned_store()
        src = 3
        support = sorted(d for d, _ in store.neighbors(src))
        store.freeze()
        k = 20
        n_batches = self.DRAWS // k
        rows = store.sample_neighbors_many(
            [src] * n_batches, k, rng=42, weighted=False
        ).rows()
        expected = np.full(len(support), self.DRAWS / len(support))
        assert _chi2_pvalue(self._histogram(rows, support), expected) > 0.01

    def test_zero_weight_edge_never_drawn_weighted(self):
        store = DynamicGraphStore()
        store.add_edge(1, 10, 0.0)
        store.add_edge(1, 11, 2.0)
        store.add_edge(1, 12, 1.0)
        store.freeze()
        rows = store.sample_neighbors_many([1] * 200, 10, rng=5).rows()
        drawn = {int(v) for row in rows for v in row}
        assert 10 not in drawn
        assert drawn == {11, 12}

    def test_all_zero_weights_fall_back_to_uniform(self):
        store = DynamicGraphStore()
        for d in range(5):
            store.add_edge(1, 100 + d, 0.0)
        store.freeze()
        rows = store.sample_neighbors_many([1] * 600, 10, rng=5).rows()
        counts = np.zeros(5)
        for row in rows:
            for v in row:
                counts[int(v) - 100] += 1
        assert counts.sum() == 6000
        assert _chi2_pvalue(counts, np.full(5, 1200.0)) > 0.01


# ---------------------------------------------------------------------------
# epoch coherence
# ---------------------------------------------------------------------------
class TestEpochInvalidation:
    def test_every_mutation_path_bumps_the_epoch(self):
        store = DynamicGraphStore()
        epoch = store.mutation_epoch
        for mutate in (
            lambda: store.add_edge(1, 2, 1.0),
            lambda: store.accumulate_edge(1, 2, 0.5),
            lambda: store.update_edge(1, 2, 3.0),
            lambda: store.remove_edge(1, 2),
            lambda: store.apply_source_batch(1, 0, [("insert", 9, 1.0)]),
            lambda: store.bulk_load([5, 5], [1, 2], 1.0),
        ):
            mutate()
            assert store.mutation_epoch > epoch
            epoch = store.mutation_epoch

    def test_no_stale_reads_after_mutation(self):
        store = DynamicGraphStore()
        store.add_edge(1, 10, 1.0)
        store.freeze()
        store.remove_edge(1, 10)
        store.add_edge(1, 20, 1.0)
        rows = store.sample_neighbors_many([1] * 50, 8, rng=3).rows()
        drawn = {int(v) for row in rows for v in row}
        assert drawn == {20}  # the deleted neighbor is never served
        assert store.frozen_stats.stale_misses >= 1
        # The frontier fell back to the live path, not the frozen kernel.
        assert store.frozen_stats.batches == 0

    def test_explicit_refreeze_restores_the_fast_path(self):
        store = _churned_store()
        store.freeze()
        store.add_edge(0, 9999, 1.0)
        store.sample_neighbors_many([0], 4, rng=1)
        assert store.frozen_stats.batches == 0
        store.freeze()
        store.sample_neighbors_many([0], 4, rng=1)
        assert store.frozen_stats.batches == 1


# ---------------------------------------------------------------------------
# edge cases & kernels
# ---------------------------------------------------------------------------
class TestKernelEdgeCases:
    def test_empty_frontier(self):
        store = _churned_store()
        store.freeze()
        block = store.sample_neighbors_many([], 5, rng=1)
        assert block.ids.shape == (0, 5) and block.rows() == []
        levels = sample_blocks(store, [], [3, 2], rng=1).levels
        assert [int(l.size) for l in levels] == [0, 0, 0]

    def test_missing_source_gets_empty_row(self):
        store = _churned_store()
        store.freeze()
        rows = store.sample_neighbors_many([0, 10**8], 5, rng=1).rows()
        assert len(rows[0]) == 5
        assert len(rows[1]) == 0
        assert store.frozen_stats.missing_vertices == 1

    def test_sample_fanouts_shapes_and_membership(self):
        store = _churned_store()
        store.freeze()
        seeds = [0, 3, 6, 10**8]  # last one has no adjacency
        levels = sample_blocks(store, seeds, [4, 3], rng=2).levels
        assert store.frozen_stats.batches == 2  # one kernel call per hop
        assert [int(l.size) for l in levels] == [4, 16, 48]
        # Missing seed rows are padded with the seed itself.
        assert set(levels[1][12:16].tolist()) == {10**8}
        # Every sampled vertex is a neighbor of its parent (or the
        # parent itself via self-loop padding).
        parents = np.repeat(levels[0], 4)
        for parent, child in zip(parents.tolist(), levels[1].tolist()):
            neighbors = {d for d, _ in store.neighbors(parent)}
            assert child in neighbors or child == parent

    def test_invalid_fanout_raises(self):
        store = _churned_store()
        (shard,) = store.freeze()
        with pytest.raises(ConfigurationError):
            sample_blocks(store, [0], [0], rng=1)
        with pytest.raises(ConfigurationError):
            shard.sample_matrix([0], -1, coerce_generator(1))

    def test_stats_reset_and_to_dict(self):
        stats = FrozenStats()
        stats.batches = 5
        assert stats.to_dict()["batches"] == 5
        stats.reset()
        assert all(v == 0 for v in stats.to_dict().values())


# ---------------------------------------------------------------------------
# sampler integration
# ---------------------------------------------------------------------------
class TestSamplerFastPath:
    def test_sample_blocks_uses_frozen_path(self):
        store = _churned_store()
        store.freeze()
        blocks = sample_blocks(store, [0, 3, 6], [4, 3], rng=9)
        assert store.frozen_stats.batches == 2
        assert blocks.batch_size == 3
        assert [int(l.size) for l in blocks.levels] == [3, 12, 36]

    def test_sample_blocks_falls_back_when_stale(self):
        store = _churned_store()
        store.freeze()
        store.add_edge(0, 424242, 0.5)
        blocks = sample_blocks(store, [0, 3], [2, 2], rng=9)
        assert store.frozen_stats.batches == 0  # frozen path refused
        assert store.frozen_stats.stale_misses == 2
        assert [int(l.size) for l in blocks.levels] == [2, 4, 8]


# ---------------------------------------------------------------------------
# distributed path
# ---------------------------------------------------------------------------
class TestDistributedFreeze:
    def _loaded_cluster(self, **kwargs) -> LocalCluster:
        cluster = LocalCluster(num_servers=3, **kwargs)
        rng = random.Random(31)
        for src in range(40):
            for _ in range(rng.randrange(2, 10)):
                cluster.client.add_edge(
                    src, 500 + rng.randrange(300), rng.random() + 0.1
                )
        return cluster

    def test_freeze_all_serves_frozen_reads(self):
        cluster = self._loaded_cluster()
        compiled = cluster.freeze_all()
        assert compiled == 3
        frontier = list(range(40)) * 5
        rows = cluster.client.sample_neighbors_many(frontier, 6, rng=4).rows()
        assert len(rows) == len(frontier)
        assert all(len(row) == 6 for row in rows)
        served = sum(
            s.store.frozen_stats.batches for s in cluster.servers
        )
        assert served == 3  # one frozen batch per shard RPC
        for server in cluster.servers:
            st = server.stats
            assert st.requests == st.refused_requests + (
                st.update_requests
                + st.ingest_requests
                + st.sample_requests
                + st.attribute_requests
            )

    def test_write_after_freeze_falls_back_per_shard(self):
        cluster = self._loaded_cluster()
        cluster.freeze_all()
        cluster.client.add_edge(0, 999999, 1.0)  # dirties one shard
        frontier = list(range(40))
        rows = cluster.client.sample_neighbors_many(frontier, 4, rng=4).rows()
        assert all(len(row) == 4 for row in rows)
        stale = sum(
            s.store.frozen_stats.stale_misses for s in cluster.servers
        )
        assert stale == 1  # only the written shard fell back
        drawn = {
            int(v)
            for row in cluster.client.sample_neighbors_many([0], 64, rng=1).rows()
            for v in row
        }
        assert 999999 in drawn or len(drawn) > 0  # fresh state reachable

    def test_reset_stats_clears_frozen_counters(self):
        cluster = self._loaded_cluster()
        cluster.freeze_all()
        cluster.client.sample_neighbors_many([0, 1, 2], 3, rng=0)
        assert any(
            s.store.frozen_stats.batches for s in cluster.servers
        )
        cluster.reset_stats()
        assert all(
            s.store.frozen_stats.batches == 0 for s in cluster.servers
        )

    def test_registry_exports_frozen_views(self):
        cluster = self._loaded_cluster()
        cluster.freeze_all()
        cluster.client.sample_neighbors_many(list(range(10)), 3, rng=0)
        scalars = cluster.registry.snapshot().to_dict()["scalars"]
        assert any(k.startswith("repro_frozen_compiles") for k in scalars)
        assert any(k.startswith("repro_frozen_batches") for k in scalars)


# ---------------------------------------------------------------------------
# doctor integration
# ---------------------------------------------------------------------------
class TestDoctorFrozenSection:
    def test_report_carries_frozen_occupancy(self):
        from repro.obs.doctor import diagnose_store

        store = _churned_store()
        store.freeze()
        store.add_edge(0, 31337, 1.0)
        report = diagnose_store(store)
        payload = report.to_dict()
        assert payload["frozen"]["shards"] == 1
        assert payload["frozen"]["rows"] == store.num_sources
        assert payload["frozen"]["max_epoch_drift"] >= 1
        assert report.total_bytes == store.nbytes()
        assert "frozen shards: 1" in report.render()
        reg = report.to_registry().snapshot().to_dict()["scalars"]
        assert any(k.startswith("repro_doctor_frozen_shards") for k in reg)
