"""Tests for the frozen read path: the read image's alias column
(repro.core.frozen) and the store's ``freeze`` / ``thaw``.

* ``freeze()`` makes every source a clean aliased row, in ``src`` order,
  equal to ``flatten_tree``; a store without an image freezes nothing;
* the vectorised alias builder decomposes its weights (Hypothesis
  property, pad boundaries, degenerate rows);
* chi-square distribution equivalence — alias rows, binary-search rows
  and the samtree descent draw one distribution on a *churned* store
  (insert/update/delete/accumulate mix), weighted and uniform;
* row-granular coherence — a write after ``freeze()`` sends *its row*
  to a re-flattened binary-search row (never a stale read) and leaves
  every other row on the alias kernel; the next ``freeze()`` rebuilds
  that one row; a mixed frontier answers in request order;
* edge cases — empty frontier, missing/zero-degree sources,
  zero-weight edges (never drawn weighted; uniform fallback on
  all-zero rows);
* multi-hop ``sample_blocks`` over a frozen store and its self-loop
  padding;
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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.static_csr import StaticCSRStore
from repro.core.compression import CompressedIDList, PlainIDList
from repro.core.fenwick import FSTable
from repro.core.fenwick import ROW_PAD
from repro.core.frozen import FrozenStats, alias_mass, build_alias
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.snapshot import ALIAS_TOLERANCE, coerce_generator, flatten_tree
from repro.core.topology import DynamicGraphStore
from repro.distributed.cluster import LocalCluster
from repro.errors import ConfigurationError, InvariantViolationError
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
# freeze: the image's rows, directory and accounting
# ---------------------------------------------------------------------------
class TestFrozenCompile:
    def test_compile_matches_store_content(self):
        store = _churned_store()
        (image,) = store.freeze()
        assert image.frozen and image.rows - 1 == store.num_sources
        assert image.used == store.num_edges and image.garbage == 0
        # Rows were written in src order: the searchsorted directory.
        assert image.ordered == store.num_sources
        assert (np.diff(image.src[1 : image.rows]) > 0).all()
        for src in store.sources():
            (slot,) = image.lookup(np.asarray([src])).tolist()
            assert slot == image.slot_of[src]
            assert image.clean[slot] and image.aliased[slot]
            ids, weights = flatten_tree(store.tree(src))
            row_ids, row_cum = store.snapshot_cache.row((0, src))
            np.testing.assert_array_equal(row_ids, ids)
            np.testing.assert_array_equal(row_cum, np.cumsum(weights))

    def test_lookup_missing_and_empty_shard(self):
        store = _churned_store()
        (image,) = store.freeze()
        slots = image.lookup(np.asarray([-5, 10**9, 0]))
        assert slots[0] == 0 and slots[1] == 0 and slots[2] > 0
        (empty,) = DynamicGraphStore().freeze()
        assert empty.frozen and empty.rows == 1 and empty.used == 0
        matrix, valid = empty.sample_matrix([1, 2], 3, coerce_generator(0))
        assert matrix.shape == (2, 3) and not valid.any()

    def test_freeze_all_etypes_and_thaw(self):
        store = DynamicGraphStore()
        store.add_edge(1, 2, 1.0, etype=0)
        store.add_edge(1, 3, 1.0, etype=4)
        assert len(store.freeze()) == 2
        assert len(store.frozen_shards) == 2
        assert store.nbytes_breakdown()["frozen"] > 0
        assert store.thaw() == 2
        assert store.frozen_shards == []
        assert store.nbytes_breakdown()["frozen"] == 0
        assert store.frozen_stats.thaws == 2
        assert len(store.freeze(etype=4)) == 1  # one relation only
        assert store.thaw(etype=0) == 0 and store.thaw(etype=4) == 1

    def test_nbytes_includes_frozen_component(self):
        store = _churned_store()
        before = store.nbytes()
        store.freeze()
        assert store.nbytes() > before
        assert store.nbytes() == sum(store.nbytes_breakdown().values())

    def test_freeze_without_an_image_compiles_nothing(self):
        """A store built with ``snapshot_cache=None`` reads by descent
        only: there is nothing to freeze, and nothing to account."""
        store = DynamicGraphStore(snapshot_cache=None)
        store.add_edge(1, 2, 1.0)
        before = store.nbytes()
        assert store.freeze() == [] and store.frozen_shards == []
        assert store.nbytes() == before
        assert store.frozen_stats.compiles == 0
        assert store.sample_neighbors_many([1], 2, rng=0).rows() == [[2, 2]]
        assert store.thaw() == 0


# ---------------------------------------------------------------------------
# the alias builder
# ---------------------------------------------------------------------------
def _alias_tables(rows):
    """Alias columns for ``rows`` (weight lists) laid out as one arena."""
    length = np.asarray([len(row) for row in rows], dtype=np.int64)
    start = np.cumsum(length) - length
    cum = np.concatenate([np.cumsum(row) for row in rows])
    prob = np.full(cum.size, np.nan)
    idx = np.full(cum.size, -1, dtype=np.int64)
    build_alias(cum, start, length, prob, idx)
    return prob, idx, start.tolist(), (start + length).tolist()


#: Multiples of 1/8, zeros included: cumulative sums stay exact.
_WEIGHT = st.integers(min_value=0, max_value=64).map(lambda v: v / 8.0)
_ROW = st.one_of(
    st.lists(_WEIGHT, min_size=1, max_size=2 * ROW_PAD),
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40),
    st.builds(lambda w, n: [w] * n, _WEIGHT, st.integers(1, ROW_PAD + 1)),
)


class TestAliasBuilder:
    def _check(self, rows):
        prob, idx, starts, ends = _alias_tables(rows)
        for row, lo, hi in zip(rows, starts, ends):
            weights = np.asarray(row, dtype=np.float64)
            total = float(weights.sum())
            mass = alias_mass(prob, idx, lo, hi)
            assert ((idx[lo:hi] >= lo) & (idx[lo:hi] < hi)).all()
            assert ((prob[lo:hi] >= 0.0) & (prob[lo:hi] <= 1.0)).all()
            if total > 0.0:
                assert np.abs(mass - weights / total).max() <= ALIAS_TOLERANCE
                assert (mass[weights == 0.0] == 0.0).all()
            else:  # the uniform fallback
                assert (mass == 1.0 / len(row)).all()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_ROW, min_size=1, max_size=12))
    def test_table_decomposes_the_weights(self, rows):
        self._check(rows)

    def test_pad_boundaries_and_degenerate_rows(self):
        rng = np.random.default_rng(7)
        rows = [
            [3.0],  # one edge
            [0.0] * 5,  # all zero
            [2.5] * ROW_PAD,  # all equal
            [0.0, 4.0, 0.0],  # one positive edge
        ]
        for n in (2, ROW_PAD - 1, ROW_PAD, ROW_PAD + 1, 5 * ROW_PAD):
            rows.append((rng.integers(0, 64, n) / 8.0 + (n == 2)).tolist())
            rows.append((rng.random(n) ** 8 * 1e3).tolist())  # heavy skew
        self._check(rows)
        # Equal-weight and single-edge rows keep the identity table.
        prob, idx, starts, ends = _alias_tables(rows[:3])
        assert (prob == 1.0).all()
        assert idx.tolist() == list(range(ends[-1]))


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

        searched_rows = store.sample_neighbors_many(  # binary-search rows
            [src] * n_batches, k, rng=98
        ).rows()
        store.freeze()
        frozen_rows = store.sample_neighbors_many(
            [src] * n_batches, k, rng=99
        ).rows()
        assert store.frozen_stats.batches == 1
        assert store.frozen_stats.vertices == n_batches

        expected = np.asarray(
            [self.DRAWS * adjacency[d] / total for d in support]
        )
        for rows in (exact_rows, searched_rows, frozen_rows):
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
# coherence: a write thaws its row, not the relation
# ---------------------------------------------------------------------------
class TestEpochInvalidation:
    def test_every_mutation_path_dirties_the_written_row(self):
        store = DynamicGraphStore()
        store.bulk_load([1, 1, 5, 6], [2, 3, 1, 1], 1.0)
        cache = store.snapshot_cache
        for mutate in (
            lambda: store.add_edge(1, 4, 1.0),
            lambda: store.accumulate_edge(1, 2, 0.5),
            lambda: store.update_edge(1, 2, 3.0),
            lambda: store.remove_edge(1, 2),
            lambda: store.apply_source_batch(1, 0, [("insert", 9, 1.0)]),
            lambda: store.bulk_load([1, 1], [7, 8], 1.0),
        ):
            store.freeze()
            assert (0, 1) in cache and (0, 5) in cache
            mutate()
            assert (0, 1) not in cache  # the written row ...
            assert (0, 5) in cache and (0, 6) in cache  # ... and only it
            store.check_invariants()

    def test_no_stale_reads_after_mutation(self):
        store = DynamicGraphStore()
        store.add_edge(1, 10, 1.0)
        store.freeze()
        store.remove_edge(1, 10)
        store.add_edge(1, 20, 1.0)
        rows = store.sample_neighbors_many([1] * 50, 8, rng=3).rows()
        drawn = {int(v) for row in rows for v in row}
        assert drawn == {20}  # the deleted neighbor is never served
        # Every row fell to the re-flattened row, none to the old table.
        assert store.frozen_stats.stale_misses == 50
        assert store.frozen_stats.vertices == 0

    def test_explicit_refreeze_restores_the_fast_path(self):
        store = _churned_store()
        store.freeze()
        store.add_edge(0, 9999, 1.0)
        store.sample_neighbors_many([0], 4, rng=1)
        assert store.frozen_stats.vertices == 0
        store.freeze()
        store.sample_neighbors_many([0], 4, rng=1)
        assert store.frozen_stats.vertices == 1

    def test_write_thaws_one_row_and_refreeze_rebuilds_it(self):
        store = _churned_store()
        cache, stats = store.snapshot_cache, store.frozen_stats
        (image,) = store.freeze()
        builds = cache.stats.builds
        assert builds == stats.compiled_rows == store.num_sources
        store.add_edge(4, 31337, 2.0)
        others = [src for src in store.sources() if src != 4]
        store.sample_neighbors_many(others, 3, rng=1)
        assert stats.vertices == len(others) and stats.stale_misses == 0
        rows = store.sample_neighbors_many([4] * 40 + others, 16, rng=2).rows()
        assert stats.vertices == 2 * len(others) and stats.stale_misses == 40
        assert 31337 in {v for row in rows[:40] for v in row}
        ids, weights = flatten_tree(store.tree(4))
        row_ids, row_cum = cache.row((0, 4))
        assert (row_ids == ids).all() and (row_cum == np.cumsum(weights)).all()
        assert not image.aliased[image.slot_of[4]]
        assert cache.stats.builds == builds + 1  # the read re-flattened it
        # A second freeze builds one table and flattens nothing ...
        store.freeze()
        assert cache.stats.builds == builds + 1
        assert stats.compiled_rows == store.num_sources + 1
        # ... and, with no read in between, re-flattens exactly the
        # written row.
        store.update_edge(4, 31337, 5.0)
        store.freeze()
        assert cache.stats.builds == builds + 2
        assert stats.compiled_rows == store.num_sources + 2
        store.sample_neighbors_many([4], 3, rng=3)
        assert stats.stale_misses == 40
        store.check_invariants()

    @pytest.mark.parametrize("dirty", [1, 40])  # row loop / frontier kernel
    def test_mixed_frontier_answers_in_request_order(self, dirty):
        store = DynamicGraphStore()
        for src in range(100):
            for dst in range(3):  # each source's neighbours name it
                store.add_edge(src, 1000 * src + dst, 1.0 + dst)
        store.freeze()
        for src in range(dirty):
            store.add_edge(src, 1000 * src + 3, 9.0)
        sinks = [500, 501]
        frontier = [0, 99, 500, 5, 98, 0, 501, 97] + list(range(100))
        counts = [1 + i % 3 for i in range(len(frontier))]
        for kwargs in ({}, {"counts": counts}):
            block = store.sample_neighbors_many(frontier, 6, rng=4, **kwargs)
            owners = np.repeat(frontier, kwargs.get("counts", 1))
            assert block.ids.shape == (len(owners), 6)
            for src, row, state in zip(
                owners.tolist(), block.ids.tolist(), block.state.tolist()
            ):
                if src in sinks:
                    assert state == 1 and row == [0] * 6
                else:
                    assert state == 0 and {v // 1000 for v in row} == {src}
        written = {v for v in block.ids[owners == 0].ravel().tolist()}
        assert 3 in written  # the dominant new edge is drawn at once
        stats = store.frozen_stats
        assert stats.stale_misses > 0 and stats.vertices > 0
        assert stats.missing_vertices > 0

    def test_stale_alias_table_is_detected(self):
        store = _churned_store()
        (image,) = store.freeze()
        for promoted in (True, False):  # a samtree's row, a slab row's
            src = next(
                s for s in store.sources()
                if (type(store.directory.get((0, s))) is not int) == promoted
            )
            store.check_invariants()
            slot = image.slot_of[src]
            a = int(image.start[slot])
            b = a + int(image.length[slot])
            image.alias_prob[a:b] = 0.5  # half of every cell's mass ...
            image.alias_idx[a:b] = a  # ... moved onto the first edge
            assert store.snapshot_cache.stale_rows(
                store.directory, store.slab
            ) == [(0, src)]
            with pytest.raises(InvariantViolationError):
                store.check_invariants()
            image.aliased[slot] = False  # a binary-search row has no table
            store.check_invariants()


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
        assert store.frozen_stats.vertices == 3 + 12
        assert store.frozen_stats.stale_misses == 0
        assert blocks.batch_size == 3
        assert [int(l.size) for l in blocks.levels] == [3, 12, 36]

    def test_sample_blocks_falls_back_when_stale(self):
        store = _churned_store()
        store.freeze()
        store.add_edge(0, 424242, 0.5)
        blocks = sample_blocks(store, [0, 3], [2, 2], rng=9)
        # The written row alone left the alias kernel, on the one hop
        # that read it.
        assert store.frozen_stats.stale_misses == 1
        assert store.frozen_stats.vertices == 1 + 4
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
        cluster.client.add_edge(0, 999999, 1.0)  # dirties one row
        frontier = list(range(40))
        rows = cluster.client.sample_neighbors_many(frontier, 4, rng=4).rows()
        assert all(len(row) == 4 for row in rows)
        stale = sum(
            s.store.frozen_stats.stale_misses for s in cluster.servers
        )
        assert stale == 1  # only the written row fell back
        drawn = {
            int(v)
            for row in cluster.client.sample_neighbors_many([0], 64, rng=1).rows()
            for v in row
        }
        assert 999999 in drawn or len(drawn) > 0  # fresh state reachable

    def test_freeze_all_on_image_less_stores_is_a_no_op(self):
        cluster = self._loaded_cluster(
            store_factory=lambda: DynamicGraphStore(snapshot_cache=None)
        )
        before = cluster.total_nbytes()
        assert cluster.freeze_all() == 0
        assert cluster.total_nbytes() == before
        rows = cluster.client.sample_neighbors_many(list(range(40)), 3, rng=1)
        assert all(len(row) == 3 for row in rows.rows())

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
        rows, degree = store.num_sources, store.degree(0)
        store.add_edge(0, 31337, 1.0)
        image = diagnose_store(store).to_dict()["snapshot_cache"]
        assert image["rows"] == rows
        # The written row is dirty: its arena slots are nobody's.
        assert image["entries"] == image["aliased"] == rows - 1
        assert image["pinned"] == rows - 1
        assert image["edges"] == store.num_edges - 1 - degree
        assert image["garbage"] == degree
        store.sample_neighbors_many([0, 1, 10**8], 2, rng=0)
        report = diagnose_store(store)
        image = report.to_dict()["snapshot_cache"]
        assert image["rows"] == rows + 1  # every source and one sink
        assert image["entries"] == image["pinned"] == rows + 1
        assert image["aliased"] == rows  # all but the re-flattened row
        assert image["edges"] == store.num_edges
        assert image["alias_served"] == 2 and image["alias_missed"] == 1
        assert "frozen" not in report.to_dict()
        assert report.total_bytes == store.nbytes()
        assert f"aliased={rows}" in report.render()
        reg = report.to_registry().snapshot().to_dict()["scalars"]
        assert any(k.startswith("repro_doctor_cache_aliased") for k in reg)
