"""Tests for the frozen read path: the read image's alias column
(repro.core.frozen) and the store's ``freeze`` / ``thaw``.

* ``freeze()`` makes every source a clean aliased row, in ``src`` order,
  equal to ``flatten_tree``; a store without an image freezes nothing;
* the vectorised alias builder decomposes its weights (Hypothesis
  property, pad boundaries, degenerate rows);
* chi-square distribution equivalence — alias rows, binary-search rows
  and the samtree descent draw one distribution on a *churned* store
  (insert/update/delete mix);
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

from repro.baselines.platogl import PlatoGLStore
from repro.baselines.static_csr import StaticCSRStore
from repro.core.compression import CompressedIDList, PlainIDList
from repro.core.fenwick import FSTable
from repro.core.fenwick import ROW_PAD, pad_rows
from repro.core.frozen import FrozenStats, alias_mass, build_alias
from repro.core.ingest import OP_INSERT, EdgeBatch
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.slab import Slab
from repro.core.snapshot import ALIAS_TOLERANCE, coerce_generator, flatten_tree
from repro.core.topology import DynamicGraphStore
from repro.distributed.cluster import LocalCluster
from repro.distributed.server import GraphServer
from repro.errors import ConfigurationError, InvariantViolationError
from repro.gnn.samplers import sample_blocks
from tests.conftest import python_calls

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
    """A store that has lived: inserts, updates, deletes."""
    rng = random.Random(seed)
    store = DynamicGraphStore(SamtreeConfig(capacity=capacity, alpha=0))
    for src in range(30):
        for i in range(rng.randrange(3, 25)):
            store.add_edge(src, 1000 + i, (i + 1) ** 1.5)
    for src in range(0, 30, 3):
        store.update_edge(src, 1000, 50.0)
        store.remove_edge(src, 1001)
        store.update_edge(src, 1002, 3**1.5 + 7.5)
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
        # Only samtrees take arena slots: a slab source is drawn in place.
        in_trees = sum(tree.degree for tree in store.directory.trees.values())
        assert 0 < in_trees < store.num_edges
        assert image.used == in_trees and image.garbage == 0
        # Rows were written in src order: the searchsorted directory.
        assert image.ordered == store.num_sources
        assert (np.diff(image.src[1 : image.rows]) > 0).all()
        for src in store.sources():
            (slot,) = image.lookup(np.asarray([src])).tolist()
            assert slot == image.slot_of[src]
            assert image.clean[slot] and image.aliased[slot]
            value = store.directory.get(0, src)
            assert image.slab_row[slot] == (value if type(value) is int else 0)
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
        """A shard whose store has no read image (a baseline store) has
        nothing to freeze and nothing to account: its freeze is counted
        and answers 0, its reads are unchanged."""
        server = GraphServer(0, store=PlatoGLStore())
        server.ingest_batch(EdgeBatch.inserts([1], [2]))
        before = server.nbytes()
        assert server.freeze() == 0 and server.freeze(etype=0) == 0
        assert server.stats.update_requests == 2
        assert server.nbytes() == before
        block = server.sample_neighbors_many([1], 2, rng=0)
        assert block.rows() == [[2, 2]]


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
            assert ((idx[lo:hi] >= 0) & (idx[lo:hi] < hi - lo)).all()
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
        assert idx.tolist() == [
            i for lo, hi in zip(starts, ends) for i in range(hi - lo)
        ]


    def test_a_long_row_pairs_in_stack_order(self):
        # A row of more than ROW_PAD edges pairs its *last* small cell
        # with its *last* large one, and a large cell that shrinks is the
        # next small cell; a short row pairs the *first* of each.  The
        # frozen draws of every hub depend on this order: this literal
        # table (weights in eighths summing to 16, so every mass is
        # dyadic and exact) pins it.
        k = [1, 12, 3, 9, 0, 7, 2, 14, 5, 6, 4, 11, 1, 8, 13, 2, 10, 3, 9, 8]
        prob, idx, _, _ = _alias_tables([[v / 8.0 for v in k]])
        assert prob.tolist() == [
            0.15625, 1.0, 0.46875, 0.96875, 0.0, 0.5625, 0.3125, 0.46875,
            0.78125, 0.9375, 0.625, 0.8125, 0.15625, 0.78125, 0.8125,
            0.3125, 0.15625, 0.46875, 0.4375, 0.71875,
        ]
        assert idx.tolist() == [
            1, 1, 7, 1, 7, 3, 11, 5, 13, 13, 14, 7, 16, 11, 13, 18, 14, 19,
            16, 18,
        ]


# ---------------------------------------------------------------------------
# the builder against its first form, bit for bit
# ---------------------------------------------------------------------------
def _padded_short_rows(cum, start, length, alias_prob, alias_idx) -> None:
    """The short-row pairing as first written: every row padded to
    ``ROW_PAD``, and every round over the full padded width."""
    sums, pos, inside = pad_rows(cum, start, length)
    weights = np.diff(sums, axis=1, prepend=0.0)
    weights[~inside] = 0.0
    cells = pos[inside]
    alias_prob[cells] = 1.0
    alias_idx[cells] = cells - np.repeat(start, length)  # its own offset
    total = sums.max(axis=1)  # a cumulative row ends on its maximum
    lowest = np.where(inside, weights, np.inf).min(axis=1)
    rows = np.flatnonzero((lowest != weights.max(axis=1)) & (total > 0.0))
    scaled = weights[rows] / total[rows][:, None] * length[rows][:, None]
    pos = pos[rows]
    small = inside[rows] & (scaled < 1.0)
    large = inside[rows] & ~small
    while True:
        live = np.flatnonzero(small.any(axis=1) & large.any(axis=1))
        if live.size == 0:
            return
        if live.size < len(scaled):
            scaled, pos = scaled[live], pos[live]
            small, large = small[live], large[live]
        row = np.arange(len(scaled))
        s = small.argmax(axis=1)
        l = large.argmax(axis=1)
        kept = scaled[row, s]
        cell = pos[row, s]
        alias_prob[cell] = kept
        alias_idx[cell] = l
        small[row, s] = False
        rest = scaled[row, l] - (1.0 - kept)
        scaled[row, l] = rest
        shrunk = rest < 1.0
        small[row, l] = shrunk
        large[row, l] = ~shrunk


def _stack_row(cum, lo: int, hi: int, alias_prob, alias_idx) -> None:
    """The long-row pairing as first written: one list loop a row."""
    alias_prob[lo:hi] = 1.0
    alias_idx[lo:hi] = np.arange(hi - lo)
    row = np.diff(cum[lo:hi], prepend=0.0)
    total = float(cum[hi - 1])
    if float(row.min()) == float(row.max()) or total <= 0.0:
        return
    deg = hi - lo
    scaled = (row / total * deg).tolist()
    small, large = [], []
    for i, q in enumerate(scaled):
        (small if q < 1.0 else large).append(i)
    prob = [1.0] * deg
    alias = list(range(deg))
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    alias_prob[lo:hi] = prob
    alias_idx[lo:hi] = alias


def _reference_alias(cum, start, length, alias_prob, alias_idx) -> None:
    """:func:`build_alias` as first written: the oracle of its bits."""
    short = length <= ROW_PAD
    if short.any():
        _padded_short_rows(cum, start[short], length[short], alias_prob, alias_idx)
    long = ~short
    for lo, m in zip(start[long].tolist(), length[long].tolist()):
        _stack_row(cum, lo, lo + m, alias_prob, alias_idx)


def _arena(rows, gap: int = 0):
    """``rows`` (weight sequences) as cumulative rows of one arena, each
    after ``gap`` NaN cells, with one more at the end: cells no builder
    may read or write."""
    length = np.asarray([len(row) for row in rows], dtype=np.int64)
    start = np.cumsum(length + gap) - length
    cum = np.full(int(start[-1] + length[-1]) + 1, np.nan)
    for row, lo in zip(rows, start.tolist()):
        cum[lo : lo + len(row)] = np.cumsum(row)
    return cum, start, length


def _assert_reference_tables(rows, gap: int = 0) -> None:
    """``build_alias`` writes the reference's bits, and nothing else."""
    cum, start, length = _arena(rows, gap)
    tables = []
    for build in (build_alias, _reference_alias):
        prob = np.full(cum.size, np.nan)
        idx = np.full(cum.size, 0xEEEE, dtype=np.uint32)  # the image's width
        build(cum, start, length, prob, idx)
        tables.append((prob.view(np.int64), idx))
    (prob, idx), (expected_prob, expected_idx) = tables
    assert np.array_equal(prob, expected_prob)
    assert np.array_equal(idx, expected_idx)


def _training_rows(sources: int, seed: int = 0):
    """Rows shaped like the e2e ``train_frozen`` graph: source ``r`` has
    ``max(8, 2000 // (r + 1))`` edges, weights in eighths."""
    degree = np.maximum(8, 2000 // np.arange(1, sources + 1))
    weights = np.random.default_rng(seed).integers(1, 64, int(degree.sum())) / 8.0
    return np.split(weights, np.cumsum(degree)[:-1])


_EIGHTHS = st.integers(min_value=0, max_value=64).map(lambda v: v / 8.0)
_DENORMAL = st.integers(min_value=0, max_value=64).map(lambda v: v * 5e-324)
_HUGE = st.floats(min_value=0.0, max_value=1e300)
_ORACLE_ROW = st.one_of(
    st.lists(_EIGHTHS, max_size=ROW_PAD),  # zero weights, empty rows
    st.lists(_DENORMAL, max_size=ROW_PAD),  # denormal totals
    st.lists(_HUGE, max_size=ROW_PAD),  # 1e300-scale totals
    st.builds(  # equal weights; all-zero rows
        lambda w, n: [w] * n,
        st.one_of(_EIGHTHS, _DENORMAL, _HUGE), st.integers(1, ROW_PAD),
    ),
    st.lists(_EIGHTHS, min_size=ROW_PAD + 1, max_size=3 * ROW_PAD),
    st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=ROW_PAD + 1, max_size=60
    ),
)


class TestAliasBuilderBits:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ORACLE_ROW, min_size=1, max_size=30), st.integers(0, 3))
    def test_tables_match_the_reference_bit_for_bit(self, rows, gap):
        _assert_reference_tables(rows, gap)

    def test_a_training_graph_matches_the_reference_bit_for_bit(self):
        _assert_reference_tables(_training_rows(20_000), gap=3)

    def test_the_short_row_compile_makes_a_fixed_number_of_python_calls(self):
        # Every round of the short-row pairing is a few flat numpy passes
        # over the rows still pairing: a build over 20 000 training-shaped
        # rows (up to 16 edges: 15 rounds), over 2 000 of them and over
        # rows of 4 edges (3 rounds) makes the same handful of calls.
        calls = []
        for rows in (
            _training_rows(20_000), _training_rows(2_000),
            [row[:4] for row in _training_rows(2_000)],
        ):
            cum, start, length = _arena([row for row in rows if len(row) <= ROW_PAD])
            prob, idx = np.zeros(cum.size), np.zeros(cum.size, dtype=np.uint8)
            calls.append(
                python_calls(lambda: build_alias(cum, start, length, prob, idx))
            )
        assert calls[0] == calls[1] == calls[2] <= 12  # 10 with numpy 2.4


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
            lambda: store.update_edge(1, 2, 3.0),
            lambda: store.remove_edge(1, 2),
            lambda: store.apply_source_batch(1, 0, [9], [OP_INSERT], [1.0]),
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
        assert stats.compiled_rows == store.num_sources
        # Only the samtrees were flattened: slab rows alias in place.
        assert builds == len(store.directory.trees) < store.num_sources
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
                if (type(store.directory.get(0, s)) is not int) == promoted
            )
            store.check_invariants()
            slot = image.slot_of[src]
            row = image.slab_row.item(slot)  # the table's home
            assert bool(row) != promoted
            home, at = (store.slab, row) if row else (image, slot)
            a = int(home.start[at])
            b = a + int(home.length[at])
            home.alias_prob[a:b] = 0.5  # half of every cell's mass ...
            home.alias_idx[a:b] = 0  # ... moved onto the first edge
            assert store.snapshot_cache.stale_rows(
                store.directory, store.slab
            ) == [(0, src)]
            with pytest.raises(InvariantViolationError):
                store.check_invariants()
            image.aliased[slot] = False  # a binary-search row has no table
            store.check_invariants()

    @pytest.mark.parametrize("promoted", [True, False])
    def test_an_out_of_row_alias_cell_is_stale_not_a_crash(self, promoted):
        """A cell naming an offset past its row — its length, or the
        previous row's last edge (offset -1, wrapped by the unsigned
        column) — would draw a non-neighbour: the checker calls the row
        stale, in the arena and in the slab, and raises nothing else."""
        store = _churned_store()
        (image,) = store.freeze()
        src = next(
            s for s in store.sources()
            if (type(store.directory.get(0, s)) is not int) == promoted
        )
        slot = image.slot_of[src]
        row = image.slab_row.item(slot)
        home, at = (store.slab, row) if row else (image, slot)
        a = int(home.start[at])
        cell = home.alias_idx[a]
        for bad in (int(home.length[at]), np.iinfo(home.alias_idx.dtype).max):
            home.alias_idx[a] = bad
            assert store.snapshot_cache.stale_rows(
                store.directory, store.slab
            ) == [(0, src)]
            with pytest.raises(InvariantViolationError):
                store.check_invariants()
        home.alias_idx[a] = cell
        store.check_invariants()


# ---------------------------------------------------------------------------
# alias tables held in the slab
# ---------------------------------------------------------------------------
def _slab_store(sources: int = 40, capacity: int = 16) -> DynamicGraphStore:
    """A store whose every source is a slab row (``degree <= c``)."""
    rng = random.Random(5)
    store = DynamicGraphStore(SamtreeConfig(capacity=capacity, alpha=0))
    for src in range(sources):
        for i in range(rng.randrange(1, capacity + 1)):
            store.add_edge(src, 1000 + i, rng.random() + (i % 3))
    assert not store.directory.trees
    return store


def _slab_table_mass(store, image, src):
    """``(alias mass, weights)`` of ``src``'s aliased row, read in the slab."""
    slot = image.slot_of[src]
    assert image.clean[slot] and image.aliased[slot]
    slab, row = store.slab, image.slab_row.item(slot)
    assert row == store.directory.get(0, src)
    a = slab.start.item(row)
    b = a + slab.length.item(row)
    return alias_mass(slab.alias_prob, slab.alias_idx, a, b), slab.weights[a:b]


class TestSlabAliasTables:
    def test_freezing_slab_rows_flattens_nothing(self):
        store = _slab_store()
        cache = store.snapshot_cache
        store.sample_neighbors_many(range(0, 40, 2), 3, rng=0)  # half admitted
        builds = cache.stats.builds
        (image,) = store.freeze()
        assert cache.stats.builds == builds and image.used == 0
        parts = store.nbytes_breakdown()
        assert parts["snapshot_cache"] == 0
        assert parts["frozen"] == (4 + 1) * store.num_edges  # c = 16: uint8
        store.sample_neighbors_many(range(40), 5, rng=1)
        assert store.frozen_stats.vertices == 40
        assert store.frozen_stats.stale_misses == 0
        store.check_invariants()
        assert store.thaw() == 1 and store.slab.alias_prob is None
        assert store.nbytes_breakdown()["frozen"] == 0

    def test_tables_follow_rows_the_slab_moves(self, monkeypatch):
        store = _slab_store()
        (image,) = store.freeze()
        slab = store.slab
        rows = [store.directory.get(0, src) for src in range(40)]
        starts = slab.start[rows].copy()
        compactions = []
        compact = Slab.compact
        monkeypatch.setattr(
            Slab, "compact", lambda self: compactions.append(1) or compact(self)
        )
        # Other sources grow (relocate) and leave: garbage, then compaction.
        for src in range(100, 260):
            for dst in range(12):
                store.add_edge(src, dst, 1.0 + dst)
        store.apply_edge_batch(EdgeBatch.inserts(
            np.repeat(np.arange(100, 260), 3), np.tile([20, 21, 22], 160)
        ))
        for src in range(100, 260):
            for dst, _ in store.neighbors(src):
                store.remove_edge(src, dst)
        assert compactions and (slab.start[rows] != starts).any()
        assert (0, 5) in store.snapshot_cache  # no frozen row was written
        for src in range(40):
            mass, weights = _slab_table_mass(store, image, src)
            wanted = weights / weights.sum()
            assert np.abs(mass - wanted).max() <= ALIAS_TOLERANCE
        store.check_invariants()
        hub = max(range(40), key=store.degree)
        adjacency = dict(store.neighbors(hub))
        support = sorted(adjacency)
        total = sum(adjacency.values())
        draws = store.sample_neighbors_many([hub] * 3000, 20, rng=11).ids
        assert store.frozen_stats.stale_misses == 0
        counts = np.asarray([np.count_nonzero(draws == d) for d in support])
        expected = np.asarray([draws.size * adjacency[d] / total for d in support])
        assert _chi2_pvalue(counts, expected) > 0.01

    def test_a_batch_dirties_only_the_aliased_rows_it_writes(self):
        store = _slab_store()
        store.freeze()
        cache = store.snapshot_cache
        # One touched row (the scalar row op), then one among 20 new
        # sources (the round kernel).
        for written, batch in (
            ({3}, EdgeBatch.inserts([3], [5000])),
            ({3, 7}, EdgeBatch.inserts([7] + list(range(200, 220)), [6000] * 21)),
        ):
            store.apply_edge_batch(batch)
            assert {src for src in range(40) if (0, src) not in cache} == written
            store.check_invariants()
        block = store.sample_neighbors_many([3, 7, 8], 50, rng=2)
        assert 5000 in block.ids[0] and 6000 in block.ids[1]
        assert store.frozen_stats.stale_misses == 2


class TestAliasCellWidth:
    """``alias_idx`` holds row offsets, as narrow as the home allows:
    the smallest unsigned type holding ``c - 1`` in the slab, ``uint32``
    in the image's arena."""

    @pytest.mark.parametrize("capacity, dtype", [
        (16, np.uint8), (256, np.uint8), (257, np.uint16), (512, np.uint16),
    ])
    def test_slab_width_follows_the_capacity(self, capacity, dtype):
        store = DynamicGraphStore(SamtreeConfig(capacity=capacity))
        for src in range(4):
            store.add_edge(src, 100 + src, 1.0 + src)
        (image,) = store.freeze()
        assert store.slab.alias_idx.dtype == dtype
        assert image.alias_idx.dtype == np.uint32

    def test_a_full_row_of_256_draws_its_weights_through_one_byte(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=256, alpha=0))
        weights = [1.0 + i % 5 for i in range(255)] + [600.0]
        for i, w in enumerate(weights):  # a full slab row, its last edge
            store.add_edge(1, 1000 + i, w)  # the one large cell
        for i in range(300):  # a samtree: its table is in the arena
            store.add_edge(2, 1000 + i, 1.0 + i % 7)
        for src in range(3, 10):
            for i in range(src):
                store.add_edge(src, 1000 + i, 1.0 + i)
        (image,) = store.freeze()
        slab = store.slab
        assert slab.alias_idx.dtype == np.uint8
        assert image.alias_idx.dtype == np.uint32
        row = store.directory.get(0, 1)
        a = slab.start.item(row)
        b = a + slab.length.item(row)
        assert b - a == 256 and slab.alias_idx[b - 1] == 255
        store.check_invariants()
        draws = store.sample_neighbors_many([1] * 3000, 20, rng=3).ids
        assert store.frozen_stats.vertices == 3000
        assert store.frozen_stats.stale_misses == 0
        counts = np.bincount(draws.ravel() - 1000, minlength=256)
        expected = draws.size * np.asarray(weights) / sum(weights)
        assert _chi2_pvalue(counts, expected) > 0.01
        # Each home is charged a 4-byte probability + its own offset width.
        slab_edges = store.num_edges - 300
        assert image.used == 300
        assert store.nbytes_breakdown()["frozen"] == (
            (4 + 1) * slab_edges + (4 + 4) * image.used
        )


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
            store_factory=PlatoGLStore
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
        assert type(store.directory.get(0, 0)) is not int  # a samtree
        # Arena slots hold samtrees only: slab rows are drawn in place.
        in_trees = sum(tree.degree for tree in store.directory.trees.values())
        store.add_edge(0, 31337, 1.0)
        image = diagnose_store(store).to_dict()["snapshot_cache"]
        assert image["rows"] == rows
        # The written row is dirty: its arena slots are nobody's.
        assert image["entries"] == image["aliased"] == rows - 1
        assert image["pinned"] == rows - 1
        assert image["edges"] == in_trees - degree
        assert image["garbage"] == degree
        store.sample_neighbors_many([0, 1, 10**8], 2, rng=0)
        report = diagnose_store(store)
        image = report.to_dict()["snapshot_cache"]
        assert image["rows"] == rows + 1  # every source and one sink
        assert image["entries"] == image["pinned"] == rows + 1
        assert image["aliased"] == rows  # all but the re-flattened row
        assert image["edges"] == in_trees + 1
        assert image["alias_served"] == 2 and image["alias_missed"] == 1
        assert "frozen" not in report.to_dict()
        assert report.total_bytes == store.nbytes()
        assert f"aliased={rows}" in report.render()
        reg = report.to_registry().snapshot().to_dict()["scalars"]
        assert reg["repro_doctor_snapshot_cache_aliased"] == rows
