"""Tests for the batched read path: the row-granular read image.

* chi-square distribution equivalence — image draws (both draw loops)
  and the exact ITS/FTS descent sample the *same* distribution, on
  skewed weights and after interleaved churn;
* coherence — each of the store's six mutation entry points sets the
  dirty bit of the row it writes, and the next batched read serves the
  tree's current adjacency;
* compaction is the only eviction: clean read rows survive it bit for
  bit, rows that went unread are dropped (``test_touch_refreshes_recency``)
  and re-admitted on their next read, ``capacity_bytes`` is respected;
* seed reproducibility of both draw loops.

Class names predate the image (they keep the test ids stable):
``TestTreeSnapshot`` checks single rows, ``TestCacheInvalidation`` the
dirty bit, ``TestLRUEviction`` the byte budget.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.memory import DEFAULT_MEMORY_MODEL
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.snapshot import (
    GARBAGE_DIVISOR,
    KEEP_IDLE,
    ROW_LOOP_BELOW,
    ReadImage,
    coerce_generator,
    coerce_scalar_rng,
    flatten_tree,
)
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError, InvariantViolationError
from repro.storage.cuckoo import PROBE_LOOP_BELOW
from tests.conftest import tree_batch

try:  # scipy is part of the baked toolchain, but degrade gracefully.
    from scipy import stats as _scipy_stats
except ImportError:  # pragma: no cover
    _scipy_stats = None

SLOT_BYTES = DEFAULT_MEMORY_MODEL.id_bytes + DEFAULT_MEMORY_MODEL.weight_bytes
#: Sources no test gives edges to: padding that lifts a frontier over
#: the cut between the two draw loops.
PADDING = list(range(10_000, 10_000 + ROW_LOOP_BELOW))


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


def _skewed_store(n: int = 40, src: int = 7) -> DynamicGraphStore:
    store = DynamicGraphStore(SamtreeConfig(capacity=8, alpha=0))
    for i in range(n):
        store.add_edge(src, 100 + i, (i + 1) ** 1.8)
    return store


def _draws(store, src, n, seed, wide, **kwargs):
    """``n`` draws for ``src`` through the row loop (``wide=False``) or
    the frontier kernel (``wide=True``: one call of ``n/4`` rows)."""
    if wide:
        assert n // 4 >= ROW_LOOP_BELOW
        block = store.sample_neighbors_many([src] * (n // 4), 4, seed, **kwargs)
    else:
        block = store.sample_neighbors_many([src], n, seed, **kwargs)
    assert not block.state.any()
    return block.ids.reshape(-1).tolist()


BOTH_LOOPS = pytest.mark.parametrize("wide", [False, True], ids=["rows", "frontier"])


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------
class TestRNGHelpers:
    def test_int_seed_is_deterministic(self):
        a = coerce_scalar_rng(7).random()
        b = coerce_scalar_rng(7).random()
        assert a == b
        ga = coerce_generator(7).random()
        gb = coerce_generator(7).random()
        assert ga == gb

    def test_passthrough(self):
        r = random.Random(1)
        assert coerce_scalar_rng(r) is r
        g = np.random.default_rng(1)
        assert coerce_generator(g) is g
        assert coerce_scalar_rng(None) is None

    def test_cross_coercion_is_deterministic(self):
        # Generator -> Random and Random -> Generator are pure functions
        # of the source state.
        a = coerce_scalar_rng(np.random.default_rng(3)).random()
        b = coerce_scalar_rng(np.random.default_rng(3)).random()
        assert a == b
        c = coerce_generator(random.Random(3)).random()
        d = coerce_generator(random.Random(3)).random()
        assert c == d

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            coerce_scalar_rng("not an rng")
        with pytest.raises(ConfigurationError):
            coerce_generator(3.14)


# ---------------------------------------------------------------------------
# single rows
# ---------------------------------------------------------------------------
class TestTreeSnapshot:
    def test_from_tree_matches_tree_contents(self):
        store = _skewed_store(25)
        store.sample_neighbors_many([7], 1, rng=0)
        ids, cum = store.snapshot_cache.row((0, 7))
        tree = store.tree(7)
        flat_ids, flat_weights = flatten_tree(tree)
        assert ids.size == tree.degree == 25
        assert np.array_equal(ids, flat_ids)
        assert np.array_equal(cum, np.cumsum(flat_weights))
        assert cum[-1] == pytest.approx(tree.total_weight)

    def test_membership_of_draws(self):
        store = _skewed_store(30)
        valid = {v for v, _ in store.neighbors(7)}
        for wide in (False, True):
            assert set(_draws(store, 7, 256, 3, wide)) <= valid
            assert set(_draws(store, 7, 256, 3, wide, weighted=False)) <= valid

    def test_zero_weight_neighbor_never_sampled(self):
        store = DynamicGraphStore()
        for dst, w in ((1, 1.0), (2, 0.0), (3, 1.0)):
            store.add_edge(7, dst, w)
        for wide in (False, True):
            assert set(_draws(store, 7, 4000, 5, wide)) == {1, 3}

    def test_all_zero_weights_fall_back_to_uniform(self):
        store = DynamicGraphStore()
        store.add_edge(7, 5, 0.0)
        store.add_edge(7, 6, 0.0)
        for wide in (False, True):
            assert set(_draws(store, 7, 512, 5, wide)) == {5, 6}

    def test_negative_shape_rejected(self):
        for store in (_skewed_store(4), DynamicGraphStore(snapshot_cache=None)):
            with pytest.raises(ConfigurationError):
                store.sample_neighbors_many([7], -1, rng=0)

    def test_nbytes_uses_memory_model(self):
        store = _skewed_store(10)
        store.sample_neighbors_many([7], 2, rng=0)
        assert store.snapshot_cache.nbytes == 10 * SLOT_BYTES
        assert store.nbytes_breakdown()["snapshot_cache"] == 10 * SLOT_BYTES


# ---------------------------------------------------------------------------
# distribution equivalence (acceptance criterion: p > 0.01)
# ---------------------------------------------------------------------------
def _frequencies(draws, ids):
    index = {v: i for i, v in enumerate(ids)}
    counts = np.zeros(len(ids), dtype=np.int64)
    for d in draws:
        counts[index[int(d)]] += 1
    return counts


class TestDistributionEquivalence:
    N_DRAWS = 60_000

    def test_snapshot_matches_exact_on_skewed_weights(self):
        store = _skewed_store(24)
        tree = store.tree(7)
        ids = [v for v, _ in tree.items()]
        weights = np.array([w for _, w in tree.items()], dtype=np.float64)
        expected = self.N_DRAWS * weights / weights.sum()

        # Every read path must be indistinguishable from the analytic
        # weighted distribution: both image draw loops and the descent.
        paths = {
            "image rows": _draws(store, 7, self.N_DRAWS, 11, False),
            "image frontier": _draws(store, 7, self.N_DRAWS, 11, True),
            "exact": tree.sample_many(self.N_DRAWS, random.Random(11)),
        }
        for name, draws in paths.items():
            p = _chi2_pvalue(_frequencies(draws, ids), expected)
            assert p > 0.01, f"{name} path diverges (p={p:.4g})"

    def test_store_batched_path_matches_weights(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=8, alpha=0))
        weights = {10: 1.0, 11: 4.0, 12: 15.0, 13: 40.0}
        for dst, w in weights.items():
            store.add_edge(1, dst, w)
        n = 20_000
        rows = store.sample_neighbors_many([1] * 40, n // 40, rng=5).rows()
        draws = [int(v) for row in rows for v in row]
        ids = sorted(weights)
        total = sum(weights.values())
        expected = [n * weights[v] / total for v in ids]
        p = _chi2_pvalue(_frequencies(draws, ids), expected)
        assert p > 0.01, f"store batched path diverges (p={p:.4g})"

    def test_uniform_batched_path_is_uniform(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=8, alpha=0))
        for dst in range(20, 28):
            store.add_edge(2, dst, float(dst))  # skewed weights, ignored
        n = 16_000
        rows = store.sample_neighbors_many(
            [2] * 16, n // 16, rng=9, weighted=False
        ).rows()
        draws = [int(v) for row in rows for v in row]
        ids = list(range(20, 28))
        p = _chi2_pvalue(_frequencies(draws, ids), [n / len(ids)] * len(ids))
        assert p > 0.01, f"uniform batched path diverges (p={p:.4g})"


class TestChurnEquivalence:
    """Fixed-seed chi-square of image draws against the descent-only
    store after interleaved churn, reads and compactions."""

    HUB, ZERO_EDGE, ALL_ZERO, LONER, REBORN = 1, 2, 3, 4, 5
    COLD = list(range(20, 28))

    def _churned(self, cache: bool) -> DynamicGraphStore:
        store = DynamicGraphStore(
            SamtreeConfig(capacity=8, alpha=0),
            **({} if cache else {"snapshot_cache": None}),
        )
        rng = random.Random(2)
        frontier = [self.HUB, self.ZERO_EDGE, self.ALL_ZERO, self.LONER,
                    self.REBORN]
        for dst in range(60):  # a multi-leaf hub
            store.add_edge(self.HUB, 100 + dst, 0.5 + rng.random() * 9)
        for dst, w in ((1, 2.0), (2, 0.0), (3, 5.0), (4, 0.0)):
            store.add_edge(self.ZERO_EDGE, dst, w)
        for dst in (7, 8, 9):
            store.add_edge(self.ALL_ZERO, dst, 0.0)
        store.add_edge(self.LONER, 77, 3.0)  # degree-1 rows
        store.add_edge(self.REBORN, 50, 1.0)
        for src in self.COLD:
            store.add_edge(src, 5, 1.0)
            store.add_edge(src, 6, 2.0)
        # Every row, the cold ones included, enters the image.
        store.sample_neighbors_many(frontier + self.COLD + PADDING, 3, rng=0)
        for step in range(12):  # churn beside small and wide reads
            store.update_edge(self.HUB, 100 + step, 1.0 + step)
            store.accumulate_edge(self.HUB, 300 + step, 0.25)
            store.remove_edge(self.HUB, 130 + step)
            store.apply_source_batch(
                self.ZERO_EDGE, 0, [("update", 3, 5.0 + step)]
            )
            store.apply_edge_batch(EdgeBatch(
                [self.HUB, self.LONER], [400 + step, 77], [2.0, 3.0 + step],
                None, [OP_INSERT, OP_UPDATE],
            ))
            reads = frontier if step % 2 else frontier + PADDING
            store.sample_neighbors_many(reads, 2, rng=step)
        # The tree leaves the directory and is re-created.
        store.remove_edge(self.REBORN, 50)
        store.sample_neighbors_many([self.REBORN], 2, rng=1)
        store.add_edge(self.REBORN, 51, 1.0)
        store.add_edge(self.REBORN, 52, 3.0)
        if cache:
            # The cold rows sat unread through every compaction: gone.
            for _ in range(KEEP_IDLE + 1):
                store.snapshot_cache.compact()
            assert store.snapshot_cache.stats.evictions >= len(self.COLD)
            assert (0, self.COLD[0]) not in store.snapshot_cache
        return store

    @pytest.mark.parametrize("weighted", [True, False])
    @BOTH_LOOPS
    def test_image_matches_descent_after_churn(self, wide, weighted):
        image, exact = self._churned(True), self._churned(False)
        n = 12_000
        for src in (self.HUB, self.ZERO_EDGE, self.ALL_ZERO, self.LONER,
                    self.REBORN, self.COLD[0]):
            adjacency = dict(exact.neighbors(src))
            assert dict(image.neighbors(src)) == adjacency
            flat = not weighted or not any(adjacency.values())
            support = sorted(
                d for d, w in adjacency.items() if flat or w > 0.0
            )
            got = _draws(image, src, n, 17, wide, weighted=weighted)
            want = _draws(exact, src, n, 18, False, weighted=weighted)
            assert set(got) <= set(support) and set(want) <= set(support)
            if len(support) == 1:
                continue
            mass = np.asarray(
                [1.0 if flat else adjacency[d] for d in support]
            )
            expected = n * mass / mass.sum()
            for name, draws in (("image", got), ("descent", want)):
                p = _chi2_pvalue(_frequencies(draws, support), expected)
                assert p > 0.01, f"{name} diverges on {src} (p={p:.4g})"
        image.check_invariants()


# ---------------------------------------------------------------------------
# version counters: every mutation path bumps the epoch
# ---------------------------------------------------------------------------
class TestVersionCounter:
    def test_insert_update_delete_bump(self):
        tree = Samtree(SamtreeConfig(capacity=8))
        v0 = tree.version
        tree.insert(1, 1.0)
        assert tree.version > v0
        v1 = tree.version
        tree.insert(1, 2.0)  # weight update through the same upsert
        assert tree.version > v1
        v2 = tree.version
        tree.delete(1)
        assert tree.version > v2

    def test_failed_delete_does_not_bump(self):
        tree = Samtree(SamtreeConfig(capacity=8))
        tree.insert(1, 1.0)
        v = tree.version
        assert not tree.delete(99)
        assert tree.version == v

    def test_tree_batch_bumps(self):
        tree = Samtree(SamtreeConfig(capacity=8))
        for i in range(6):
            tree.insert(i, 1.0)
        v = tree.version
        tree_batch(
            tree,
            [("insert", 10, 2.0), ("delete", 0, 0.0), ("update", 1, 9.0)],
        )
        assert tree.version > v

    def test_store_mutations_bump_through_every_path(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=8))
        store.add_edge(1, 2, 1.0)
        tree = store.tree(1)
        checkpoints = [tree.version]

        store.add_edge(1, 3, 1.0)
        checkpoints.append(tree.version)
        store.update_edge(1, 2, 5.0)
        checkpoints.append(tree.version)
        store.accumulate_edge(1, 3, 1.0)
        checkpoints.append(tree.version)
        store.apply_source_batch(1, 0, [("insert", 4, 1.0)])
        checkpoints.append(tree.version)
        store.remove_edge(1, 4)
        checkpoints.append(tree.version)

        # Strictly increasing at every step.
        assert all(b > a for a, b in zip(checkpoints, checkpoints[1:]))


# ---------------------------------------------------------------------------
# the dirty bit: coherence under interleaved update/sample
# ---------------------------------------------------------------------------
MUTATIONS = {
    "add_edge": lambda s: s.add_edge(7, 500, 100.0),
    "accumulate_edge": lambda s: s.accumulate_edge(7, 101, 100.0),
    "update_edge": lambda s: s.update_edge(7, 101, 100.0),
    "remove_edge": lambda s: s.remove_edge(7, 100),
    "apply_source_batch": lambda s: s.apply_source_batch(
        7, 0, [("delete", 100, 0.0), ("insert", 500, 100.0)]
    ),
    "apply_edge_batch": lambda s: s.apply_edge_batch(
        EdgeBatch([7, 7], [100, 500], [0.0, 100.0], None, [OP_DELETE, OP_INSERT])
    ),
}


class TestCacheInvalidation:
    def _warm_store(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=8, alpha=0))
        for dst in range(100, 130):
            store.add_edge(7, dst, 1.0)
        for dst in range(4):
            store.add_edge(8, dst, 1.0)
        # First batched read flattens the rows.
        store.sample_neighbors_many([7, 8] * 2, 8, rng=1)
        cache = store.snapshot_cache
        assert (0, 7) in cache and (0, 8) in cache
        assert cache.stats.builds == 2
        return store, cache

    @pytest.mark.parametrize("entry", sorted(MUTATIONS))
    @BOTH_LOOPS
    def test_every_entry_point_sets_the_dirty_bit(self, entry, wide):
        store, cache = self._warm_store()
        MUTATIONS[entry](store)
        # Dirty at once, before any read; the untouched row stays clean.
        assert (0, 7) not in cache and (0, 8) in cache
        builds = cache.stats.builds
        frontier = [7] * 4 + (PADDING if wide else [])
        store.sample_neighbors_many(frontier, 4, rng=2)
        # Re-flattened on the next read, to the tree's current state.
        assert cache.stats.builds == builds + 1
        assert cache.stats.invalidations == 1
        ids, cum = cache.row((0, 7))
        flat_ids, flat_weights = flatten_tree(store.tree(7))
        assert np.array_equal(ids, flat_ids)
        assert np.array_equal(cum, np.cumsum(flat_weights))
        store.check_invariants()

    def test_single_edge_mutation_invalidates(self):
        store, cache = self._warm_store()
        store.remove_edge(7, 100)
        rows = store.sample_neighbors_many([7] * 6, 64, rng=2).rows()
        assert cache.stats.invalidations == 1
        assert (0, 7) in cache
        drawn = {int(v) for row in rows for v in row}
        assert 100 not in drawn  # deleted neighbor can never be sampled

    def test_tree_batch_mutation_invalidates(self):
        store, cache = self._warm_store()
        store.apply_source_batch(
            7, 0, [("delete", 100, 0.0), ("insert", 500, 100.0)]
        )
        rows = store.sample_neighbors_many([7] * 4, 128, rng=5).rows()
        assert cache.stats.invalidations == 1
        drawn = {int(v) for row in rows for v in row}
        assert 100 not in drawn
        assert 500 in drawn  # dominant new neighbor shows up immediately

    def test_uniform_path_shares_coherence(self):
        store, cache = self._warm_store()
        store.remove_edge(7, 129)
        rows = store.sample_neighbors_many(
            [7] * 4, 64, rng=6, weighted=False
        ).rows()
        drawn = {int(v) for row in rows for v in row}
        assert 129 not in drawn

    @BOTH_LOOPS
    def test_recreated_source_never_sees_its_predecessor(self, wide):
        store, cache = self._warm_store()
        for dst in range(4):
            store.remove_edge(8, dst)  # the tree leaves the directory
        frontier = [8] * 3 + (PADDING if wide else [])
        assert store.sample_neighbors_many(frontier, 4, rng=1).state[:3].all()
        store.add_edge(8, 900, 1.0)
        block = store.sample_neighbors_many(frontier, 4, rng=1)
        assert not block.state[:3].any()
        assert set(block.ids[:3].reshape(-1).tolist()) == {900}

    @pytest.mark.parametrize("leave", ["promote", "release"])
    @BOTH_LOOPS
    def test_reused_slab_row_is_never_read_by_its_old_source(self, leave, wide):
        """Source 8 is read in place from slab row ``r``; it then leaves
        ``r`` (promoted to a samtree, or emptied) and source 55 is given
        ``r``.  8's pointer slot is dirty, so its next read re-probes and
        never draws 55's edges, and 55 draws only its own."""
        store, cache = self._warm_store()
        image = cache.relations[0]
        row = store.directory.get((0, 8))
        assert image.slab_row[image.slot_of[8]] == row
        if leave == "promote":
            for dst in range(4, 9):
                store.add_edge(8, dst, 1.0)
            assert isinstance(store.tree(8), Samtree)
            mine = set(range(9))
        else:
            for dst in range(4):
                store.remove_edge(8, dst)
            mine = set()
        store.add_edge(55, 5000, 1.0)
        store.add_edge(55, 5001, 1.0)
        assert store.directory.get((0, 55)) == row  # the released row, reused
        assert (0, 8) not in cache
        slot = image.slot_of[8]
        image.clean[slot] = True  # as if a write had not set the dirty bit
        assert cache.stale_rows(store.directory, store.slab) == [(0, 8)]
        image.clean[slot] = False
        frontier = [8] * 3 + [55] * 3 + (PADDING if wide else [])
        block = store.sample_neighbors_many(frontier, 16, rng=3)
        assert block.state[:3].all() == (not mine)
        assert set(block.ids[:3].reshape(-1).tolist()) <= (mine or {0})
        assert set(block.ids[3:6].reshape(-1).tolist()) <= {5000, 5001}
        assert (image.slab_row[image.slot_of[8]] == 0) and (
            image.slab_row[image.slot_of[55]] == row
        )
        assert cache.stale_rows(store.directory, store.slab) == []
        store.check_invariants()

    @pytest.mark.parametrize("leave", ["promote", "rewrite"])
    @BOTH_LOOPS
    def test_batch_that_moves_a_slab_source_dirties_its_pointer(self, leave, wide):
        """A dense batch group rebuilds source 8 — into a samtree, or
        into a fresh slab row — so its pointer slot is dirty before the
        next read, which draws only the new adjacency."""
        store, cache = self._warm_store()
        if leave == "promote":
            dst = list(range(20, 36))
            op = [OP_INSERT] * 16
            mine = set(range(4)) | set(dst)
        else:  # four real deletes, twelve no-ops, two inserts
            dst = list(range(16)) + [40, 41]
            op = [OP_DELETE] * 16 + [OP_INSERT] * 2
            mine = {40, 41}
        store.apply_edge_batch(EdgeBatch([8] * len(dst), dst, [1.0] * len(dst), op=op))
        assert isinstance(store.tree(8), Samtree) == (leave == "promote")
        assert (0, 8) not in cache
        frontier = [8] * 3 + (PADDING if wide else [])
        block = store.sample_neighbors_many(frontier, 16, rng=4)
        assert set(block.ids[:3].reshape(-1).tolist()) <= mine
        assert cache.stale_rows(store.directory, store.slab) == []
        store.check_invariants()

    @BOTH_LOOPS
    def test_sink_has_a_row_of_its_own(self, wide):
        """A source with no out-edges is a clean zero-length row: read
        again it is a hit that asks the directory nothing, and a first
        edge dirties it like any row."""
        store, cache = self._warm_store()
        frontier = [4242, 7] + (PADDING if wide else [])
        assert store.sample_neighbors_many(frontier, 3, rng=1).state[0] == 1
        assert (0, 4242) in cache and cache.row((0, 4242))[0].size == 0
        hits, misses = cache.stats.hits, cache.stats.misses
        probes = []
        directory = store.directory
        directory.get = lambda key: probes.append(key)
        try:
            block = store.sample_neighbors_many(frontier, 3, rng=1)
        finally:
            del directory.get
        assert probes == [] and block.state[0] == 1
        assert cache.stats.hits == hits + len(frontier)
        assert cache.stats.misses == misses
        store.check_invariants()
        store.add_edge(4242, 5, 1.0)
        assert (0, 4242) not in cache
        block = store.sample_neighbors_many(frontier, 3, rng=1)
        assert block.state[0] == 0 and block.ids[0].tolist() == [5, 5, 5]
        store.remove_edge(4242, 5)  # ... and a sink again
        assert store.sample_neighbors_many(frontier, 3, rng=1).state[0] == 1
        assert cache.row((0, 4242))[0].size == 0
        store.check_invariants()

    def test_unknown_sources_cannot_pile_up_rows(self):
        """Empty rows bring compactions on like any garbage, and age
        out of the image when they are not read again."""
        store, cache = self._warm_store()
        image = cache.relations[0]
        for junk in range(100_000, 101_000):
            store.sample_neighbors_many([junk, 7], 2, rng=junk)
        assert cache.stats.compactions > 0
        assert image.rows < 200
        assert (0, 7) in cache

    def test_frozen_then_mutated_store_falls_to_the_image(self):
        store, cache = self._warm_store()
        store.freeze()
        store.sample_neighbors_many([7, 8], 4, rng=1)
        assert store.frozen_stats.vertices == 2
        store.remove_edge(7, 100)
        hits = cache.stats.hits
        rows = store.sample_neighbors_many([7] * 4 + [8], 64, rng=2).rows()
        # The written row alone left the alias path, for a re-flattened
        # binary-search row; row 8 was never dirtied.
        assert store.frozen_stats.stale_misses == 4
        assert store.frozen_stats.vertices == 3
        assert cache.stats.hits == hits + 1
        assert 100 not in {int(v) for row in rows[:4] for v in row}

    def test_direct_tree_mutation_is_detected(self):
        store, cache = self._warm_store()
        store.check_invariants()
        assert store.tree(7).height > 1  # source 7 outgrew c: a samtree
        store.tree(7).insert(999, 5.0)  # behind the store's back
        assert cache.stale_rows(store.directory, store.slab) == [(0, 7)]
        with pytest.raises(InvariantViolationError):
            store.check_invariants()

    @pytest.mark.parametrize("column", ["ids", "weights"])
    def test_direct_slab_mutation_is_detected(self, column):
        """A slab row is read in place: a row op run on the slab behind
        the store's back is what the next draw reads, a scribble that
        breaks the row (a duplicate id, a weight without its running
        sum) fails ``check_invariants``, and the pointer goes stale only
        when the directory stops mapping its key to the row."""
        store, cache = self._warm_store()
        slab, row = store.slab, store.directory.get((0, 8))
        assert type(row) is int  # source 8 fits a leaf: a slab row
        slab.apply(row, OP_UPDATE, 2, 1e12)
        assert cache.stale_rows(store.directory, slab) == []
        block = store.sample_neighbors_many([8] * 4, 8, rng=0)
        assert set(block.ids.reshape(-1).tolist()) == {2}
        getattr(slab, column)[slab.start[row]] += 1  # a scribble
        with pytest.raises(InvariantViolationError):
            store.check_invariants()
        getattr(slab, column)[slab.start[row]] -= 1
        store.check_invariants()
        store.add_edge(9, 0, 1.0)
        store.directory.put((0, 8), store.directory.get((0, 9)))
        assert cache.stale_rows(store.directory, slab) == [(0, 8)]

    def test_cache_disabled_store_still_correct(self):
        store = DynamicGraphStore(
            SamtreeConfig(capacity=8), snapshot_cache=None
        )
        for dst in range(5):
            store.add_edge(1, dst, 1.0)
        rows = store.sample_neighbors_many([1, 2, 1], 4, rng=0).rows()
        assert len(rows) == 3
        assert rows[1] == []
        assert all(0 <= int(v) < 5 for v in rows[0])

    def test_explicit_invalidate_and_clear(self):
        store, cache = self._warm_store()
        cache.relations[0].mark(7)  # what every entry point does
        assert (0, 7) not in cache and len(cache) == 1
        store.sample_neighbors_many([7], 2, rng=1)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_store_never_batch_read_holds_no_image(self):
        store = DynamicGraphStore()
        store.bulk_load([1, 1, 2], [5, 6, 7], [1.0, 2.0, 3.0])
        store.update_edge(1, 5, 4.0)
        store.remove_edge(2, 7)
        store.sample_neighbors(1, 4, rng=0)  # scalar reads descend
        assert store.snapshot_cache.relations == {}
        assert store.nbytes_breakdown()["snapshot_cache"] == 0

    @pytest.mark.parametrize("rows", [1, 4, PROBE_LOOP_BELOW, 200])
    def test_admission_is_one_batched_probe_of_its_distinct_sources(self, rows):
        """A stale frontier asks the directory once, for each distinct
        source once; below ``PROBE_LOOP_BELOW`` that one call is the
        scalar loop (a serving admission of 1–4 rows)."""
        store = DynamicGraphStore()
        src = np.repeat(np.arange(300), 2)
        store.bulk_load(src, src % 7 + 1000, 1.0)
        calls = {"get": 0, "get_many": 0}
        probed = []
        directory = store.directory
        get, get_many = directory.get, directory.get_many

        def counted_get(*args):
            calls["get"] += 1
            return get(*args)

        def counted_get_many(keys):
            calls["get_many"] += 1
            probed.extend(keys)
            return get_many(keys)

        directory.get, directory.get_many = counted_get, counted_get_many
        distinct = list(range(rows - 1)) + [5_000]  # one unknown source
        store.sample_neighbors_many(distinct * 2, 3, rng=1)
        scalar = rows if rows < PROBE_LOOP_BELOW else 0
        assert calls == {"get": scalar, "get_many": 1}
        assert probed == [(0, s) for s in distinct]
        store.sample_neighbors_many(distinct, 3, rng=2)  # all clean now
        assert calls == {"get": scalar, "get_many": 1}
        del directory.get, directory.get_many
        store.check_invariants()


# ---------------------------------------------------------------------------
# compaction: the only eviction
# ---------------------------------------------------------------------------
class TestCompaction:
    DEG = 16

    def _store(self, sources: int = 20, **kwargs) -> DynamicGraphStore:
        store = DynamicGraphStore(SamtreeConfig(capacity=8, alpha=0), **kwargs)
        for src in range(sources):
            for dst in range(self.DEG):
                store.add_edge(src, 1000 + dst, 1.0 + dst + src)
        return store

    def test_compaction_preserves_clean_read_rows_bit_for_bit(self):
        store = self._store(80)
        cache = store.snapshot_cache
        everyone = list(range(80))
        store.sample_neighbors_many(everyone, 4, rng=0)
        for src in (0, 2):  # two re-flattened rows: garbage, below 1/32
            store.update_edge(src, 1000, 99.0)
        store.sample_neighbors_many(everyone, 4, rng=1)
        assert cache.stats.compactions == 0
        assert cache.nbytes == 82 * self.DEG * SLOT_BYTES  # garbage counted
        before = {src: cache.row((0, src)) for src in everyone}
        cache.compact()
        assert cache.nbytes == 80 * self.DEG * SLOT_BYTES
        for src, (ids, cum) in before.items():
            got_ids, got_cum = cache.row((0, src))
            assert np.array_equal(got_ids, ids) and np.array_equal(got_cum, cum)
        store.check_invariants()
        # Same seed, same block, before and after a compaction.
        a = store.sample_neighbors_many(everyone, 4, rng=5)
        cache.compact()
        b = store.sample_neighbors_many(everyone, 4, rng=5)
        assert np.array_equal(a.ids, b.ids)

    def test_garbage_triggers_compaction_by_itself(self):
        store = self._store()
        cache = store.snapshot_cache
        store.sample_neighbors_many(list(range(20)), 4, rng=0)
        live = 20 * self.DEG
        rewrites = live // (GARBAGE_DIVISOR * self.DEG) + 1
        for i in range(rewrites):
            store.update_edge(0, 1000, 2.0 + i)
            store.sample_neighbors_many([0], 4, rng=i)
        assert cache.stats.compactions == 1
        assert cache.nbytes == live * SLOT_BYTES
        store.check_invariants()

    def test_capacity_bytes_is_respected(self):
        budget = 4 * self.DEG * SLOT_BYTES
        store = self._store(snapshot_cache=ReadImage(capacity_bytes=budget))
        cache = store.snapshot_cache
        for src in range(10):
            block = store.sample_neighbors_many([src], 4, rng=src)
            assert not block.state.any()
            assert cache.nbytes <= budget
        assert cache.stats.evictions > 0 and cache.stats.compactions > 0
        store.check_invariants()


class TestLRUEviction:
    def test_touch_refreshes_recency(self):
        # A read resets a row's idle count: rows touched in every
        # compaction interval stay, the others are dropped after
        # KEEP_IDLE intervals and re-admitted by their next read.
        store = DynamicGraphStore(SamtreeConfig(capacity=8, alpha=0))
        for src in range(20):
            for dst in range(16):
                store.add_edge(src, 1000 + dst, 1.0 + dst + src)
        cache = store.snapshot_cache
        store.sample_neighbors_many(list(range(20)), 4, rng=0)
        for _ in range(KEEP_IDLE):
            cache.compact()
            assert len(cache) == 20
            store.sample_neighbors_many(list(range(10)), 4, rng=0)  # touch
        cache.compact()
        assert len(cache) == 10 and cache.stats.evictions == 10
        assert (0, 3) in cache and (0, 15) not in cache
        builds = cache.stats.builds
        block = store.sample_neighbors_many([15, 3], 4, rng=0)
        assert not block.state.any()
        assert cache.stats.builds == builds + 1 and (0, 15) in cache
        store.check_invariants()

    def test_oversized_entry_served_uncached(self):
        cache = ReadImage(capacity_bytes=8)  # smaller than any row
        store = DynamicGraphStore(
            SamtreeConfig(capacity=8), snapshot_cache=cache
        )
        for dst in range(12):
            store.add_edge(1, dst, 1.0)
        rows = store.sample_neighbors_many([1] * 3, 5, rng=0).rows()
        assert all(len(r) == 5 for r in rows)
        assert len(cache) == 0 and cache.nbytes == 0

    def test_stats_export(self):
        store = DynamicGraphStore()
        for src in range(2):
            for dst in range(4):
                store.add_edge(src, dst, 1.0)
        cache = store.snapshot_cache
        store.sample_neighbors_many([0, 0, 1], 4, rng=0)
        d = cache.stats.to_dict()
        assert d["builds"] == 2
        assert 0.0 <= d["hit_rate"] <= 1.0
        assert set(d) == {
            "hits", "misses", "builds", "invalidations", "evictions",
            "compactions", "hit_rate",
        }

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ReadImage(capacity_bytes=-1)


# ---------------------------------------------------------------------------
# seed reproducibility of both draw loops
# ---------------------------------------------------------------------------
class TestSeedReproducibility:
    def _build(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=8, alpha=0))
        for src in range(6):
            for dst in range(12):
                store.add_edge(src, 50 + dst, 1.0 + (dst % 4))
        return store

    def test_same_seed_same_batched_samples(self):
        for repeats in (3, 5):  # below and above the draw-loop cut
            frontier = [0, 1, 0, 2, 3, 3, 4, 5] * repeats
            a = self._build().sample_neighbors_many(frontier, 7, rng=1234)
            b = self._build().sample_neighbors_many(frontier, 7, rng=1234)
            assert a.ids.tobytes() == b.ids.tobytes()
            assert a.state.tobytes() == b.state.tobytes()
        assert 8 * 3 < ROW_LOOP_BELOW <= 8 * 5

    def test_same_seed_with_mixed_exact_fallback(self):
        # Some rows are re-flattened by the read, some are served as
        # they are; determinism must survive the mix.
        def run(padding):
            store = self._build()
            store.sample_neighbors_many([0, 1, 2], 4, rng=7)  # warm
            store.update_edge(1, 50, 9.0)  # row 1 -> dirty
            return store.sample_neighbors_many(
                [0, 1, 1, 2] + padding, 5, rng=99
            )

        for padding in ([], PADDING):
            assert run(padding).ids.tobytes() == run(padding).ids.tobytes()

    def test_counts_and_repeats_draw_the_same_rows(self):
        # The coalesced shape (distinct sources + counts) and the plain
        # one address the same image rows with the same uniform block.
        store = self._build()
        plain = store.sample_neighbors_many([0, 0, 0, 1, 2, 2], 5, rng=3)
        grouped = store.sample_neighbors_many(
            [0, 1, 2], 5, rng=3, counts=[3, 1, 2]
        )
        assert np.array_equal(plain.ids, grouped.ids)

    def test_generator_and_random_seeds_accepted(self):
        store = self._build()
        r1 = store.sample_neighbors_many([0, 1], 4, rng=random.Random(5)).rows()
        r2 = store.sample_neighbors_many([0, 1], 4, rng=random.Random(5)).rows()
        assert [[int(v) for v in x] for x in r1] == [
            [int(v) for v in x] for x in r2
        ]
        g1 = store.sample_neighbors_many(
            [0, 1], 4, rng=np.random.default_rng(5)
        ).rows()
        g2 = store.sample_neighbors_many(
            [0, 1], 4, rng=np.random.default_rng(5)
        ).rows()
        assert [[int(v) for v in x] for x in g1] == [
            [int(v) for v in x] for x in g2
        ]
