"""Tests for the batched read path: flat snapshots + the bounded cache.

Covers the PR's acceptance criteria:

* chi-square distribution equivalence — the vectorized snapshot draw and
  the exact ITS/FTS tree descent sample the *same* distribution on
  skewed weights (p > 0.01 for both against the analytic expectation);
* coherence — every mutation path (single-edge insert/update/delete,
  ``accumulate_edge``, ``apply_source_batch`` → PALM tree-batch) bumps
  the samtree version and invalidates the cached snapshot, proven by an
  interleaved update/sample workload;
* LRU eviction under a byte budget, with MRU retention;
* seed reproducibility of the mixed batched/exact read path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.memory import DEFAULT_MEMORY_MODEL
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.snapshot import (
    SnapshotCache,
    TreeSnapshot,
    coerce_generator,
    coerce_scalar_rng,
)
from repro.core.topology import DynamicGraphStore
from repro.core.tree_batch import apply_tree_batch
from repro.errors import ConfigurationError, EmptyStructureError

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


def _skewed_tree(n: int = 40, capacity: int = 8) -> Samtree:
    """A multi-leaf samtree with heavily skewed (power-law-ish) weights."""
    tree = Samtree(SamtreeConfig(capacity=capacity, alpha=0))
    for i in range(n):
        tree.insert(100 + i, (i + 1) ** 1.8)
    return tree


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
# TreeSnapshot
# ---------------------------------------------------------------------------
class TestTreeSnapshot:
    def test_from_tree_matches_tree_contents(self):
        tree = _skewed_tree(25)
        snap = TreeSnapshot.from_tree(tree)
        assert snap.degree == tree.degree == 25
        assert snap.version == tree.version
        assert sorted(snap.neighbor_ids.tolist()) == sorted(
            v for v, _ in tree.items()
        )
        assert snap.total_weight == pytest.approx(tree.total_weight)

    def test_membership_of_draws(self, nprng):
        tree = _skewed_tree(30)
        snap = TreeSnapshot.from_tree(tree)
        valid = {v for v, _ in tree.items()}
        out = snap.sample_matrix(4, 16, nprng)
        assert out.shape == (4, 16)
        assert set(out.reshape(-1).tolist()) <= valid
        uni = snap.sample_uniform_matrix(4, 16, nprng)
        assert set(uni.reshape(-1).tolist()) <= valid

    def test_zero_weight_neighbor_never_sampled(self, nprng):
        snap = TreeSnapshot.from_arrays([1, 2, 3], [1.0, 0.0, 1.0])
        draws = snap.sample(4000, nprng)
        assert 2 not in set(draws.tolist())

    def test_all_zero_weights_fall_back_to_uniform(self, nprng):
        snap = TreeSnapshot.from_arrays([5, 6], [0.0, 0.0])
        draws = set(snap.sample(500, nprng).tolist())
        assert draws == {5, 6}

    def test_empty_snapshot_raises(self, nprng):
        snap = TreeSnapshot.from_arrays([], [])
        with pytest.raises(EmptyStructureError):
            snap.sample(3, nprng)
        with pytest.raises(EmptyStructureError):
            snap.sample_uniform_matrix(1, 3, nprng)

    def test_negative_shape_rejected(self, nprng):
        snap = TreeSnapshot.from_arrays([1], [1.0])
        with pytest.raises(ConfigurationError):
            snap.sample_matrix(-1, 2, nprng)
        with pytest.raises(ConfigurationError):
            snap.sample_uniform_matrix(1, -2, nprng)

    def test_nbytes_uses_memory_model(self):
        snap = TreeSnapshot.from_arrays(range(10), [1.0] * 10)
        model = DEFAULT_MEMORY_MODEL
        assert snap.nbytes(model) == 10 * (model.id_bytes + model.weight_bytes)


# ---------------------------------------------------------------------------
# distribution equivalence (acceptance criterion: p > 0.01)
# ---------------------------------------------------------------------------
class TestDistributionEquivalence:
    N_DRAWS = 60_000

    def _frequencies(self, draws, ids):
        index = {v: i for i, v in enumerate(ids)}
        counts = np.zeros(len(ids), dtype=np.int64)
        for d in draws:
            counts[index[int(d)]] += 1
        return counts

    def test_snapshot_matches_exact_on_skewed_weights(self):
        tree = _skewed_tree(24)
        ids = [v for v, _ in tree.items()]
        weights = np.array([w for _, w in tree.items()], dtype=np.float64)
        expected = self.N_DRAWS * weights / weights.sum()

        snap = TreeSnapshot.from_tree(tree)
        snap_draws = snap.sample(self.N_DRAWS, np.random.default_rng(11))
        exact_draws = tree.sample_many(self.N_DRAWS, random.Random(11))

        p_snap = _chi2_pvalue(self._frequencies(snap_draws, ids), expected)
        p_exact = _chi2_pvalue(self._frequencies(exact_draws, ids), expected)
        # Both read paths must be indistinguishable from the analytic
        # weighted distribution.
        assert p_snap > 0.01, f"snapshot path diverges (p={p_snap:.4g})"
        assert p_exact > 0.01, f"exact path diverges (p={p_exact:.4g})"

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
        observed = self._frequencies(draws, ids)
        p = _chi2_pvalue(observed, expected)
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
        observed = self._frequencies(draws, ids)
        p = _chi2_pvalue(observed, [n / len(ids)] * len(ids))
        assert p > 0.01, f"uniform batched path diverges (p={p:.4g})"


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
        tree.add_weight(1, 0.5)
        assert tree.version > v2
        v3 = tree.version
        tree.delete(1)
        assert tree.version > v3

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
        apply_tree_batch(
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
# cache coherence under interleaved update/sample
# ---------------------------------------------------------------------------
class TestCacheInvalidation:
    def _warm_store(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=8, alpha=0))
        for dst in range(100, 130):
            store.add_edge(7, dst, 1.0)
        # First batched read builds the snapshot.
        store.sample_neighbors_many([7] * 4, 8, rng=1)
        cache = store.snapshot_cache
        assert (0, 7) in cache
        assert cache.stats.builds == 1
        return store, cache

    def test_single_edge_mutation_invalidates(self):
        store, cache = self._warm_store()
        store.remove_edge(7, 100)
        # Post-mutation read: stale entry dropped, exact path serves it.
        rows = store.sample_neighbors_many([7] * 6, 64, rng=2).rows()
        assert cache.stats.invalidations == 1
        assert cache.stats.exact_fallbacks >= 1
        assert (0, 7) not in cache
        drawn = {int(v) for row in rows for v in row}
        assert 100 not in drawn  # deleted neighbor can never be sampled

    def test_probation_then_readmission(self):
        store, cache = self._warm_store()
        store.update_edge(7, 101, 50.0)
        store.sample_neighbors_many([7], 4, rng=3)  # exact (probation)
        builds_before = cache.stats.builds
        store.sample_neighbors_many([7], 4, rng=4)  # quiet read: rebuild
        assert cache.stats.builds == builds_before + 1
        assert (0, 7) in cache
        # Readmitted snapshot reflects the post-update weights.
        snap = cache.get((0, 7), store.tree(7))
        assert snap.total_weight == pytest.approx(store.tree(7).total_weight)

    def test_write_hot_tree_never_rebuilds(self):
        store, cache = self._warm_store()
        builds_before = cache.stats.builds
        for i in range(10):  # mutate between every read
            store.update_edge(7, 100 + (i % 20), float(i + 2))
            store.sample_neighbors_many([7], 4, rng=i)
        # The mutate/sample interleave stays on the exact path throughout.
        assert cache.stats.builds == builds_before
        assert cache.stats.exact_fallbacks >= 10

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
        assert cache.invalidate((0, 7))
        assert not cache.invalidate((0, 7))
        store.sample_neighbors_many([7], 2, rng=1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0


# ---------------------------------------------------------------------------
# LRU eviction under a byte budget
# ---------------------------------------------------------------------------
class TestLRUEviction:
    DEG = 16

    def _entry_bytes(self):
        model = DEFAULT_MEMORY_MODEL
        return self.DEG * (model.id_bytes + model.weight_bytes)

    def _store_with_budget(self, n_entries_budget: int):
        cache = SnapshotCache(
            capacity_bytes=n_entries_budget * self._entry_bytes()
        )
        store = DynamicGraphStore(
            SamtreeConfig(capacity=8, alpha=0), snapshot_cache=cache
        )
        for src in range(20):
            for dst in range(self.DEG):
                store.add_edge(src, 1000 + dst, 1.0 + dst)
        return store, cache

    def test_capacity_is_respected_and_lru_evicts(self):
        store, cache = self._store_with_budget(4)
        for src in range(10):
            store.sample_neighbors_many([src], 4, rng=src)
        assert len(cache) == 4
        assert cache.nbytes <= cache.capacity_bytes
        assert cache.stats.evictions == 6
        # The four most recently read sources survive, LRU order.
        assert cache.keys() == [(0, 6), (0, 7), (0, 8), (0, 9)]

    def test_touch_refreshes_recency(self):
        store, cache = self._store_with_budget(3)
        for src in (0, 1, 2):
            store.sample_neighbors_many([src], 4, rng=0)
        store.sample_neighbors_many([0], 4, rng=0)  # touch 0 -> MRU
        store.sample_neighbors_many([3], 4, rng=0)  # evicts 1, not 0
        assert (0, 0) in cache
        assert (0, 1) not in cache
        assert cache.keys() == [(0, 2), (0, 0), (0, 3)]

    def test_oversized_entry_served_uncached(self):
        cache = SnapshotCache(capacity_bytes=8)  # smaller than any entry
        store = DynamicGraphStore(
            SamtreeConfig(capacity=8), snapshot_cache=cache
        )
        for dst in range(12):
            store.add_edge(1, dst, 1.0)
        rows = store.sample_neighbors_many([1] * 3, 5, rng=0).rows()
        assert all(len(r) == 5 for r in rows)
        assert len(cache) == 0 and cache.nbytes == 0

    def test_min_degree_trees_stay_exact(self):
        cache = SnapshotCache(min_degree=10)
        store = DynamicGraphStore(
            SamtreeConfig(capacity=8), snapshot_cache=cache
        )
        for dst in range(5):  # degree 5 < min_degree
            store.add_edge(1, dst, 1.0)
        store.sample_neighbors_many([1] * 3, 4, rng=0)
        assert len(cache) == 0
        assert cache.stats.exact_fallbacks >= 1

    def test_stats_export(self):
        store, cache = self._store_with_budget(2)
        store.sample_neighbors_many([0, 0, 1], 4, rng=0)
        d = cache.stats.to_dict()
        assert d["builds"] == 2
        assert 0.0 <= d["hit_rate"] <= 1.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            SnapshotCache(capacity_bytes=-1)
        with pytest.raises(ConfigurationError):
            SnapshotCache(min_degree=-1)


# ---------------------------------------------------------------------------
# seed reproducibility of the mixed read path
# ---------------------------------------------------------------------------
class TestSeedReproducibility:
    def _build(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=8, alpha=0))
        for src in range(6):
            for dst in range(12):
                store.add_edge(src, 50 + dst, 1.0 + (dst % 4))
        return store

    def test_same_seed_same_batched_samples(self):
        frontier = [0, 1, 0, 2, 3, 3, 4, 5] * 3
        a = self._build().sample_neighbors_many(frontier, 7, rng=1234).rows()
        b = self._build().sample_neighbors_many(frontier, 7, rng=1234).rows()
        assert [[int(v) for v in row] for row in a] == [
            [int(v) for v in row] for row in b
        ]

    def test_same_seed_with_mixed_exact_fallback(self):
        # Mutations put some trees on the exact path; determinism must
        # survive the mix of vectorized and scalar draws.
        def run():
            store = self._build()
            store.sample_neighbors_many([0, 1, 2], 4, rng=7)  # warm
            store.update_edge(1, 50, 9.0)  # tree 1 -> probation
            return store.sample_neighbors_many([0, 1, 1, 2], 5, rng=99).rows()

        a, b = run(), run()
        assert [[int(v) for v in row] for row in a] == [
            [int(v) for v in row] for row in b
        ]

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
