"""Bulk-built samtrees are equivalent to insert-loop trees.

The bottom-up O(n) builder of the bulk tier (`build_roots`) must produce trees
that are *indistinguishable* from incrementally grown ones everywhere it
matters: structural invariants, degree, height bounds, the neighbor set
and weights, the total weight, and — the property the whole system
exists for — the weighted sampling distribution (chi-square tested).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError, InvalidWeightError
from tests.conftest import bulk_tree

try:
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
    from math import erf, sqrt

    return float(0.5 * (1.0 - erf(z / sqrt(2.0))))


def _incremental(ids, weights, config):
    tree = Samtree(config)
    for v, w in zip(ids, weights):
        tree.insert(int(v), float(w))
    return tree


@pytest.mark.parametrize("capacity,alpha", [(4, 0), (8, 2), (256, 0)])
@pytest.mark.parametrize("compress", [True, False])
def test_bulk_build_equivalence_sweep(capacity, alpha, compress):
    """Across sizes and configs: invariants, degree, height bound,
    neighbors, and total weight all match the insert-loop tree."""
    rng = random.Random(13)
    config = SamtreeConfig(capacity=capacity, alpha=alpha, compress=compress)
    for n in (0, 1, 2, 3, capacity, capacity + 1, 10 * capacity + 7, 2000):
        ids = rng.sample(range(10 * n + 10), n)
        weights = [round(rng.random() * 5 + 0.01, 6) for _ in range(n)]
        bulk = bulk_tree(ids, weights, config)
        inc = _incremental(ids, weights, config)
        bulk.check_invariants()
        assert bulk.degree == inc.degree == n
        # Bottom-up packing at target fill never ends up *taller* than
        # the split-on-overflow incremental shape.
        assert bulk.height <= inc.height
        # Stored weights agree up to Fenwick reconstruction rounding
        # (prefix sums are accumulated in different orders).
        bd, idd = bulk.to_dict(), inc.to_dict()
        assert bd.keys() == idd.keys()
        for v in bd:
            assert bd[v] == pytest.approx(idd[v], rel=1e-9, abs=1e-9)
        assert sorted(bulk.neighbors()) == sorted(inc.neighbors())
        assert bulk.total_weight == pytest.approx(
            inc.total_weight, rel=1e-12, abs=1e-12
        )


def test_bulk_build_duplicates_resolve_last_wins():
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    ids = [5, 3, 5, 9, 3, 3]
    weights = [1.0, 2.0, 7.0, 4.0, 5.0, 6.0]
    store.bulk_load([0] * len(ids), ids, weights)
    store.check_invariants()
    assert dict(store.neighbors(0)) == {5: 7.0, 3: 6.0, 9: 4.0}


def test_bulk_build_weight_default_is_one():
    store = DynamicGraphStore(SamtreeConfig(capacity=4))
    store.bulk_load([0, 0, 0], [4, 1, 9])
    assert dict(store.neighbors(0)) == {1: 1.0, 4: 1.0, 9: 1.0}


def test_bulk_build_validation():
    """A bad id, weight or column shape is refused before anything is
    built."""
    store = DynamicGraphStore(SamtreeConfig(capacity=4))
    with pytest.raises(InvalidWeightError):
        store.bulk_load([0, 0], [-1, 2])
    with pytest.raises(InvalidWeightError):
        store.bulk_load([0, 0], [1, 2], [1.0, -3.0])
    with pytest.raises(InvalidWeightError):
        store.bulk_load([0], [1], [float("nan")])
    with pytest.raises(ConfigurationError):
        store.bulk_load([0, 0], [1, 2], [1.0])
    assert store.num_edges == 0 and store.num_sources == 0


def test_bulk_build_occupancy_matches_fill_fraction():
    """A bulk-built tree packs leaves near the target fill: its leaf
    count is close to n / (fill * capacity), well below worst case."""
    config = SamtreeConfig(capacity=256)
    n = 100_000
    tree = bulk_tree(np.arange(n), config=config)
    tree.check_invariants()
    target = 0.75 * config.capacity  # build_roots' fill fraction
    leaves = -(-n // int(target))  # expected ~= ceil(n / target)
    # Count actual leaves by walking down to the leaf level.
    def count_leaves(node):
        if node.is_leaf:
            return 1
        return sum(count_leaves(c) for c in node.children)

    actual = count_leaves(tree._root)
    assert abs(actual - leaves) <= leaves * 0.05 + 2


def test_bulk_build_supports_further_incremental_mutations():
    """A bulk-built tree is a first-class samtree: inserts, updates and
    deletes after the build keep every invariant."""
    rng = random.Random(5)
    config = SamtreeConfig(capacity=8, alpha=1)
    tree = bulk_tree(
        list(range(0, 400, 2)), [1.0 + (i % 5) for i in range(200)], config
    )
    for _ in range(300):
        r = rng.random()
        v = rng.randrange(500)
        if r < 0.5:
            tree.insert(v, rng.random() + 0.1)
        elif v in tree:
            tree.delete(v)
    tree.check_invariants()


def test_bulk_build_chi_square_sampling_equivalence():
    """The paper's core contract: a bulk-built tree samples neighbors
    from the same weighted distribution as an incrementally built one."""
    rng = random.Random(99)
    config = SamtreeConfig(capacity=8, alpha=0)
    n = 40
    ids = list(range(0, 4 * n, 4))
    weights = [(i % 7 + 1) * (10.0 if i % 11 == 0 else 1.0) for i in range(n)]
    bulk = bulk_tree(ids, weights, config)
    inc = _incremental(ids, weights, config)

    draws = 60_000
    total = sum(weights)
    expected = np.asarray([w / total * draws for w in weights])
    index = {v: i for i, v in enumerate(ids)}

    for tree, seed in ((bulk, 1), (inc, 2)):
        counts = np.zeros(n)
        samples = tree.sample_many(draws, random.Random(seed))
        for v in samples:
            counts[index[v]] += 1
        p = _chi2_pvalue(counts, expected)
        assert p > 0.01, (p, "bulk" if tree is bulk else "inc")
