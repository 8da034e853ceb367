"""Unit tests for the samtree (paper §IV, Algorithms 1-2, Examples 1-2)."""

from __future__ import annotations

import random

import pytest

from repro.core.samtree import OpStats, Samtree, SamtreeConfig
from repro.errors import (
    ConfigurationError,
    EmptyStructureError,
    InvalidWeightError,
)


def build_tree(edges, capacity=8, alpha=0, compress=True):
    tree = Samtree(SamtreeConfig(capacity=capacity, alpha=alpha, compress=compress))
    for dst, w in edges:
        tree.insert(dst, w)
    return tree


class TestConfig:
    def test_defaults_match_paper(self):
        """Default node capacity 256 (2^8) and α = 0 (paper §VII-A)."""
        config = SamtreeConfig()
        assert config.capacity == 256
        assert config.alpha == 0
        assert config.compress is True

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamtreeConfig(capacity=2)
        with pytest.raises(ConfigurationError):
            SamtreeConfig(alpha=-1)

    def test_min_fill_follows_paper_remark(self):
        """Each node holds at least c/2 - α entries after a split."""
        assert SamtreeConfig(capacity=8, alpha=0).leaf_min_fill == 4
        assert SamtreeConfig(capacity=8, alpha=2).leaf_min_fill == 2
        assert SamtreeConfig(capacity=8, alpha=100).leaf_min_fill == 1


class TestPaperExample1:
    """Figure 3: the graph-storage running example."""

    def test_vertex_3_single_leaf(self):
        tree = build_tree([(4, 0.6), (7, 0.7)], capacity=4)
        assert tree.degree == 2
        assert tree.height == 1
        # The leaf FSTable holds [0.6, 1.3] (w_4, w_4 + w_7).
        assert tree.total_weight == pytest.approx(1.3)
        assert tree.get_weight(4) == pytest.approx(0.6)
        assert tree.get_weight(7) == pytest.approx(0.7)

    def test_vertex_1_three_neighbors(self):
        tree = build_tree([(2, 0.1), (3, 0.4), (5, 0.2)], capacity=4)
        assert tree.degree == 3
        assert tree.total_weight == pytest.approx(0.7)
        assert tree.to_dict() == pytest.approx({2: 0.1, 3: 0.4, 5: 0.2})


class TestPaperExample2:
    """Figure 4: inserting v6 into a full capacity-4 leaf splits it."""

    def test_insertion_split(self):
        tree = build_tree(
            [(1, 0.3), (2, 0.4), (3, 0.5), (4, 0.6)], capacity=4
        )
        assert tree.height == 1
        tree.insert(6, 0.7)
        assert tree.degree == 5
        assert tree.height == 2
        tree.check_invariants()
        # Total weight: 0.3+0.4+0.5+0.6+0.7 = 2.5; the root CSTable's two
        # entries partition it.
        assert tree.total_weight == pytest.approx(2.5)
        assert tree.to_dict() == pytest.approx(
            {1: 0.3, 2: 0.4, 3: 0.5, 4: 0.6, 6: 0.7}
        )


class TestInsertion:
    def test_insert_returns_newness(self):
        tree = build_tree([])
        assert tree.insert(5, 1.0) is True
        assert tree.insert(5, 2.0) is False  # in-place update
        assert tree.degree == 1
        assert tree.get_weight(5) == pytest.approx(2.0)

    def test_many_inserts_keep_invariants(self):
        tree = build_tree([], capacity=8)
        for i in range(500):
            tree.insert(i * 37 % 1000, 1.0 + (i % 3))
        tree.check_invariants()
        assert tree.height >= 3

    def test_reverse_order_inserts(self):
        tree = build_tree([], capacity=6)
        for i in reversed(range(200)):
            tree.insert(i, 1.0)
        tree.check_invariants()
        assert sorted(tree.neighbors()) == list(range(200))

    def test_rejects_bad_weight(self):
        tree = build_tree([])
        with pytest.raises(InvalidWeightError):
            tree.insert(1, -1.0)
        with pytest.raises(InvalidWeightError):
            tree.insert(1, float("nan"))

    def test_duplicate_heavy_workload(self):
        tree = build_tree([], capacity=8)
        for rep in range(5):
            for v in range(100):
                tree.insert(v, float(rep + 1))
        assert tree.degree == 100
        assert all(w == pytest.approx(5.0) for _, w in tree.items())
        tree.check_invariants()


class TestDeletion:
    def test_delete_missing(self):
        tree = build_tree([(1, 1.0)])
        assert tree.delete(2) is False
        assert tree.delete(1) is True
        assert tree.delete(1) is False
        assert tree.degree == 0

    def test_delete_all_in_order(self):
        tree = build_tree([(i, 1.0) for i in range(300)], capacity=8)
        for i in range(300):
            assert tree.delete(i) is True
            if i % 50 == 0:
                tree.check_invariants()
        assert tree.degree == 0
        assert tree.height == 1
        tree.check_invariants()

    def test_delete_all_reverse(self):
        tree = build_tree([(i, 1.0) for i in range(300)], capacity=8)
        for i in reversed(range(300)):
            tree.delete(i)
        assert tree.degree == 0
        tree.check_invariants()

    def test_merge_keeps_weights(self):
        tree = build_tree([(i, float(i + 1)) for i in range(64)], capacity=8)
        r = random.Random(9)
        expected = {i: float(i + 1) for i in range(64)}
        for v in r.sample(range(64), 48):
            tree.delete(v)
            del expected[v]
        tree.check_invariants()
        assert tree.to_dict() == pytest.approx(expected)

    def test_root_collapse(self):
        tree = build_tree([(i, 1.0) for i in range(50)], capacity=8)
        assert tree.height > 1
        for i in range(45):
            tree.delete(i)
        tree.check_invariants()
        assert tree.height == 1


class TestSampling:
    def test_weighted_distribution(self):
        tree = build_tree([(1, 1.0), (2, 3.0), (3, 6.0)], capacity=4)
        r = random.Random(11)
        counts = {1: 0, 2: 0, 3: 0}
        n = 30000
        for _ in range(n):
            counts[tree.sample(r)] += 1
        assert counts[1] / n == pytest.approx(0.1, abs=0.02)
        assert counts[2] / n == pytest.approx(0.3, abs=0.02)
        assert counts[3] / n == pytest.approx(0.6, abs=0.02)

    def test_weighted_distribution_multilevel(self):
        """Sampling across internal CSTables + leaf FSTables (paper §V-C)."""
        weights = {v: 0.5 + (v % 7) for v in range(200)}
        tree = build_tree(list(weights.items()), capacity=8)
        assert tree.height >= 3
        total = sum(weights.values())
        r = random.Random(12)
        counts = {v: 0 for v in weights}
        n = 60000
        for _ in range(n):
            counts[tree.sample(r)] += 1
        # Aggregate check over weight classes to keep variance low.
        for klass in range(7):
            expect = sum(w for v, w in weights.items() if v % 7 == klass) / total
            got = sum(c for v, c in counts.items() if v % 7 == klass) / n
            assert got == pytest.approx(expect, abs=0.02)

    def test_sample_uniform(self):
        tree = build_tree([(1, 100.0), (2, 0.5)], capacity=4)
        r = random.Random(13)
        ones = sum(tree.sample_uniform(r) == 1 for _ in range(10000))
        assert ones / 10000 == pytest.approx(0.5, abs=0.03)

    def test_sample_empty_raises(self):
        tree = build_tree([])
        with pytest.raises(EmptyStructureError):
            tree.sample()
        with pytest.raises(EmptyStructureError):
            tree.sample_uniform()
        with pytest.raises(EmptyStructureError):
            tree.sample_many(3)

    def test_sample_many_count(self):
        tree = build_tree([(1, 1.0)])
        assert tree.sample_many(7) == [1] * 7
        with pytest.raises(ConfigurationError):
            tree.sample_many(-1)

    def test_zero_weight_edges_fall_back_to_uniform(self):
        tree = build_tree([(1, 0.0), (2, 0.0)], capacity=4)
        r = random.Random(14)
        seen = {tree.sample(r) for _ in range(100)}
        assert seen == {1, 2}


class TestStats:
    def test_leaf_dominates_updates(self):
        """Table V's mechanism: inserts are leaf ops; internal ops only
        appear on splits, so their share shrinks with capacity."""
        shares = {}
        for capacity in (8, 32, 128):
            stats = OpStats()
            tree = Samtree(SamtreeConfig(capacity=capacity), stats=stats)
            for i in range(2000):
                tree.insert(i, 1.0)
            shares[capacity] = stats.leaf_fraction
        assert shares[8] < shares[32] < shares[128]
        assert shares[128] > 0.98

    def test_stats_merge(self):
        a = OpStats(leaf_ops=3, internal_ops=1)
        b = OpStats(leaf_ops=2, internal_ops=2, merges=1)
        a.merge_from(b)
        assert a.leaf_ops == 5 and a.internal_ops == 3 and a.merges == 1
        a.reset()
        assert a.total_ops == 0 and a.leaf_fraction == 0.0


class TestAlphaAndCompression:
    def test_alpha_variants_store_same_graph(self):
        edges = [(i * 17 % 997, 1.0 + i % 5) for i in range(600)]
        reference = build_tree(edges, capacity=16, alpha=0)
        for alpha in (1, 3, 7):
            tree = build_tree(edges, capacity=16, alpha=alpha)
            tree.check_invariants()
            assert tree.to_dict() == pytest.approx(reference.to_dict())

    def test_compression_transparent(self):
        edges = [((7 << 40) + i, float(i % 9) + 0.1) for i in range(400)]
        plain = build_tree(edges, capacity=16, compress=False)
        comp = build_tree(edges, capacity=16, compress=True)
        comp.check_invariants()
        assert comp.to_dict() == pytest.approx(plain.to_dict())
        assert comp.nbytes() < plain.nbytes()


class TestAccounting:
    def test_nbytes_grows_with_content(self):
        tree = build_tree([], capacity=8)
        empty = tree.nbytes()
        for i in range(100):
            tree.insert(i, 1.0)
        assert tree.nbytes() > empty

    def test_repr(self):
        tree = build_tree([(1, 1.0)])
        assert "Samtree" in repr(tree)

    def test_contains_and_len(self):
        tree = build_tree([(5, 1.0)])
        assert 5 in tree
        assert 6 not in tree
        assert len(tree) == 1
        assert bool(tree)
