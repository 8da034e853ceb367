"""Tests pinning the paper's analytical claims: the complexity rows of
Table II (measured as touched-element counts, not wall time), Theorem 4,
and the Table V leaf-dominance mechanism.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cstable import CSTable
from repro.core.fenwick import FSTable
from repro.core.samtree import OpStats, Samtree, SamtreeConfig


def fstable_touched_on_add(n: int, i: int) -> int:
    """Number of Fenwick entries an in-place update at ``i`` touches."""
    count = 0
    j = i
    while j < n:
        count += 1
        j += (j + 1) & -(j + 1)  # LSB(j + 1)
    return count


class TestTableII:
    """FTS is O(log n) per update; ITS (CSTable) is O(n)."""

    def test_fstable_update_touches_log_entries(self):
        for n in (64, 256, 1024, 4096):
            worst = max(fstable_touched_on_add(n, i) for i in range(n))
            assert worst <= n.bit_length() + 1

    def test_cstable_update_touches_linear_entries(self):
        # Updating index 0 rewrites every entry: the O(n_L) cost.
        for n in (64, 1024):
            table = CSTable([1.0] * n)
            before = list(table._sums)
            table.update(0, 2.0)
            changed = sum(a != b for a, b in zip(before, table._sums))
            assert changed == n

    def test_fstable_append_is_logarithmic(self):
        # Appending at size n reads at most log2(n) children.
        for n in (63, 64, 255, 1023):
            table = FSTable([1.0] * n)
            reads = 0
            k = 0
            while (1 << k) < n + 1:
                x = n - (1 << k)
                if x >= 0 and (x + 1) & -(x + 1) == (1 << k):  # LSB(x + 1)
                    reads += 1
                k += 1
            assert reads <= (n + 1).bit_length()
            table.append(1.0)
            assert table.total() == pytest.approx(n + 1.0)

    def test_both_sample_in_logarithmic_probes(self):
        """FTS probes at most ~log2(n) entries (the padded range halves
        every round)."""
        n = 1000
        table = FSTable([1.0] * n)
        m = 1
        while m < n:
            m <<= 1
        assert m.bit_length() <= 11  # 1024 → at most ~10 probes


class TestTheorem4:
    def test_subtree_sum_property(self):
        r = random.Random(0)
        weights = [r.random() for _ in range(130)]
        table = FSTable(weights)
        for k in range(1, 8):
            i = (1 << k) - 1
            if i < len(weights):
                assert table.entry(i) == pytest.approx(sum(weights[: i + 1]))


class TestTableV:
    """>98 % of structural updates hit leaf nodes at every capacity."""

    @pytest.mark.parametrize("capacity", [64, 128, 256])
    def test_leaf_dominance(self, capacity):
        stats = OpStats()
        tree = Samtree(SamtreeConfig(capacity=capacity), stats=stats)
        r = random.Random(capacity)
        for _ in range(20_000):
            tree.insert(r.randrange(1_000_000), r.random())
        assert stats.leaf_fraction > 0.95
        if capacity >= 128:
            assert stats.leaf_fraction > 0.98

    def test_fraction_grows_with_capacity(self):
        fractions = []
        for capacity in (16, 64, 256):
            stats = OpStats()
            tree = Samtree(SamtreeConfig(capacity=capacity), stats=stats)
            r = random.Random(7)
            for _ in range(8_000):
                tree.insert(r.randrange(500_000), 1.0)
            fractions.append(stats.leaf_fraction)
        assert fractions == sorted(fractions)


class TestRemarkOccupancy:
    def test_split_halves_at_least_half_minus_alpha(self):
        """Paper remark: after α-Split each node holds ≥ c/2 − α entries."""
        for alpha in (0, 2, 8):
            config = SamtreeConfig(capacity=16, alpha=alpha)
            tree = Samtree(config)
            r = random.Random(alpha)
            for _ in range(3000):
                tree.insert(r.randrange(100_000), 1.0)
            tree.check_invariants()
            floor = config.leaf_min_fill
            for leaf in tree._leaves():
                # Leaves shrink below the floor only via deletions, and
                # we did none; splits must respect the bound.
                assert leaf.size >= min(floor, tree.degree)
