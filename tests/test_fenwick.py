"""Unit tests for the FSTable (paper §V-A, Algorithms 3-5)."""

from __future__ import annotations

import random

import pytest

from repro.core.fenwick import FSTable
from repro.errors import (
    EmptyStructureError,
    IndexOutOfRangeError,
    InvalidWeightError,
)


class TestConstruction:
    def test_empty(self):
        table = FSTable()
        assert len(table) == 0
        assert not table
        assert table.total() == 0.0
        assert table.to_weights() == []

    def test_paper_example_3(self):
        """Figure 5: A = {0.3, 0.4, 0.1} → F = [0.3, 0.7, 0.1]."""
        table = FSTable([0.3, 0.4, 0.1])
        assert table.entry(0) == pytest.approx(0.3)
        assert table.entry(1) == pytest.approx(0.7)
        assert table.entry(2) == pytest.approx(0.1)

    def test_bulk_equals_incremental(self):
        weights = [0.5, 1.5, 2.0, 0.25, 3.0, 0.125, 1.0, 4.0, 0.75]
        bulk = FSTable(weights)
        inc = FSTable()
        for w in weights:
            inc.append(w)
        assert len(bulk) == len(inc)
        for i in range(len(weights)):
            assert bulk.entry(i) == pytest.approx(inc.entry(i))

    def test_to_weights_roundtrip(self):
        weights = [float(i % 7) / 3 for i in range(100)]
        assert FSTable(weights).to_weights() == pytest.approx(weights)

    def test_rejects_bad_weights(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidWeightError):
                FSTable([bad])
            table = FSTable([1.0])
            with pytest.raises(InvalidWeightError):
                table.append(bad)


class TestQueries:
    def test_prefix_sums_match_reference(self):
        r = random.Random(1)
        weights = [r.random() for _ in range(257)]
        table = FSTable(weights)
        running = 0.0
        for i, w in enumerate(weights):
            running += w
            assert table.prefix_sum(i) == pytest.approx(running)

    def test_total_matches_sum(self):
        for n in (1, 2, 3, 7, 8, 9, 63, 64, 65):
            weights = [0.5 + (i % 5) for i in range(n)]
            assert FSTable(weights).total() == pytest.approx(sum(weights))

    def test_weight_recovery(self):
        weights = [float(i + 1) for i in range(40)]
        table = FSTable(weights)
        for i, w in enumerate(weights):
            assert table.weight(i) == pytest.approx(w)

    def test_index_bounds(self):
        table = FSTable([1.0, 2.0])
        for bad in (-1, 2, 100):
            with pytest.raises(IndexOutOfRangeError):
                table.weight(bad)
            with pytest.raises(IndexOutOfRangeError):
                table.prefix_sum(bad)

    def test_theorem_4_subtree_sums(self):
        """F[2^k - 1] equals the strict prefix sum (paper Theorem 4)."""
        weights = [0.1 * (i + 1) for i in range(64)]
        table = FSTable(weights)
        for k in range(1, 7):
            i = (1 << k) - 1
            assert table.entry(i) == pytest.approx(sum(weights[: i + 1]))


class TestUpdates:
    def test_in_place_update_returns_old(self):
        table = FSTable([1.0, 2.0, 3.0])
        assert table.update(1, 5.0) == pytest.approx(2.0)
        assert table.weight(1) == pytest.approx(5.0)
        assert table.total() == pytest.approx(9.0)

    def test_append_returns_index(self):
        table = FSTable()
        for i in range(10):
            assert table.append(1.0) == i

    def test_delete_swaps_with_last(self):
        table = FSTable([1.0, 2.0, 3.0, 4.0])
        removed = table.delete(1)
        assert removed == pytest.approx(2.0)
        # Position 1 now holds the old last weight.
        assert table.to_weights() == pytest.approx([1.0, 4.0, 3.0])

    def test_delete_last_element(self):
        table = FSTable([1.0, 2.0, 3.0])
        assert table.delete(2) == pytest.approx(3.0)
        assert table.to_weights() == pytest.approx([1.0, 2.0])

    def test_delete_until_empty(self):
        table = FSTable([float(i + 1) for i in range(17)])
        expected_total = sum(float(i + 1) for i in range(17))
        while table:
            expected_total -= table.delete(0)
            assert table.total() == pytest.approx(expected_total)
        assert len(table) == 0

    def test_interleaved_ops_match_reference(self):
        r = random.Random(2)
        table = FSTable()
        ref: list = []
        for _ in range(3000):
            op = r.random()
            if op < 0.5 or not ref:
                w = r.random()
                table.append(w)
                ref.append(w)
            elif op < 0.8:
                i = r.randrange(len(ref))
                w = r.random()
                table.update(i, w)
                ref[i] = w
            else:
                i = r.randrange(len(ref))
                table.delete(i)
                ref[i] = ref[-1]
                ref.pop()
        assert table.to_weights() == pytest.approx(ref)


class TestSampling:
    def test_sample_with_matches_its_rule(self):
        """FTS picks the smallest i with prefix_sum(i) > r."""
        weights = [0.5, 0.1, 0.9, 0.3, 0.7, 0.2]
        table = FSTable(weights)
        cumulative = []
        running = 0.0
        for w in weights:
            running += w
            cumulative.append(running)
        for r_scaled in range(0, 270, 7):
            r = r_scaled / 100.0
            if r >= running:
                continue
            expected = next(i for i, c in enumerate(cumulative) if c > r)
            assert table.sample_with(r) == expected

    def test_sample_with_boundaries(self):
        table = FSTable([1.0, 1.0, 1.0, 1.0])
        assert table.sample_with(0.0) == 0
        assert table.sample_with(0.999) == 0
        assert table.sample_with(1.0) == 1
        assert table.sample_with(3.999) == 3

    def test_sample_distribution(self):
        weights = [1.0, 3.0, 6.0]
        table = FSTable(weights)
        r = random.Random(3)
        counts = [0, 0, 0]
        n = 30000
        for _ in range(n):
            counts[table.sample(r)] += 1
        for i, w in enumerate(weights):
            assert counts[i] / n == pytest.approx(w / 10.0, abs=0.02)

    def test_sample_zero_weights_uniform(self):
        table = FSTable([0.0, 0.0, 0.0])
        r = random.Random(4)
        seen = {table.sample(r) for _ in range(100)}
        assert seen == {0, 1, 2}

    def test_sample_empty_raises(self):
        with pytest.raises(EmptyStructureError):
            FSTable().sample()
        with pytest.raises(EmptyStructureError):
            FSTable().sample_with(0.0)

    def test_sample_negative_mass_rejected(self):
        with pytest.raises(InvalidWeightError):
            FSTable([1.0]).sample_with(-0.1)

    def test_sample_many(self):
        table = FSTable([1.0, 1.0])
        out = table.sample_many(50, random.Random(5))
        assert len(out) == 50
        assert set(out) <= {0, 1}
        with pytest.raises(IndexOutOfRangeError):
            table.sample_many(-1)

    def test_non_power_of_two_sizes(self):
        """The padded range-narrow must handle every size, not just 2^m."""
        r = random.Random(6)
        for n in (1, 2, 3, 5, 6, 7, 9, 11, 13, 100, 255, 257):
            weights = [r.random() + 0.01 for _ in range(n)]
            table = FSTable(weights)
            cumulative = []
            running = 0.0
            for w in weights:
                running += w
                cumulative.append(running)
            for _ in range(50):
                mass = r.random() * running
                expected = next(i for i, c in enumerate(cumulative) if c > mass)
                assert table.sample_with(mass) == expected


class TestAccounting:
    def test_nbytes(self):
        table = FSTable([1.0] * 10)
        assert table.nbytes() == 40

    def test_iter_yields_raw_weights(self):
        weights = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert list(FSTable(weights)) == pytest.approx(weights)

    def test_clear(self):
        table = FSTable([1.0, 2.0])
        table.clear()
        assert len(table) == 0
        assert table.total() == 0.0
