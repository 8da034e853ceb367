"""Property-based tests: FSTable vs a naive flat reference (hypothesis)."""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cstable import CSTable
from repro.core.fenwick import FSTable, cumsum_rows

# Weights with enough spread to stress float paths but no degenerate inf.
weights_st = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
weight_lists = st.lists(weights_st, min_size=0, max_size=200)


@given(weight_lists)
def test_total_matches_sum(weights: List[float]):
    assert FSTable(weights).total() == pytest.approx(sum(weights), rel=1e-9, abs=1e-9)


@given(weight_lists.filter(lambda w: len(w) > 0))
def test_prefix_sums_match_reference(weights: List[float]):
    table = FSTable(weights)
    tol = 1e-9 * max(1.0, sum(weights))
    running = 0.0
    for i, w in enumerate(weights):
        running += w
        assert table.prefix_sum(i) == pytest.approx(running, rel=1e-9, abs=tol)


@given(weight_lists)
def test_roundtrip_to_weights(weights: List[float]):
    # Reconstruction subtracts partial sums, so the absolute error scales
    # with the table's total mass (standard float cancellation).
    tol = 1e-9 * max(1.0, sum(weights))
    assert FSTable(weights).to_weights() == pytest.approx(
        weights, rel=1e-9, abs=tol
    )


@given(weight_lists)
def test_incremental_build_equals_bulk(weights: List[float]):
    inc = FSTable()
    for w in weights:
        inc.append(w)
    bulk = FSTable(weights)
    tol = 1e-9 * max(1.0, sum(weights))
    for i in range(len(weights)):
        assert inc.entry(i) == pytest.approx(bulk.entry(i), rel=1e-9, abs=tol)


# ---------------------------------------------------------------------------
# Linear O(n) construction (FSTable.from_array, the bulk-build path)
# ---------------------------------------------------------------------------
@given(weight_lists)
@settings(max_examples=200)
def test_from_array_matches_incremental_construction(weights: List[float]):
    """The vectorized linear build agrees with the incremental-update
    construction on every prefix sum, the total, and FTS draws."""
    inc = FSTable()
    for w in weights:
        inc.append(w)
    vec = FSTable.from_array(np.asarray(weights, dtype=np.float64))
    assert len(vec.to_weights()) == len(weights)
    total = sum(weights)
    tol = 1e-9 * max(1.0, total)
    assert vec.total() == pytest.approx(inc.total(), rel=1e-9, abs=tol)
    for i in range(len(weights)):
        assert vec.prefix_sum(i) == pytest.approx(
            inc.prefix_sum(i), rel=1e-9, abs=tol
        )
    # FTS draws: same index at a grid of sampling masses.
    if total > 0:
        for step in range(9):
            mass = (step / 9.0) * total
            assert vec.sample_with(mass) == inc.sample_with(mass)


def test_from_array_exact_across_sizes_0_to_1k():
    """Sizes 0..1k: with integer-valued weights the float addition order
    cannot matter, so the linear build is *exactly* the insert-loop
    table — internal tree array included — and FTS draws coincide."""
    rng = random.Random(42)
    for n in list(range(0, 66)) + [127, 128, 129, 255, 256, 500, 1000]:
        weights = [float(rng.randrange(0, 100)) for _ in range(n)]
        inc = FSTable()
        for w in weights:
            inc.append(w)
        vec = FSTable.from_array(np.asarray(weights))
        assert vec._tree == inc._tree, n
        assert vec.total() == inc.total()
        total = inc.total()
        if total > 0:
            for u in (0.0, 0.123, 0.5, 0.875, 0.999999):
                assert vec.sample_with(u * total) == inc.sample_with(
                    u * total
                ), n


def test_from_array_rejects_bad_weights():
    from repro.errors import InvalidWeightError

    with pytest.raises(InvalidWeightError):
        FSTable.from_array(np.asarray([1.0, -2.0]))
    with pytest.raises(InvalidWeightError):
        FSTable.from_array(np.asarray([1.0, float("nan")]))
    with pytest.raises(InvalidWeightError):
        FSTable.from_array(np.asarray([float("inf")]))


# An op sequence: (kind, value) applied to both FSTable and a flat list.
ops_st = st.lists(
    st.tuples(
        st.sampled_from(["append", "update", "delete"]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=120,
)


@given(ops_st)
@settings(max_examples=200)
def test_op_sequences_match_flat_reference(
    ops: List[Tuple[str, float, int]]
):
    """Arbitrary interleavings of append / in-place update / swap-delete
    keep the FSTable equal to a flat reference list."""
    table = FSTable()
    ref: List[float] = []
    for kind, w, raw_i in ops:
        if kind == "append" or not ref:
            table.append(w)
            ref.append(w)
        elif kind == "update":
            i = raw_i % len(ref)
            table.update(i, w)
            ref[i] = w
        else:
            i = raw_i % len(ref)
            table.delete(i)
            ref[i] = ref[-1]
            ref.pop()
    assert table.to_weights() == pytest.approx(ref, rel=1e-9, abs=1e-9)
    assert table.total() == pytest.approx(sum(ref), rel=1e-9, abs=1e-6)


@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=150,
    ),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_fts_equals_its(weights: List[float], u: float):
    """FTS over soft prefix sums selects the same index as ITS over the
    strict prefix sums for any sampling mass (paper §V-B)."""
    fs = FSTable(weights)
    cs = CSTable(weights)
    mass = u * sum(weights)
    assert fs.sample_with(mass) == cs.search(mass)


@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
        min_size=2,
        max_size=60,
    ),
    st.integers(min_value=0, max_value=10_000),
)
def test_delete_preserves_fts_its_agreement(weights: List[float], raw: int):
    fs = FSTable(weights)
    i = raw % len(weights)
    fs.delete(i)
    ref = list(weights)
    ref[i] = ref[-1]
    ref.pop()
    cs = CSTable(ref)
    for step in range(7):
        mass = (step / 7.0) * sum(ref)
        assert fs.sample_with(mass) == cs.search(mass)


@given(
    st.lists(st.lists(weights_st, min_size=1, max_size=70), min_size=0, max_size=30),
    st.integers(1, 40),
)
@settings(max_examples=200)
def test_cumsum_rows_is_each_rows_cumsum_bit_for_bit(rows, width: int):
    """Width classes, padding and the per-row loop above ``width`` all
    give every row exactly ``np.cumsum`` of its entries."""
    column = np.asarray([w for row in rows for w in row], dtype=np.float64)
    length = np.asarray([len(row) for row in rows], dtype=np.int64)
    start = np.cumsum(length) - length
    out = np.full(column.size, np.nan)
    cumsum_rows(column, start, length, out, width)
    want = np.concatenate([np.cumsum(row) for row in rows]) if rows else out
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
