"""Tests for CP-IDs dynamic prefix compression (paper §VI-A, Eq. 7)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.compression import (
    ALLOWED_PREFIX_LENGTHS,
    ID_BYTES,
    MAX_ID,
    CompressedIDList,
    PlainIDList,
    common_prefix_length,
    make_id_list,
)
from repro.errors import IndexOutOfRangeError, InvalidWeightError

def prefix_of(comp) -> int:
    """The shared-prefix length ``z`` of a list of two or more IDs, read
    back from Eq. 7: ``nbytes = 1 + z + n * (8 - z)``."""
    n = len(comp)
    return (1 + ID_BYTES * n - comp.nbytes()) // (n - 1)


ids_st = st.lists(
    st.integers(min_value=0, max_value=MAX_ID), min_size=0, max_size=120
)


class TestHelpers:
    def test_common_prefix_length(self):
        a = (0x10).to_bytes(8, "big")
        b = (0x81).to_bytes(8, "big")
        assert common_prefix_length(a, b) == 7  # differ only in last byte
        assert common_prefix_length(a, a) == 8

    def test_allowed_lengths_match_paper(self):
        """m is chosen from {0, 4, 6, 7} bytes (paper §VI-A)."""
        assert set(ALLOWED_PREFIX_LENGTHS) == {0, 4, 6, 7}


class TestCompressedIDList:
    def test_paper_figure_7(self):
        """IDs 0x10, 0x81, 0x2b, 0x5a share 7 zero bytes: z = 7, and the
        compressed size is 1 + 7 + 4*1 = 12 vs 32 uncompressed."""
        ids = [0x10, 0x81, 0x2B, 0x5A]
        comp = CompressedIDList(ids)
        assert prefix_of(comp) == 7
        assert comp.to_list() == ids
        assert comp.nbytes() == 1 + 7 + 4 * 1
        assert PlainIDList(ids).nbytes() == 32

    def test_empty(self):
        comp = CompressedIDList()
        assert len(comp) == 0
        assert not comp
        assert comp.to_list() == []
        assert comp.nbytes() == 1

    def test_append_within_prefix(self):
        comp = CompressedIDList([0x1000, 0x1001])
        assert prefix_of(comp) == 7  # IDs differ only in the last byte
        comp.append(0x10FF)
        assert prefix_of(comp) == 7
        assert comp.to_list() == [0x1000, 0x1001, 0x10FF]

    def test_append_narrows_prefix(self):
        comp = CompressedIDList([0x10000, 0x10001])
        assert prefix_of(comp) == 7
        comp.append(0x1FF00)  # shares only 6 leading bytes → repack
        assert prefix_of(comp) == 6
        assert comp.to_list() == [0x10000, 0x10001, 0x1FF00]

    def test_append_breaks_prefix(self):
        base = 7 << 40
        comp = CompressedIDList([base + 1, base + 2])
        assert prefix_of(comp) >= 4
        comp.append(1)  # shares no high bytes with base
        assert prefix_of(comp) == 0
        assert comp.to_list() == [base + 1, base + 2, 1]

    def test_getitem_and_iteration(self):
        ids = [100, 200, 300]
        comp = CompressedIDList(ids)
        assert [comp[i] for i in range(3)] == ids
        assert list(comp) == ids
        with pytest.raises(IndexOutOfRangeError):
            comp[3]

    def test_index_of(self):
        ids = [10, 20, 30, 40]
        comp = CompressedIDList(ids)
        for i, v in enumerate(ids):
            assert comp.index_of(v) == i
        assert comp.index_of(99) is None
        assert 20 in comp
        assert 99 not in comp

    def test_index_of_rejects_unaligned_byte_hits(self):
        """A suffix byte pattern straddling two IDs must not match."""
        # With z = 6 the suffixes are 2 bytes; craft IDs whose adjacent
        # suffix bytes form another ID's suffix at an unaligned offset.
        base = 0xAB << 16
        comp = CompressedIDList([base | 0x0102, base | 0x0304])
        assert prefix_of(comp) == 6 or prefix_of(comp) == 4
        # 0x0203 spans the boundary between the two stored suffixes.
        assert comp.index_of(base | 0x0203) is None

    def test_set(self):
        comp = CompressedIDList([0x1000, 0x1001])
        comp.set(0, 0x1002)
        assert comp.to_list() == [0x1002, 0x1001]
        comp.set(1, 5)  # prefix break → repack
        assert comp.to_list() == [0x1002, 5]
        with pytest.raises(IndexOutOfRangeError):
            comp.set(9, 1)

    def test_swap_delete(self):
        comp = CompressedIDList([1, 2, 3, 4])
        assert comp.swap_delete(0) == 1
        assert comp.to_list() == [4, 2, 3]
        assert comp.swap_delete(2) == 3
        assert comp.to_list() == [4, 2]
        with pytest.raises(IndexOutOfRangeError):
            comp.swap_delete(5)

    def test_swap_delete_to_empty_resets(self):
        comp = CompressedIDList([42])
        comp.swap_delete(0)
        assert len(comp) == 0
        assert comp.nbytes() == 1

    def test_id_validation(self):
        with pytest.raises(InvalidWeightError):
            CompressedIDList([-1])
        with pytest.raises(InvalidWeightError):
            CompressedIDList([MAX_ID + 1])

    def test_clear(self):
        comp = CompressedIDList([1, 2, 3])
        comp.clear()
        assert len(comp) == 0


class TestPlainIDList:
    def test_same_interface(self):
        plain = PlainIDList([1, 2, 3])
        assert plain.to_list() == [1, 2, 3]
        assert plain.index_of(2) == 1
        assert plain.index_of(9) is None
        assert plain[0] == 1
        plain.set(0, 7)
        assert plain.swap_delete(0) == 7
        assert plain.to_list() == [3, 2]
        assert plain.nbytes() == 2 * ID_BYTES

    def test_factory(self):
        assert isinstance(make_id_list(True), CompressedIDList)
        assert isinstance(make_id_list(False), PlainIDList)


@given(ids_st)
def test_roundtrip_property(ids):
    assert CompressedIDList(ids).to_list() == ids


@given(ids_st)
def test_compression_never_larger(ids):
    """CP-IDs never exceeds the uncompressed footprint (beyond the 1-byte
    header on tiny lists) and matches Equation 7 exactly."""
    comp = CompressedIDList(ids)
    if ids:
        be = [i.to_bytes(ID_BYTES, "big") for i in ids]
        raw = min(common_prefix_length(be[0], b) for b in be)
        z = max(z for z in ALLOWED_PREFIX_LENGTHS if z <= min(raw, 7))
        expected = 1 + z + len(ids) * (ID_BYTES - z)
        assert comp.nbytes() == expected
        assert comp.nbytes() <= 1 + ID_BYTES * len(ids)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["append", "set", "delete"]),
            st.integers(min_value=0, max_value=MAX_ID),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_op_sequence_matches_plain(ops):
    """Compressed and plain lists agree under arbitrary op sequences."""
    comp = CompressedIDList()
    plain = PlainIDList()
    for kind, vid, raw in ops:
        if kind == "append" or len(plain) == 0:
            comp.append(vid)
            plain.append(vid)
        elif kind == "set":
            i = raw % len(plain)
            comp.set(i, vid)
            plain.set(i, vid)
        else:
            i = raw % len(plain)
            assert comp.swap_delete(i) == plain.swap_delete(i)
    assert comp.to_list() == plain.to_list()


@given(st.lists(st.integers(min_value=0, max_value=MAX_ID), min_size=1,
                max_size=50, unique=True))
def test_index_of_property(ids):
    comp = CompressedIDList(ids)
    for i, v in enumerate(ids):
        assert comp.index_of(v) == i
