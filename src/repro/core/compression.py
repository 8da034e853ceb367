"""CP-IDs: dynamic prefix compression of samtree ID lists (paper §VI-A).

Vertex IDs are 64-bit integers.  IDs that co-habit one samtree node were
routed there by their numeric order, so they overwhelmingly share their
high-order bytes.  Instead of storing ``n`` full 8-byte IDs, a compressed
node stores

    z | prefix | suf(v_0) | suf(v_1) | ... | suf(v_{n-1})        (Eq. 7)

where ``z`` is the shared-prefix length in bytes, ``prefix`` is those
``z`` high bytes, and each suffix is the remaining ``8 - z`` bytes.  The
paper restricts ``z`` to ``{0, 4, 6, 7}`` so the compressor only has to
test three candidate prefixes ("for fast compression").

The structure is *dynamic*: appending an ID whose high bytes disagree
with the current prefix triggers an in-place re-pack at the widest still
valid ``z`` (paper Appendix A).  Deletion uses swap-with-last, mirroring
the leaf/FSTable semantics.

:class:`PlainIDList` is the uncompressed twin used by the "w/o CP"
ablation; both classes satisfy the same interface so the samtree is
agnostic to which one backs its leaves.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexOutOfRangeError, InvalidWeightError

__all__ = [
    "ALLOWED_PREFIX_LENGTHS",
    "ID_BYTES",
    "MAX_ID",
    "CompressedIDList",
    "PlainIDList",
    "make_id_list",
    "pack_id_lists",
    "common_prefix_length",
    "decode_id_lists",
]

#: Width of a vertex ID in bytes (64-bit IDs throughout the system).
ID_BYTES = 8

#: Largest representable vertex ID.
MAX_ID = (1 << (8 * ID_BYTES)) - 1

#: Prefix lengths the paper allows, widest first (``m in {0, 4, 6, 7}``).
ALLOWED_PREFIX_LENGTHS: Tuple[int, ...] = (7, 6, 4, 0)


def _check_id(vertex_id: int) -> int:
    vertex_id = int(vertex_id)
    if not 0 <= vertex_id <= MAX_ID:
        raise InvalidWeightError(
            f"vertex IDs must fit in {8 * ID_BYTES} unsigned bits, got {vertex_id}"
        )
    return vertex_id


def _id_to_bytes(vertex_id: int) -> bytes:
    return vertex_id.to_bytes(ID_BYTES, "big")


def common_prefix_length(a: bytes, b: bytes) -> int:
    """Number of leading bytes shared by two 8-byte big-endian IDs."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def _snap_prefix_length(raw: int) -> int:
    """Largest allowed prefix length that does not exceed ``raw``."""
    for z in ALLOWED_PREFIX_LENGTHS:
        if z <= raw:
            return z
    return 0


class CompressedIDList:
    """A CP-IDs list: shared prefix + packed fixed-width suffixes.

    Supports the exact operations a samtree leaf needs — append,
    positional read, in-place overwrite, swap-delete, membership scan —
    each touching only the packed byte buffer.
    """

    __slots__ = ("_z", "_prefix", "_prefix_int", "_suffixes", "_n")

    def __init__(self, ids: Optional[Iterable[int]] = None) -> None:
        self._z: int = ALLOWED_PREFIX_LENGTHS[0]
        self._prefix: bytes = b""
        self._prefix_int: int = 0  # prefix shifted into the high bytes
        self._suffixes = bytearray()
        self._n: int = 0
        if ids is not None:
            id_list = [_check_id(v) for v in ids]
            if id_list:
                self._repack(id_list)

    @classmethod
    def from_array(cls, ids) -> "CompressedIDList":
        """Build from a numpy array in one vectorized pass.

        The bulk ingestion tier packs thousands of leaves per call; this
        constructor views the IDs as big-endian byte rows, finds the
        widest shared prefix with one column-wise comparison against the
        first row, and slices all suffixes out with a single reshape —
        no per-ID Python loop.  The result is byte-identical to
        ``CompressedIDList(list(ids))``.
        """
        arr = np.asarray(ids, dtype=np.int64)
        n = int(arr.size)
        out = cls()
        if n == 0:
            return out
        if bool((arr < 0).any()):
            raise InvalidWeightError(
                f"vertex IDs must fit in {8 * ID_BYTES} unsigned bits, "
                f"got {int(arr.min())}"
            )
        be = (
            arr.astype(">u8")
            .view(np.uint8)
            .reshape(n, ID_BYTES)
        )
        eq = (be == be[0]).all(axis=0)
        raw = ID_BYTES
        for j in range(ID_BYTES):
            if not eq[j]:
                raw = j
                break
        z = _snap_prefix_length(min(raw, ID_BYTES - 1))
        width = ID_BYTES - z
        out._z = z
        out._prefix = be[0, :z].tobytes()
        out._prefix_int = int.from_bytes(
            out._prefix + b"\x00" * width, "big"
        )
        out._suffixes = bytearray(
            np.ascontiguousarray(be[:, z:]).tobytes()
        )
        out._n = n
        return out

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _suffix_width(self) -> int:
        return ID_BYTES - self._z

    def _repack(self, ids: Sequence[int]) -> None:
        """Recompute the widest valid prefix and re-encode every ID."""
        encoded = [_id_to_bytes(v) for v in ids]
        first = encoded[0]
        raw = ID_BYTES
        for e in encoded[1:]:
            raw = min(raw, common_prefix_length(first, e))
            if raw == 0:
                break
        z = _snap_prefix_length(min(raw, ID_BYTES - 1))
        width = ID_BYTES - z
        self._z = z
        self._prefix = first[:z]
        self._prefix_int = int.from_bytes(
            self._prefix + b"\x00" * width, "big"
        )
        buf = bytearray(len(encoded) * width)
        for i, e in enumerate(encoded):
            buf[i * width : (i + 1) * width] = e[z:]
        self._suffixes = buf
        self._n = len(encoded)

    def _decode(self, i: int) -> int:
        width = ID_BYTES - self._z
        base = i * width
        return self._prefix_int | int.from_bytes(
            self._suffixes[base : base + width], "big"
        )

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self._n:
            raise IndexOutOfRangeError(
                f"index {i} out of range for ID list of {self._n} elements"
            )

    # ------------------------------------------------------------------
    # read interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __iter__(self) -> Iterator[int]:
        width = self._suffix_width()
        prefix_int = self._prefix_int
        buf = self._suffixes
        from_bytes = int.from_bytes
        for i in range(self._n):
            yield prefix_int | from_bytes(buf[i * width : (i + 1) * width], "big")

    def __getitem__(self, i: int) -> int:
        self._check_index(i)
        return self._decode(i)

    def __contains__(self, vertex_id: int) -> bool:
        return self.index_of(vertex_id) is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CompressedIDList(n={self._n}, z={self._z})"

    def to_list(self) -> List[int]:
        """Decode the full ID list."""
        return list(self)

    def to_array(self):
        """Vectorized decode to an ``int64`` array (inverse of
        :meth:`from_array`).

        Rebuilds the big-endian byte matrix — prefix columns broadcast,
        suffix columns reshaped straight out of the packed buffer — and
        views it back as 64-bit integers, so flattening a leaf costs no
        per-ID Python work (the read image's reference flatten).
        """
        n = self._n
        if n == 0:
            return np.empty(0, dtype=np.int64)
        width = self._suffix_width()
        be = np.zeros((n, ID_BYTES), dtype=np.uint8)
        be[:, self._z :] = np.frombuffer(
            bytes(self._suffixes), dtype=np.uint8
        ).reshape(n, width)
        if self._z:
            be[:, : self._z] = np.frombuffer(self._prefix, dtype=np.uint8)
        return be.reshape(-1).view(">u8").astype(np.int64)

    def index_of(self, vertex_id: int) -> Optional[int]:
        """Linear membership scan over the packed buffer.

        Leaf ID lists are unordered (samtree constraint 2), so membership
        is a scan; it runs over the byte buffer with ``bytes.find`` on
        suffix-aligned offsets, skipping IDs whose prefix cannot match.
        """
        vertex_id = _check_id(vertex_id)
        if self._n == 0:
            return None
        encoded = _id_to_bytes(vertex_id)
        if encoded[: self._z] != self._prefix:
            return None
        needle = encoded[self._z :]
        width = self._suffix_width()
        buf = self._suffixes
        start = 0
        end = self._n * width
        while True:
            pos = buf.find(needle, start, end)
            if pos < 0:
                return None
            if pos % width == 0:
                return pos // width
            # Unaligned hit: resume from the next suffix boundary.
            start = pos + (width - pos % width)

    # ------------------------------------------------------------------
    # write interface
    # ------------------------------------------------------------------
    def append(self, vertex_id: int) -> None:
        """Append an ID; re-packs at a narrower prefix when needed."""
        vertex_id = _check_id(vertex_id)
        if self._n == 0:
            self._repack([vertex_id])
            return
        encoded = _id_to_bytes(vertex_id)
        if encoded[: self._z] == self._prefix:
            self._suffixes.extend(encoded[self._z :])
            self._n += 1
            return
        ids = self.to_list()
        ids.append(vertex_id)
        self._repack(ids)

    def extend(self, ids: Iterable[int]) -> None:
        """Append many IDs."""
        for v in ids:
            self.append(v)

    def set(self, i: int, vertex_id: int) -> None:
        """Overwrite position ``i`` (re-packs when the prefix breaks)."""
        self._check_index(i)
        vertex_id = _check_id(vertex_id)
        encoded = _id_to_bytes(vertex_id)
        if encoded[: self._z] == self._prefix:
            width = self._suffix_width()
            self._suffixes[i * width : (i + 1) * width] = encoded[self._z :]
            return
        ids = self.to_list()
        ids[i] = vertex_id
        self._repack(ids)

    def swap_delete(self, i: int) -> int:
        """Remove position ``i`` by swap-with-last; returns the removed ID.

        Matches the FSTable delete: position ``i`` afterwards holds what
        used to be the last ID.
        """
        self._check_index(i)
        removed = self._decode(i)
        width = self._suffix_width()
        last = self._n - 1
        if i != last:
            self._suffixes[i * width : (i + 1) * width] = self._suffixes[
                last * width : (last + 1) * width
            ]
        del self._suffixes[last * width :]
        self._n -= 1
        if self._n == 0:
            self._z = ALLOWED_PREFIX_LENGTHS[0]
            self._prefix = b""
            self._prefix_int = 0
        return removed

    def clear(self) -> None:
        """Remove all IDs."""
        self._z = ALLOWED_PREFIX_LENGTHS[0]
        self._prefix = b""
        self._prefix_int = 0
        self._suffixes = bytearray()
        self._n = 0

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Modeled bytes: ``1 (z) + z (prefix) + n * (8 - z)`` (Eq. 7)."""
        if self._n == 0:
            return 1
        return 1 + self._z + self._n * self._suffix_width()


class PlainIDList:
    """Uncompressed ID list with the same interface (the "w/o CP" twin)."""

    __slots__ = ("_ids",)

    def __init__(self, ids: Optional[Iterable[int]] = None) -> None:
        self._ids: List[int] = [_check_id(v) for v in ids] if ids else []

    @classmethod
    def from_array(cls, ids) -> "PlainIDList":
        """Vectorized construction (validation in one numpy pass)."""
        arr = np.asarray(ids, dtype=np.int64)
        out = cls()
        if arr.size and bool((arr < 0).any()):
            raise InvalidWeightError(
                f"vertex IDs must fit in {8 * ID_BYTES} unsigned bits, "
                f"got {int(arr.min())}"
            )
        out._ids = arr.tolist()
        return out

    def __len__(self) -> int:
        return len(self._ids)

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < len(self._ids):
            raise IndexOutOfRangeError(
                f"index {i} out of range for ID list of {len(self._ids)} elements"
            )
        return self._ids[i]

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self._ids

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PlainIDList(n={len(self._ids)})"

    def to_list(self) -> List[int]:
        return list(self._ids)

    def to_array(self):
        """Decode to an ``int64`` array (interface parity with CP-IDs)."""
        return np.asarray(self._ids, dtype=np.int64)

    def index_of(self, vertex_id: int) -> Optional[int]:
        try:
            return self._ids.index(vertex_id)
        except ValueError:
            return None

    def append(self, vertex_id: int) -> None:
        self._ids.append(_check_id(vertex_id))

    def extend(self, ids: Iterable[int]) -> None:
        for v in ids:
            self.append(v)

    def set(self, i: int, vertex_id: int) -> None:
        if not 0 <= i < len(self._ids):
            raise IndexOutOfRangeError(
                f"index {i} out of range for ID list of {len(self._ids)} elements"
            )
        self._ids[i] = _check_id(vertex_id)

    def swap_delete(self, i: int) -> int:
        if not 0 <= i < len(self._ids):
            raise IndexOutOfRangeError(
                f"index {i} out of range for ID list of {len(self._ids)} elements"
            )
        removed = self._ids[i]
        last = self._ids.pop()
        if i < len(self._ids):
            self._ids[i] = last
        return removed

    def clear(self) -> None:
        self._ids.clear()

    def nbytes(self) -> int:
        """Modeled bytes: one full 8-byte ID per element."""
        return ID_BYTES * len(self._ids)


def make_id_list(
    compress: bool, ids: Optional[Iterable[int]] = None
):
    """Factory: a compressed or plain ID list behind one interface."""
    return CompressedIDList(ids) if compress else PlainIDList(ids)


def pack_id_lists(compress: bool, ids: np.ndarray, lengths: np.ndarray) -> list:
    """One ID list per consecutive segment of ``ids`` (``lengths[j]``
    validated, *ascending* IDs each), byte for byte the list type's
    ``from_array`` of that segment.

    An ascending segment's shared big-endian prefix is that of its first
    and last ID, so every prefix class comes from one XOR of two
    gathered columns, and each class packs its suffixes with one
    narrowing cast (every allowed suffix width is an integer width).
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = []
    if not compress:
        values = ids.tolist()
        for a, b in zip(starts.tolist(), ends.tolist()):
            plain = PlainIDList.__new__(PlainIDList)
            plain._ids = values[a:b]
            out.append(plain)
        return out
    spread = ids[starts] ^ ids[ends - 1]
    widths = np.full(lengths.size, ID_BYTES, dtype=np.intp)
    for z in ALLOWED_PREFIX_LENGTHS[-2::-1]:  # widest prefix last
        widths[spread < (1 << (8 * (ID_BYTES - z)))] = ID_BYTES - z
    packed = {}
    offsets = np.empty(lengths.size, dtype=np.intp)  # into its class's bytes
    for width in np.unique(widths).tolist():
        mine = widths == width
        nbytes = lengths[mine] * width
        offsets[mine] = np.cumsum(nbytes) - nbytes
        packed[width] = (
            ids[np.repeat(mine, lengths)].astype(f">u{width}").tobytes()
        )
    for n, width, first, at in zip(
        lengths.tolist(), widths.tolist(), ids[starts].tolist(),
        offsets.tolist(),
    ):
        lst = CompressedIDList.__new__(CompressedIDList)
        lst._z = ID_BYTES - width
        lst._prefix = _id_to_bytes(first)[: lst._z]
        lst._prefix_int = first >> (8 * width) << (8 * width)
        lst._suffixes = bytearray(packed[width][at : at + n * width])
        lst._n = n
        out.append(lst)
    return out


def decode_id_lists(lists: Sequence):
    """Decode many ID lists into one ``int64`` array, in list order.

    Equal, bit for bit, to concatenating every list's ``to_array()``,
    but the packed suffix bytes of all lists that share a prefix length
    are joined and decoded together (every allowed suffix width is a
    machine integer width, so a class decodes with one ``frombuffer``)
    — the batched read path (:mod:`repro.core.snapshot`) flattens
    hundreds of small leaves per call, where one numpy round trip per
    leaf is the whole cost.
    """
    zs = [ids._z if type(ids) is CompressedIDList else -1 for ids in lists]
    classes = set(zs)
    if len(classes) != 1:
        # The prefix class of every decoded ID: where each class scatters.
        owner = np.repeat(np.asarray(zs, dtype=np.int64), list(map(len, lists)))
        out = np.empty(owner.size, dtype=np.int64)
    for z in classes:
        picked = [ids for ids, own in zip(lists, zs) if own == z]
        if z < 0:  # plain lists
            values = np.asarray(
                [v for ids in picked for v in ids._ids], dtype=np.int64
            )
        else:
            values = np.frombuffer(
                b"".join([ids._suffixes for ids in picked]),
                dtype=f">u{ID_BYTES - z}",
            ).astype(np.uint64)
            if z:
                values |= np.repeat(
                    np.asarray(
                        [ids._prefix_int for ids in picked], dtype=np.uint64
                    ),
                    [ids._n for ids in picked],
                )
            values = values.view(np.int64)
        if len(classes) == 1:
            return values
        out[owner == z] = values
    return out
