"""FSTable: the Fenwick-tree-based sum table of PlatoD2GL (paper §V-A).

The FSTable is the sampling index attached to every *leaf* node of a
samtree.  For a leaf holding the weight array ``A = [w_0, ..., w_{n-1}]``
(indices are 0-based as in the paper), the table stores

    F[i] = sum(A[g(i) + 1 : i + 1])      with  g(i) = i - LSB(i + 1)

where ``LSB(x)`` is the value of the lowest set bit of ``x``.  The paper
calls these *soft prefix sums*: each entry covers a power-of-two aligned
range ending at its own index, which is exactly the classic Fenwick (binary
indexed tree) layout shifted to 0-based indices.

Compared with the flat cumulative-sum table (CSTable) used by PlatoGL,
every dynamic operation is logarithmic (paper Table II):

==================  =========  ==========
operation           CSTable    FSTable
==================  =========  ==========
append (insert)     O(1)       O(log n)
in-place update     O(n)       O(log n)
delete              O(n)       O(log n)
weighted sample     O(log n)   O(log n)
==================  =========  ==========

Sampling uses the paper's FTS method (Algorithm 5): a *range-narrow*
binary search over the padded range ``[0, 2^m - 1]`` that exploits the
sub-tree-sum property ``F[2^k - 1] == prefix_sum(2^k - 1)`` (Theorem 4),
subtracting covered mass when descending to the right half.

The Fenwick entries are an *index*: sums of floats cannot be differenced
back into the addends bit for bit, so the table also keeps the weights
themselves in one packed float64 column and every mutator below moves
the pair together.  A weight read back is the weight written.
"""

from __future__ import annotations

import random
from array import array
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.core.memory import WEIGHT_BYTES
from repro.errors import (
    EmptyStructureError,
    IndexOutOfRangeError,
    InvalidWeightError,
)

__all__ = [
    "FSTable", "ROW_PAD", "build_tables", "cumsum_rows", "join_weight_columns",
    "pad_rows",
]

#: Rows up to this long are processed as one zero-padded matrix per batch
#: by the read image (:func:`pad_rows`) and paired in rounds by the alias
#: builder, a row's cells one bit each of an int64 mask (so at most 62);
#: 99 % of a power-law graph's rows.
ROW_PAD = 16


_INF = float("inf")


def _validate_weight(weight: float) -> float:
    weight = float(weight)
    # weight != weight catches NaN without a math-module call.
    if weight < 0.0 or weight != weight or weight == _INF:
        raise InvalidWeightError(
            f"edge weights must be finite and non-negative, got {weight!r}"
        )
    return weight


class FSTable:
    """Fenwick-tree sum table over a leaf's (unordered) weight array.

    ``_tree`` holds the Fenwick entries every sampling and update walk
    uses; ``_weights`` holds the exact weights (``array('d')``, 8 B per
    edge) that ``weight`` / ``to_weights`` / ``to_weight_array`` return.
    The paper's C layout keeps only the entries, and :meth:`nbytes`
    accounts that layout (DESIGN.md §2).

    Parameters
    ----------
    weights:
        Optional initial weights.  Building from ``n`` weights costs
        ``O(n)`` using the child-accumulation construction.
    """

    __slots__ = ("_tree", "_weights")

    def __init__(self, weights: Optional[Iterable[float]] = None) -> None:
        self._tree: List[float] = []
        self._weights = array("d")
        if weights is not None:
            self._build(list(weights))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, weights: Sequence[float]) -> None:
        """O(n) bulk construction: start from raw weights then push each
        entry into its parent, the standard linear Fenwick build.

        Every element is visited exactly once and charged one addition
        into its unique parent ``i + LSB(i + 1)`` — linear in ``n``, in
        contrast to the ``O(n log n)`` insert-loop (`append` per
        element).
        """
        tree = [_validate_weight(w) for w in weights]
        self._weights = array("d", tree)
        n = len(tree)
        for i in range(n):
            parent = i | (i + 1)  # == i + lsb(i + 1)
            if parent < n:
                tree[parent] += tree[i]
        self._tree = tree

    @classmethod
    def from_array(cls, weights) -> "FSTable":
        """Vectorized O(n) construction from a numpy weight array.

        Runs the same child-propagation build as :meth:`_build` but one
        Fenwick *level* at a time — all elements whose entry covers a
        range of ``step`` elements push into their parents in one
        vectorized add — so the Python-level work is ``O(log n)`` array
        ops instead of ``O(n)`` scalar iterations.  The per-leaf
        reference the segmented :func:`build_tables` is tested against
        (DESIGN.md §9).
        """
        arr = np.asarray(weights, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidWeightError(
                f"weights must be one-dimensional, got shape {arr.shape}"
            )
        n = int(arr.size)
        table = cls()
        if n == 0:
            return table
        if not bool(np.isfinite(arr).all()) or bool((arr < 0.0).any()):
            bad = arr[~(np.isfinite(arr) & (arr >= 0.0))][0]
            raise InvalidWeightError(
                f"edge weights must be finite and non-negative, got {bad!r}"
            )
        tree = arr.copy()
        step = 1
        while step < n:
            # Indices i with LSB(i + 1) == step and parent i + step < n.
            idx = np.arange(step - 1, n - step, step << 1)
            if idx.size:
                tree[idx + step] += tree[idx]
            step <<= 1
        table._tree = tree.tolist()
        table._weights = array("d", arr.tobytes())
        return table

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FSTable(n={len(self._tree)}, total={self.total():.6g})"

    def __iter__(self) -> Iterator[float]:
        """Iterate over *raw* weights (not Fenwick entries) in ``O(n)``."""
        return iter(self.to_weights())

    def entry(self, i: int) -> float:
        """Return the raw Fenwick entry ``F[i]`` (mostly for tests/debug)."""
        self._check_index(i)
        return self._tree[i]

    def _check_index(self, i: int) -> None:
        if not 0 <= i < len(self._tree):
            raise IndexOutOfRangeError(
                f"index {i} out of range for FSTable of {len(self._tree)} elements"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def prefix_sum(self, i: int) -> float:
        """Return ``w_0 + ... + w_i`` in ``O(log n)``."""
        self._check_index(i)
        total = 0.0
        j = i
        while j >= 0:
            total += self._tree[j]
            j = (j & (j + 1)) - 1  # strip the range covered by F[j]
        return total

    def total(self) -> float:
        """Sum of all weights — the paper's ``getAllSum`` (Algorithm 5).

        Walks ``i <- i - LSB(i)`` from ``n`` down to ``0`` in ``O(log n)``.
        """
        tree = self._tree
        s = 0.0
        i = len(tree)
        while i > 0:
            s += tree[i - 1]
            i -= i & -i
        return s

    def weight(self, i: int) -> float:
        """The raw weight ``w_i``, exactly as written."""
        self._check_index(i)
        return self._weights[i]

    def to_weights(self) -> List[float]:
        """The raw weight array as a list, exactly as written."""
        return self._weights.tolist()

    def to_weight_array(self):
        """The raw weight array as a fresh float64 ndarray — the leaf
        *reader* of the flattening paths
        (:func:`repro.core.snapshot.flatten_tree`)."""
        return np.array(self._weights, dtype=np.float64)

    # ------------------------------------------------------------------
    # dynamic updates (paper Algorithms 3 and 4)
    # ------------------------------------------------------------------
    def _push(self, i: int, delta: float) -> None:
        """Add ``delta`` to every Fenwick entry covering index ``i``."""
        tree = self._tree
        n = len(tree)
        while i < n:
            tree[i] += delta
            i |= i + 1  # == i + lsb(i + 1)

    def update(self, i: int, new_weight: float) -> float:
        """Set ``w_i`` to ``new_weight`` — Algorithm 3 (in-place update);
        returns the previous weight.

        Adds the difference to every Fenwick entry whose range covers
        ``i`` by walking ``i <- i + LSB(i + 1)``; ``O(log n)``.
        """
        new_weight = _validate_weight(new_weight)
        self._check_index(i)
        old = self._weights[i]
        self._weights[i] = new_weight
        delta = new_weight - old
        if delta:
            self._push(i, delta)
        return old

    def append(self, weight: float) -> int:
        """Append a new weight at index ``n`` — Algorithm 4 (new insertion).

        The new entry ``F[n]`` must cover ``[g(n)+1, n]``; its value is the
        new weight plus the entries of its children, found by enumerating
        the trailing-zero count ``k`` of candidate child indices.  Returns
        the index of the appended element.  ``O(log n)``.
        """
        weight = _validate_weight(weight)
        tree = self._tree
        i = len(tree)
        s = weight
        step = 1
        limit = i + 1
        while step < limit:
            x1 = i - step + 1  # candidate child index + 1
            if x1 > 0 and x1 & -x1 == step:
                s += tree[x1 - 1]
            step <<= 1
        tree.append(s)
        self._weights.append(weight)
        return i

    def delete(self, i: int) -> float:
        """Delete the element at ``i`` by swap-with-last (paper §V-A.2).

        Mirrors the leaf-node semantics: the element at ``i`` is replaced
        by the last element, then the table shrinks by one.  The caller
        must apply the *same swap* to the leaf's ID list.  Returns the
        deleted weight.  ``O(log n)``.
        """
        self._check_index(i)
        # F entries with index < last never cover index `last` (every
        # range [g(j)+1, j] ends at j), so truncating the entries is exact.
        self._tree.pop()
        moved = self._weights.pop()
        if i == len(self._tree):
            return moved
        deleted = self._weights[i]
        self._weights[i] = moved
        self._push(i, moved - deleted)
        return deleted

    def extend(self, weights: Iterable[float]) -> None:
        """Append many weights (each in ``O(log n)``)."""
        for w in weights:
            self.append(w)

    def clear(self) -> None:
        """Remove all elements."""
        self._tree.clear()
        del self._weights[:]

    # ------------------------------------------------------------------
    # FTS sampling (paper Algorithm 5)
    # ------------------------------------------------------------------
    def sample_with(self, r: float) -> int:
        """Deterministic FTS: return the index ``p`` selected by mass ``r``.

        ``r`` must lie in ``[0, total())``.  Equivalent to the ITS rule of
        finding the smallest ``i`` with ``prefix_sum(i) > r`` but computed
        directly on the soft prefix sums via range narrowing.
        """
        n = len(self._tree)
        if n == 0:
            raise EmptyStructureError("cannot sample from an empty FSTable")
        if r < 0:
            raise InvalidWeightError(f"sampling mass must be non-negative, got {r}")
        # Pad the search range to the next power of two (paper line 3).
        tree = self._tree
        m = 1
        while m < n:
            m <<= 1
        left, right = 0, m - 1
        remaining = r
        while left < right:
            mid = (left + right) >> 1
            if mid >= n:
                right = mid
                continue
            value = tree[mid]
            if value > remaining:
                right = mid
            else:
                remaining -= value
                left = mid + 1
        if left >= n:
            # Only reachable when r >= total() (caller passed too much mass);
            # clamp to the last valid element for robustness.
            left = n - 1
        return left

    def sample(self, rng: Optional[random.Random] = None) -> int:
        """Draw one index with probability proportional to its weight."""
        total = self.total()
        if total <= 0.0:
            if not self._tree:
                raise EmptyStructureError("cannot sample from an empty FSTable")
            # All-zero weights degenerate to uniform sampling.
            rand = rng.random() if rng is not None else random.random()
            return int(rand * len(self._tree)) % len(self._tree)
        rand = rng.random() if rng is not None else random.random()
        return self.sample_with(rand * total)

    def sample_many(
        self, k: int, rng: Optional[random.Random] = None
    ) -> List[int]:
        """Draw ``k`` indices with replacement (``O(k log n)``)."""
        if k < 0:
            raise IndexOutOfRangeError(f"sample count must be >= 0, got {k}")
        return [self.sample(rng) for _ in range(k)]

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Bytes the paper's C layout uses: one weight-sized slot per
        element (there the FSTable replaces — not supplements — the raw
        weights; this class's exact column is a host cost, DESIGN.md §2).
        """
        return WEIGHT_BYTES * len(self._tree)


def build_tables(weights: np.ndarray, lengths: np.ndarray) -> List[FSTable]:
    """One table per consecutive segment of ``weights`` (``lengths[j]``
    validated elements each), bit for bit :meth:`FSTable.from_array` of
    that segment.

    The same level-by-level build over every segment at once: a push is
    masked by position within its segment, so none crosses a boundary
    and each entry receives its children in ``from_array``'s order.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    tree = np.array(weights, dtype=np.float64)
    column = array("d", tree.tobytes())
    starts = np.cumsum(lengths) - lengths
    live = np.arange(tree.size)  # elements with LSB(position + 1) >= step
    position = live - np.repeat(starts, lengths)
    room = np.repeat(lengths, lengths) - position  # elements to segment end
    step = 1
    while live.size:
        pushes = ((position[live] + 1) & step) != 0
        idx = live[pushes]
        idx = idx[room[idx] > step]  # the parent lies inside the segment
        tree[idx + step] += tree[idx]
        live = live[~pushes]
        step <<= 1
    entries = tree.tolist()
    tables = []
    for a, b in zip(starts.tolist(), (starts + lengths).tolist()):
        table = FSTable.__new__(FSTable)
        table._tree = entries[a:b]
        table._weights = column[a:b]
        tables.append(table)
    return tables


def join_weight_columns(tables: Sequence["FSTable"]):
    """The weight columns of many tables as one float64 array — every
    table's :meth:`FSTable.to_weight_array`, concatenated in one copy
    (the batched leaf reader of :mod:`repro.core.snapshot`)."""
    return np.frombuffer(
        b"".join([table._weights for table in tables]), dtype=np.float64
    )


def pad_rows(column, start, length, width: int = ROW_PAD):
    """Rows ``column[start[r] : start[r] + length[r]]`` (every length
    at most ``width``) as one zero-padded ``(rows, width)`` matrix, with
    the flat position of every cell and the mask of the cells that lie
    inside their row — so a per-row pass over many short rows is one 2-D
    numpy pass (:mod:`repro.core.snapshot`, :mod:`repro.core.slab`)."""
    cols = np.arange(width)
    pos = start[:, None] + cols
    inside = cols < length[:, None]
    return np.where(inside, column.take(pos, mode="clip"), 0.0), pos, inside


def cumsum_rows(column, start, length, out, width: int = ROW_PAD) -> None:
    """``out[a:b] = np.cumsum(column[a:b])`` for every row ``a =
    start[r]``, ``b = a + length[r]`` (none empty), bit for bit.  Rows
    of at most ``width`` entries take a 2-D ``cumsum`` per 1 024 of them
    (bounded scratch), zero-padded to the longest: a running sum along an
    axis adds left to right, and trailing zero pads change no earlier
    prefix.  Longer rows take one call each."""
    short = length <= width
    rows = np.flatnonzero(short)
    for lo in range(0, rows.size, 1024):
        part = rows[lo : lo + 1024]
        width = int(length[part].max())
        padded, pos, inside = pad_rows(column, start[part], length[part], width)
        out[pos[inside]] = np.cumsum(padded, axis=1)[inside]
    for a, b in zip(start[~short].tolist(), (start + length)[~short].tolist()):
        np.cumsum(column[a:b], out=out[a:b])
