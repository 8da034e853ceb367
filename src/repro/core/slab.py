"""The slab: small adjacencies as rows of two flat columns (DESIGN.md §9).

Most vertices of a power-law graph hold a handful of edges, and most
dynamic updates land on them (paper Table V).  A samtree for such a
vertex is one leaf — and, in this substrate, six Python objects chased
per operation.  The store therefore keeps every source whose adjacency
fits one leaf (``degree <= c``) as a **row** of one :class:`Slab`
instead (the degree-aware layout of LHGstore, the in-place array blocks
of GNNFlow), and promotes it to a samtree when an insert would take it
past ``c``:

* three arena columns, ``ids`` (int64), ``weights`` (float64, exact)
  and ``cum`` (the leaf's sum table, kept on write: ``np.cumsum`` of
  the row's weights, bit for bit, so the read image draws a row where
  it lies), per-row ``start / length / room / version / src`` columns with a
  free-row list.  Row 0 is never handed out, so a directory value is a
  slab row exactly when it is a non-zero ``int``;
* a row owns ``room`` arena slots — a power of two from
  :data:`ROW_MIN_ROOM` up, clipped to ``c`` — appends in place, deletes
  by swap-with-last (the leaf's own discipline, so a row holds its
  neighbours in the order the one-leaf samtree would) and relocates to
  twice the room when full; the segment it leaves is garbage;
* once garbage passes ``1 / GARBAGE_DIVISOR`` of the live slots one
  vectorised pass rewrites the arena (:meth:`Slab.settle`).

Every :class:`Slab` method takes *validated* input and none takes
:attr:`Slab.lock`: the store checks weights and ids at its entry points
and holds the (re-entrant) lock around whatever touches a row, because
rows of different sources share the two arena arrays and a relocation or
compaction moves them; the :class:`SlabRow` view locks its own reads.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.compression import ALLOWED_PREFIX_LENGTHS, ID_BYTES
from repro.core.fenwick import cumsum_rows
from repro.core.ingest import OP_DELETE, OP_INSERT
from repro.core.memory import MemoryModel
from repro.core.samtree import OpStats, _check_weight
from repro.errors import InvariantViolationError

__all__ = ["Slab", "SlabRow", "ROW_MIN_ROOM", "ROUND_PAD", "MAX_ROW_ID"]

#: Smallest room a row is given (clipped to the capacity ``c``).
ROW_MIN_ROOM = 8

#: Rows longer than this are left to the scalar op by the round kernel:
#: its ``(groups, longest row)`` matrix would pay for one hub per batch.
ROUND_PAD = 32

#: Compact once garbage exceeds ``live slots / GARBAGE_DIVISOR`` (and a
#: floor below which a rewrite is not worth its fixed cost).
GARBAGE_DIVISOR = 4
_GARBAGE_FLOOR = 1024

#: The largest id the ``int64`` columns hold.  A samtree takes all 64
#: bits, so the store keeps a source with a wider id (its own or a
#: neighbour's) as a tree.
MAX_ROW_ID = (1 << 63) - 1

_COLS = np.arange(ROUND_PAD)
_ROW_COLUMNS = ("start", "length", "room", "version", "src")
_ARENA_COLUMNS = ("ids", "weights", "cum")


class Slab:
    """The rows of one store (see the module docstring)."""

    __slots__ = (
        "capacity", "stats", "lock", "rows", "free", "used", "garbage",
    ) + _ROW_COLUMNS + _ARENA_COLUMNS

    def __init__(self, capacity: int, stats: OpStats) -> None:
        self.capacity = capacity
        self.stats = stats  #: the store's ``OpStats``: row ops are leaf ops
        self.lock = threading.RLock()
        self.ids = np.empty(1024, dtype=np.int64)
        self.weights = np.empty(1024, dtype=np.float64)
        self.cum = np.empty(1024, dtype=np.float64)
        for name in _ROW_COLUMNS:
            setattr(self, name, np.zeros(64, dtype=np.int64))
        self.rows = 1  #: row slots handed out, the reserved row 0 included
        self.free: List[int] = []  #: released rows (``room == 0``)
        self.used = 0  #: arena slots handed out, garbage included
        self.garbage = 0  #: arena slots of relocated or released rows

    # -- room ---------------------------------------------------------------
    def _reserve(self, rows: int, slots: int) -> None:
        """Space for ``rows`` more row slots and ``slots`` arena slots."""
        need = self.rows + rows
        if need > self.start.size:
            for name in _ROW_COLUMNS:
                grown = np.zeros(max(need, 2 * self.start.size), dtype=np.int64)
                grown[: self.rows] = getattr(self, name)[: self.rows]
                setattr(self, name, grown)
        need = self.used + slots
        if need > self.ids.size:
            size = max(need, self.ids.size + self.ids.size // 2)
            for name in _ARENA_COLUMNS:
                old = getattr(self, name)
                grown = np.empty(size, dtype=old.dtype)
                grown[: self.used] = old[: self.used]
                setattr(self, name, grown)

    def _room_for(self, length: np.ndarray) -> np.ndarray:
        """The smallest power of two holding ``length`` entries, between
        ``ROW_MIN_ROOM`` and ``c``."""
        room = np.left_shift(1, np.frexp(length - 1)[1]).astype(np.int64)
        cap = self.capacity
        return np.clip(room, min(ROW_MIN_ROOM, cap), cap)

    def _span(self, start: np.ndarray, length: np.ndarray) -> np.ndarray:
        """The arena positions of rows ``start[i] : start[i] + length[i]``,
        back to back (one ragged index)."""
        ends = np.cumsum(length)
        return np.repeat(start - ends + length, length) + np.arange(
            int(ends[-1]) if ends.size else 0
        )

    # -- allocation ---------------------------------------------------------
    def alloc_many(
        self, srcs: np.ndarray, length: np.ndarray,
        ids: np.ndarray, weights: np.ndarray,
    ) -> np.ndarray:
        """New rows for ``srcs``: ``ids`` / ``weights`` hold their
        adjacency back to back (``length[i]`` entries each, at most
        ``c``), placed by one segmented scatter.  Returns the rows."""
        reuse = min(len(self.free), length.size)
        fresh = length.size - reuse
        room = self._room_for(length)
        ends = np.cumsum(room)
        self._reserve(fresh, int(ends[-1]))
        cut = len(self.free) - reuse
        rows = np.concatenate([
            np.asarray(self.free[cut:], dtype=np.int64),
            np.arange(self.rows, self.rows + fresh),
        ])
        del self.free[cut:]
        self.rows += fresh
        start = self.used + ends - room
        self.used += int(ends[-1])
        at = self._span(start, length)
        self.ids[at] = ids
        self.weights[at] = weights
        cumsum_rows(self.weights, start, length, self.cum)
        self.src[rows] = srcs
        self.start[rows] = start
        self.length[rows] = length
        self.room[rows] = room
        self.version[rows] += 1
        return rows

    def release(self, row: int) -> None:
        """Give ``row`` back (its source left the slab); its segment is
        garbage.  Settles: hold no arena position across it."""
        self.garbage += self.room.item(row)
        self.length[row] = self.room[row] = 0
        self.free.append(row)
        self.settle()

    def grow(self, rows: np.ndarray) -> None:
        """Relocate full ``rows`` (distinct, below ``c``) to twice the
        room, in one ragged copy."""
        room = self.room[rows]
        wider = np.minimum(2 * room, self.capacity)
        ends = np.cumsum(wider)
        self._reserve(0, int(ends[-1]))
        start = self.used + ends - wider
        length = self.length[rows]
        old = self._span(self.start[rows], length)
        new = self._span(start, length)
        for column in (self.ids, self.weights, self.cum):
            column[new] = column[old]
        self.used += int(ends[-1])
        self.garbage += int(room.sum())
        self.start[rows] = start
        self.room[rows] = wider

    def _grow_one(self, row: int, n: int) -> int:
        """:meth:`grow` for one row of ``n`` entries, by slices (a tenth
        of the ragged copy's fixed cost, and most scalar appends meet a
        full row: a loaded row's room is its length rounded up); returns
        its new start."""
        self.settle()  # no position is held here
        a = self.start.item(row)
        room = self.room.item(row)
        wider = min(2 * room, self.capacity)
        self._reserve(0, wider)
        b = self.used
        for column in (self.ids, self.weights, self.cum):
            column[b : b + n] = column[a : a + n]
        self.used = b + wider
        self.garbage += room
        self.start[row] = b
        self.room[row] = wider
        return b

    def settle(self) -> None:
        """Compact if garbage says so.  Moves every row: call between
        operations, never while arena positions are held."""
        garbage = self.garbage
        if garbage > _GARBAGE_FLOOR and (
            garbage * GARBAGE_DIVISOR > self.used - garbage
        ):
            self.compact()

    def live_rows(self) -> np.ndarray:
        """The rows in use, ascending."""
        return np.flatnonzero(self.room[: self.rows])

    def compact(self) -> None:
        """Rewrite the arena with the live rows back to back, each
        keeping its room and its order."""
        live = self.live_rows()
        room = self.room[live]
        length = self.length[live]
        ends = np.cumsum(room)
        start = ends - room
        old = self._span(self.start[live], length)
        new = self._span(start, length)
        for column in (self.ids, self.weights, self.cum):
            column[new] = column.take(old)
        self.start[live] = start
        self.used = int(ends[-1]) if live.size else 0
        self.garbage = 0

    # -- scalar row operations ----------------------------------------------
    def _find(self, row: int, dst: int) -> Tuple[int, int, int]:
        """``(start, length, index of dst or -1)`` of ``row``."""
        a = self.start.item(row)
        n = self.length.item(row)
        seg = self.ids[a : a + n].tolist()
        return a, n, seg.index(dst) if dst in seg else -1

    def apply(
        self, row: int, code: int, dst: int, weight: float, add: bool = False
    ) -> Optional[bool]:
        """One scalar operation on ``row`` — an insert stores ``dst`` or
        overwrites (``add``: adds onto) its weight, an update overwrites
        an existing neighbour only, a delete swaps the last entry into
        its place (the caller releases a row left empty).  Returns the
        outcome (inserts: "was new", else "existed"), or ``None``,
        nothing done, for a new ``dst`` on a row already holding ``c``
        edges: the caller promotes."""
        a, n, i = self._find(row, dst)
        if code == OP_INSERT and i < 0:
            if n == self.room.item(row):
                if n >= self.capacity:
                    return None
                a = self._grow_one(row, n)
            self.ids[a + n] = dst
            self.weights[a + n] = weight
            self.cum[a + n] = self.cum.item(a + n - 1) + weight if n else weight
            self.length[row] = n + 1
        elif i < 0:
            return False
        elif code == OP_DELETE:
            last = a + n - 1
            self.ids[a + i] = self.ids[last]
            self.weights[a + i] = self.weights[last]
            self.length[row] = n - 1
            self._resum(a + i, a + n - 1, i > 0)
        else:
            if add:
                weight = _check_weight(self.weights.item(a + i) + weight)
            self.weights[a + i] = weight
            self._resum(a + i, a + n, i > 0)
        self.version[row] += 1
        self.stats.leaf_ops += 1
        return i < 0 or code != OP_INSERT

    def _resum(self, lo: int, hi: int, carry: bool) -> None:
        """Re-sum a row's tail ``cum[lo:hi]`` in Python floats, from
        ``cum[lo - 1]`` when ``carry``: ``np.cumsum``'s adds, in order."""
        tail = self.weights[lo:hi].tolist()
        if tail:
            if carry:
                tail[0] += self.cum.item(lo - 1)
            self.cum[lo:hi] = list(accumulate(tail))

    # -- the round kernel ---------------------------------------------------
    def apply_round(
        self, rows: np.ndarray, dst: np.ndarray, code: np.ndarray,
        weight: np.ndarray,
    ) -> Tuple[np.ndarray, int, int]:
        """One folded op on each of ``rows`` (distinct): the touched
        rows gathered into one padded matrix, each ``dst`` found by one
        compare + ``argmax``, then one masked scatter each for weight
        overwrite, swap-delete and append (full rows grow first).

        Returns ``(left, appended, deleted)``: ``left`` marks the ops
        not applied — a row longer than ``ROUND_PAD``, an append to a
        row at ``c`` (a promotion) or the delete of a row's last edge —
        which the caller runs through the scalar operation.
        """
        start = self.start[rows]
        length = self.length[rows]
        cols = _COLS[: min(int(length.max()), ROUND_PAD)]
        hit = self.ids.take(start[:, None] + cols, mode="clip") == dst[:, None]
        # Entries precede a row's slack: the first match is an entry's.
        at = hit.argmax(axis=1)
        found = hit[np.arange(rows.size), at]
        found &= at < length
        delete = code == OP_DELETE
        append = code == OP_INSERT
        append &= ~found
        full = append & (length == self.room[rows])
        left = length > ROUND_PAD
        left |= full & (length >= self.capacity)
        left |= found & delete & (length == 1)
        if left.any():
            keep = ~left
            found &= keep
            append &= keep
            full &= keep
        if full.any():
            self.grow(rows[full])
            start = self.start[rows]
        at += start
        drop = found & delete
        store = found ^ drop
        self.weights[at[store]] = weight[store]
        deleted = int(np.count_nonzero(drop))
        if deleted:
            gap = at[drop]
            last = start[drop] + length[drop] - 1
            self.ids[gap] = self.ids[last]
            self.weights[gap] = self.weights[last]
            self.length[rows[drop]] = length[drop] - 1
        appended = int(np.count_nonzero(append))
        if appended:
            end = start[append] + length[append]
            self.ids[end] = dst[append]
            self.weights[end] = weight[append]
            self.cum[end] = self.cum[end - 1] + weight[append]
            self.length[rows[append]] = length[append] + 1
        if found.any():  # an overwrite or a swap-delete re-sums its row
            cumsum_rows(
                self.weights, start[found], self.length[rows[found]], self.cum,
                cols.size,
            )
        touched = rows[found | append]
        self.version[touched] += 1
        self.stats.leaf_ops += touched.size
        return left, appended, deleted

    # -- reads --------------------------------------------------------------
    def view(self, row: int) -> "SlabRow":
        """The read-only, tree-shaped view of ``row``."""
        return SlabRow(self, row)

    def arrays(self, row: int) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the ``(ids, weights)`` of ``row``."""
        a = self.start.item(row)
        b = a + self.length.item(row)
        return self.ids[a:b].copy(), self.weights[a:b].copy()

    def neighbors(self, row: int) -> List[Tuple[int, float]]:
        a = self.start.item(row)
        b = a + self.length.item(row)
        return list(zip(self.ids[a:b].tolist(), self.weights[a:b].tolist()))

    def gather(self, rows) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """The adjacency of ``rows`` back to back — ``(ids, weights)``
        by one ragged gather, then their lengths: what ``freeze`` copies
        into the read image and ``save_store`` writes."""
        rows = np.asarray(rows, dtype=np.int64)
        length = self.length[rows]
        at = self._span(self.start[rows], length)
        return self.ids.take(at), self.weights.take(at), length.tolist()

    def sample(
        self, row: int, k: int, rng: Optional[random.Random], weighted: bool
    ) -> List[int]:
        """``k`` (>= 0) draws with replacement by inverse transform over
        the row's ``cum`` — the read image's rule: a zero-weight edge is
        never drawn, an all-zero row draws uniformly."""
        rng = rng or random
        a = self.start.item(row)
        n = self.length.item(row)
        ids = self.ids[a : a + n].tolist()
        if weighted:
            cum = self.cum[a : a + n].tolist()
            total = cum[-1]
            if total > 0.0:
                last = n - 1  # the guard against round-up at the top
                return [
                    ids[min(bisect_right(cum, rng.random() * total), last)]
                    for _ in range(k)
                ]
        return [ids[rng.randrange(n)] for _ in range(k)]

    # -- accounting & validation ----------------------------------------------
    def nbytes_parts(self, model: MemoryModel, compress: bool) -> Tuple[int, int]:
        """``(leaf_nodes, fstables)`` bytes of the paper's layout of the
        live rows: each charged as the one-leaf samtree it stands for —
        a node header, its CP-IDs list ``1 + z + n * (8 - z)`` (``8 n``
        uncompressed) and ``n`` FSTable entries — in one pass."""
        live = self.live_rows()
        length = self.length[live]
        edges = int(length.sum())
        leaf_nodes = model.tree_node_header_bytes * live.size
        if not compress:
            leaf_nodes += ID_BYTES * edges
        elif live.size:
            ends = np.cumsum(length)
            ids = self.ids.take(self._span(self.start[live], length))
            first = ends - length
            spread = np.bitwise_or.reduceat(
                ids ^ np.repeat(ids[first], length), first
            )
            width = np.full(live.size, ID_BYTES, dtype=np.int64)
            for z in ALLOWED_PREFIX_LENGTHS[-2::-1]:  # widest prefix last
                width[spread < (1 << (8 * (ID_BYTES - z)))] = ID_BYTES - z
            leaf_nodes += int((1 + ID_BYTES - width + length * width).sum())
        return leaf_nodes, model.weight_bytes * edges

    def check(self, rows: List[int], srcs: List[int]) -> int:
        """Validate the slab against the directory's ``rows`` (and the
        ``srcs`` that own them); returns the edges they hold."""
        live = self.live_rows()
        held = np.asarray(rows, dtype=np.int64)
        free = np.asarray(self.free, dtype=np.int64)
        start, room = self.start[live], self.room[live]
        order = np.argsort(start)
        for broken, why in (
            (not np.array_equal(np.sort(held), live),
             "live rows are not the directory's rows"),
            (np.union1d(free, live).size != self.rows - 1
             or free.size + live.size != self.rows - 1,
             "free rows and live rows do not partition the row slots"),
            (not np.array_equal(self.src[held], np.asarray(srcs, np.int64)),
             "a row's src disagrees with its directory key"),
            ((start < 0).any()
             or ((start + room)[order][:-1] > start[order][1:]).any()
             or int(room.sum()) + self.garbage != self.used,
             "row segments overlap, or room + garbage != slots handed out"),
        ):
            if broken:
                raise InvariantViolationError(f"slab: {why}")
        return self.check_rows(live)

    def check_rows(self, rows: np.ndarray) -> int:
        """Validate the content of ``rows`` — ``1 <= length <= room <=
        c``, ids unique and non-negative, weights finite and
        non-negative, ``cum`` ``==`` each row's ``np.cumsum`` of them;
        returns the edges they hold."""
        length, room = self.length[rows], self.room[rows]
        if (length < 1).any() or (length > room).any() or (
            room > self.capacity
        ).any():
            raise InvariantViolationError("slab: a row breaks 1 <= length <= room <= c")
        at = self._span(self.start[rows], length)
        ids, weights = self.ids.take(at), self.weights.take(at)
        cum = np.empty_like(weights)
        cumsum_rows(weights, np.cumsum(length) - length, length, cum)
        owner = np.repeat(np.arange(rows.size), length)
        order = np.lexsort((ids, owner))
        ids, owner = ids[order], owner[order]
        for broken, why in (
            ((ids < 0).any(), "negative neighbour id"),
            (((ids[1:] == ids[:-1]) & (owner[1:] == owner[:-1])).any(),
             "duplicate neighbour id in a row"),
            (not np.isfinite(weights).all() or (weights < 0.0).any(),
             "edge weights must be finite and non-negative"),
            (not np.array_equal(self.cum.take(at), cum),
             "cum is not the running sum of a row's weights"),
        ):
            if broken:
                raise InvariantViolationError(f"slab: {why}")
        return int(length.sum())


class SlabRow:
    """Read-only view of one slab row, shaped like the one-leaf samtree
    it stands for (what ``store.tree(src)`` returns for a small source).
    Live: it reads the row's current state, and is meaningless once the
    row is released or promoted."""

    __slots__ = ("_slab", "_row")
    height = 1  #: the depth the doctor reports a row at

    def __init__(self, slab: Slab, row: int) -> None:
        self._slab = slab
        self._row = row

    @property
    def degree(self) -> int:
        return self._slab.length.item(self._row)

    def __len__(self) -> int:
        return self.degree

    @property
    def version(self) -> int:
        return self._slab.version.item(self._row)

    @property
    def total_weight(self) -> float:
        """The last entry of the row's ``cum`` (what a draw scales by)."""
        slab, row = self._slab, self._row
        with slab.lock:
            return slab.cum.item(slab.start.item(row) + slab.length.item(row) - 1)

    def get_weight(self, vertex_id: int) -> Optional[float]:
        with self._slab.lock:
            a, _, i = self._slab._find(self._row, vertex_id)
            return self._slab.weights.item(a + i) if i >= 0 else None

    def items(self) -> Iterator[Tuple[int, float]]:
        with self._slab.lock:
            return iter(self._slab.neighbors(self._row))

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, weights)`` copies: the row's own flatten."""
        with self._slab.lock:
            return self._slab.arrays(self._row)

    def check_invariants(self) -> None:
        self._slab.check_rows(np.asarray([self._row]))
