"""Read path: one row-granular read image per relation.

The samtree answers a weighted draw with a root→leaf descent (ITS at
internal nodes, FTS at the leaf) — the right structure for a *mutating*
tree, but a training frontier reads the same hot vertices over and over
between mutations, and in a Python substrate the per-draw descent is
interpreter dispatch, not algorithmic cost.  This module keeps the
adjacency in a read layout as well, row by row and incrementally (the
lever GNNFlow's block store and LHGstore pull), instead of
snapshot-and-rebuild:

* :class:`ReadImage` owns one image per relation: two append-only
  arena columns (``ids`` and the per-row inclusive running sums
  ``cum``), per-row ``start / length / slab_row / clean / aliased /
  idle`` columns and a ``dict`` ``src → slot``.  A draw of
  mass ``r ∈ [0, total)`` takes the smallest ``i`` of the row with
  ``cum[i] > r`` — inverse transform sampling over exactly the tree's
  weights, so the distribution is *identical* to the ITS/FTS descent
  (chi-square-tested); an all-zero row draws uniformly.  A small source
  is **read in place**: the :class:`~repro.core.slab.Slab` keeps each
  row's ``cum`` on write, so its slot holds a pointer (``slab_row``, 0
  for an arena row) and the search runs over ``slab.ids`` /
  ``slab.cum``; only samtrees take arena slots.  Reads hold
  :attr:`Slab.lock`.

* **Coherence is one dirty bit** per row, set by the store's mutation
  entry points *before* they write; a row is *absent*, *dirty*, *clean*
  or clean and *aliased*.  A pointer row is read where the slab writes,
  so only its source leaving the slab row — a promotion or a release —
  dirties it: it is fresh while the directory maps its key to that row.
  An aliased row is the exception: any write dirties it, wherever its
  table lives.
  The dirty and absent rows of a frontier are re-admitted after one
  batched directory probe: a slab source becomes a pointer again,
  samtrees go through the one row builder (:meth:`_Image.flatten`: one
  batched leaf decode, one padded 2-D ``cumsum``, one arena append) and
  the segment they supersede becomes garbage.  A source with no
  adjacency holds a clean zero-length row.  Nothing may mutate a tree
  or re-point a directory entry behind the store's back;
  :meth:`ReadImage.stale_rows` checks it.

* **Freezing a relation** re-admits every row that is not clean, then
  gives every row that lacks one an alias table (:mod:`repro.core.frozen`)
  beside its entries, in the slab or the arena.  Clean aliased rows draw
  in O(1) per neighbor, a frontier of nothing else in one kernel call.
  A write dirties *its row* only: that row is
  re-admitted and drawn by binary search beside the alias kernel until
  the next ``freeze()`` gives it its table back.  ``freeze()`` writes
  the row slots in ``src`` order, so a frozen relation resolves a
  frontier by ``searchsorted`` over its own ``src`` column and asks the
  ``dict`` only for rows admitted since; its clean rows are pinned
  against eviction until ``thaw()`` drops the alias columns.

* **Two binary-search loops over the same rows**, picked from the call's
  own size: a frontier draws every row in one size-classed vectorized
  binary search; a call of fewer than :data:`ROW_LOOP_BELOW` sources
  (a serving micro-batch) resolves its slots, clean bits and stale
  rows as Python lists and draws row by row, because at that size the
  fixed cost of each NumPy call would dominate it.

* **Compaction is the only eviction**: once garbage passes
  ``1/GARBAGE_DIVISOR`` of the live edges and rows, one vectorized pass
  rewrites the arena, keeping the clean rows read within the last
  :data:`KEEP_IDLE` passes (every clean row, for a frozen relation),
  pointer rows included.

The batched read APIs take a seed — an ``int``, a ``random.Random``, or
a ``numpy.random.Generator`` (passed through untouched, so one
generator serves every hop and shard).  :func:`coerce_generator` and
its scalar twin :func:`coerce_scalar_rng` are deterministic in it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.compression import decode_id_lists
from repro.core.fenwick import cumsum_rows, join_weight_columns
from repro.core.frozen import alias_cells, alias_mass, build_alias, draw_alias
from repro.core.memory import ID_BYTES, WEIGHT_BYTES
from repro.errors import ConfigurationError
from repro.obs.telemetry import Stats

__all__ = [
    "ReadImage",
    "SnapshotCacheStats",
    "RNGLike",
    "coerce_scalar_rng",
    "coerce_generator",
    "flatten_tree",
]

#: Anything the sampling APIs accept as a randomness source.
RNGLike = Union[None, int, random.Random, np.random.Generator]

#: Calls with fewer sources than this draw row by row; the frontier
#: kernel costs a fixed ~40 numpy dispatches however few rows it serves.
ROW_LOOP_BELOW = 32

#: Compact once garbage exceeds ``(live edges + rows) / GARBAGE_DIVISOR``.
GARBAGE_DIVISOR = 32

#: A compaction drops the clean rows that went unread through this many
#: compaction intervals.  A pointer row owns no arena slot and costs one
#: probe to re-admit: at 16 `train_churn` (seed 0) admits each source
#: about once (21 k admissions, 50 k at 4) at the same 12.8 B/edge.
KEEP_IDLE = 16

#: ``SampleBlock.EMPTY`` (:mod:`repro.core.types` imports this module).
_EMPTY = 1

#: Modeled bytes per arena slot: one ID + one cumulative weight.
_SLOT_BYTES = ID_BYTES + WEIGHT_BYTES

#: How far an alias table's probability of an edge may sit from
#: ``weight / total`` (the Vose pairing's float residue is below 1e-13).
ALIAS_TOLERANCE = 1e-12

#: Arena columns; the last two exist while the relation is frozen.
_ARENA_COLUMNS = ("ids", "cum", "alias_prob", "alias_idx")

#: Per-row columns of an image, with their dtypes.
_ROW_COLUMNS = (
    ("src", np.int64),
    ("start", np.int64),
    ("length", np.int64),
    ("slab_row", np.int64),
    ("clean", np.bool_),
    ("aliased", np.bool_),
    ("idle", np.int8),
)


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------
def coerce_scalar_rng(rng: RNGLike) -> Optional[random.Random]:
    """Normalise a seed-like input to a ``random.Random`` (or ``None``).

    Integers seed a fresh ``Random``; a NumPy generator is reduced to a
    ``Random`` seeded from one 63-bit draw (deterministic given the
    generator's state).
    """
    if rng is None or isinstance(rng, random.Random):
        return rng
    if isinstance(rng, (int, np.integer)):
        return random.Random(int(rng))
    if isinstance(rng, np.random.Generator):
        return random.Random(int(rng.integers(0, 2**63)))
    raise ConfigurationError(
        f"rng must be None, an int seed, random.Random, or "
        f"numpy.random.Generator; got {type(rng).__name__}"
    )


def coerce_generator(rng: RNGLike) -> np.random.Generator:
    """Normalise a seed-like input to a ``numpy.random.Generator``."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(64))
    raise ConfigurationError(
        f"rng must be None, an int seed, random.Random, or "
        f"numpy.random.Generator; got {type(rng).__name__}"
    )


# ---------------------------------------------------------------------------
# the reference flatten
# ---------------------------------------------------------------------------
def flatten_tree(tree) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten one samtree's leaves into ``(ids, weights)`` arrays.

    Preallocates both ``tree.degree``-sized arrays and fills them one
    leaf slice at a time (``CompressedIDList.to_array`` decodes the IDs,
    ``FSTable.to_weight_array`` copies the stored weight column), so
    the only Python-level loop is over *leaves*, not edges, and the
    weights are the tree's, bit for bit.  The reference every image row
    must equal (:meth:`ReadImage.stale_rows`); the read path itself
    flattens many trees at once (:meth:`_Image.flatten`).  A slab-row
    view (``store.tree(src)`` of a small source) flattens to copies of
    its two columns.
    """
    if hasattr(tree, "arrays"):  # a SlabRow
        return tree.arrays()
    n = tree.degree
    ids = np.empty(n, dtype=np.int64)
    weights = np.empty(n, dtype=np.float64)
    pos = 0
    for leaf in tree._leaves():
        m = len(leaf.ids)
        ids[pos : pos + m] = leaf.ids.to_array()
        weights[pos : pos + m] = leaf.fstable.to_weight_array()
        pos += m
    return ids, weights


# ---------------------------------------------------------------------------
# the image
# ---------------------------------------------------------------------------
@dataclass
class SnapshotCacheStats(Stats):
    """Counters describing image effectiveness (exported by benchmarks)."""

    DERIVED = GAUGES = ("hit_rate",)

    hits: int = 0  #: lookups that found a clean row
    misses: int = 0  #: lookups that found none, or a dirty one
    builds: int = 0  #: rows flattened into the arena
    invalidations: int = 0  #: dirty rows replaced by a build
    evictions: int = 0  #: clean rows dropped by a compaction
    compactions: int = 0  #: arena rewrites

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _tree_columns(trees: list):
    """The samtree row source of :meth:`_Image.flatten`: all leaves of
    ``trees`` decoded together — ``(ids, weights)`` back to back, then
    the trees' degrees."""
    leaves: list = []
    for tree in trees:
        root = tree._root
        if root.is_leaf:
            leaves.append(root)
        else:
            leaves.extend(tree._leaves())
    return (
        decode_id_lists([leaf.ids for leaf in leaves]),
        join_weight_columns([leaf.fstable for leaf in leaves]),
        [tree.degree for tree in trees],
    )


def _search(ids, cum, start, length, uniforms) -> np.ndarray:
    """The draws of rows ``start[i] : start[i] + length[i]`` of ``ids``
    / ``cum`` (none empty, longest first), one row of ``uniforms`` each.

    Step ``2^b`` of the binary search (how many entries of the row are
    ``<= mass``) runs on the prefix of rows at least that long: a row of
    length ``L`` costs ``log2 L`` array steps, not the longest row's.
    Fewer than ``ROW_LOOP_BELOW`` rows (a frontier's few samtrees) are
    drawn row by row, below the kernel's fixed cost."""
    if length.size < ROW_LOOP_BELOW:
        out = np.empty(uniforms.shape, dtype=np.int64)
        for i, (a, m) in enumerate(zip(start.tolist(), length.tolist())):
            _draw_row(ids, cum, a, m, uniforms[i], out[i])
        return out
    span = length[:, None]
    start = start[:, None]
    total = cum[start[:, 0] + length - 1]
    mass = uniforms * total[:, None]
    idx = np.zeros(mass.shape, dtype=np.int64)
    below = start - 1
    shorter = -length
    bit = int(length[0]).bit_length()
    while bit:
        bit -= 1
        step = 1 << bit
        live = int(shorter.searchsorted(-step, side="right"))
        cand = idx[:live] + step
        take = cum.take(below[:live] + cand, mode="clip") <= mass[:live]
        take &= cand <= span[:live]
        np.copyto(idx[:live], cand, where=take)
    flat = total <= 0.0  # all-zero weights: fall back to uniform
    if flat.any():
        idx[flat] = (uniforms[flat] * span[flat]).astype(np.int64)
    # Guard against float round-up at the top of the mass range.
    np.minimum(idx, span - 1, out=idx)
    idx += start
    return ids.take(idx)


def _draw_row(ids, cum, a: int, m: int, uniforms, out) -> None:
    """:func:`_search` of the one row ``a : a + m`` (``m > 0``) into ``out``."""
    mass = cum.item(a + m - 1)
    if mass > 0.0:
        idx = cum[a : a + m].searchsorted(uniforms * mass, side="right")
    else:  # the all-zero-weight fallback
        idx = (uniforms * m).astype(np.int64)
    # mode="clip" guards against float round-up at the top of the mass range.
    ids[a : a + m].take(idx, mode="clip", out=out)


class _Image:
    """The rows of one relation (see the module docstring).

    Slot 0 is a permanent empty row that is never clean: a source with
    no row resolves to it, so "absent" and "dirty" are one test.
    """

    __slots__ = (
        "slab", "slot_of", "ids", "cum", "alias_prob", "alias_idx", "used",
        "garbage", "rows", "ordered", "_workspace",
    ) + tuple(name for name, _ in _ROW_COLUMNS)

    def __init__(self, slab) -> None:
        self.slab = slab  #: the store's :class:`~repro.core.slab.Slab`
        self.slot_of: Dict[int, int] = {}
        self.ids = np.empty(1024, dtype=np.int64)
        self.cum = np.empty(1024, dtype=np.float64)
        #: Alias columns, arena-parallel; present while frozen.
        self.alias_prob: Optional[np.ndarray] = None
        self.alias_idx: Optional[np.ndarray] = None
        self.used = 0  #: arena slots written, garbage included
        #: Arena slots of rows replaced since compaction, plus one per
        #: empty row admitted (unknown sources must not pile up rows
        #: without bringing a compaction on); a pointer row leaves none.
        self.garbage = 0
        self.rows = 1  #: row slots handed out, the empty row included
        #: Slots ``1 .. ordered`` ascend in ``src`` (``freeze`` writes
        #: them so, compaction keeps slot order): what :meth:`lookup`
        #: resolves by ``searchsorted``.
        self.ordered = 0
        self._workspace: Optional[tuple] = None  # the alias draw's buffers
        for name, dtype in _ROW_COLUMNS:
            setattr(self, name, np.zeros(64, dtype=dtype))

    @property
    def frozen(self) -> bool:
        return self.alias_prob is not None

    def mark(self, src: int, moved: bool = False) -> None:
        """Set the dirty bit of ``src``'s row, if it has one — a pointer
        row's only with an alias table or once its source ``moved`` out.

        A dict read and one flag store: safe from PALM executor threads
        (no shared counter is touched).
        """
        slot = self.slot_of.get(src)
        if slot and (moved or not self.slab_row[slot] or self.aliased[slot]):
            self.clean[slot] = False

    def slots_of(self, keys: List[int]) -> np.ndarray:
        """The row slot of every source of ``keys`` by the ``dict``,
        0 where it has none."""
        return np.fromiter(
            map(self.slot_of.get, keys, repeat(0)),
            dtype=np.int64, count=len(keys),
        )

    def lookup(self, srcs: np.ndarray) -> np.ndarray:
        """The row slot of every source, 0 where it has none: one
        ``searchsorted`` over the ``src``-ordered slots, the ``dict``
        for what that misses."""
        n = self.ordered
        if not n:
            if not self.slot_of:  # an empty image: nothing to look up
                return np.zeros(srcs.size, dtype=np.int64)
            return self.slots_of(srcs.tolist())
        column = self.src[1 : n + 1]
        slots = column.searchsorted(srcs)
        np.minimum(slots, n - 1, out=slots)
        found = column[slots] == srcs
        slots += 1
        if not found.all():
            missed = (~found).nonzero()[0]
            slots[missed] = self.slots_of(srcs[missed].tolist())
        return slots

    # -- admission --------------------------------------------------------
    def _reserve(self, rows: int, edges: int) -> None:
        """Room for ``rows`` more row slots and ``edges`` arena slots."""
        need = self.rows + rows
        if need > self.clean.size:
            for name, dtype in _ROW_COLUMNS:
                grown = np.zeros(max(need, 2 * self.clean.size), dtype=dtype)
                grown[: self.rows] = getattr(self, name)[: self.rows]
                setattr(self, name, grown)
        need = self.used + edges
        if need > self.ids.size:
            size = max(need, 2 * self.ids.size)
            for name in _ARENA_COLUMNS if self.frozen else _ARENA_COLUMNS[:2]:
                old = getattr(self, name)
                grown = np.empty(size, dtype=old.dtype)
                grown[: self.used] = old[: self.used]
                setattr(self, name, grown)

    def admit(
        self, trees, etype: int, keys: List[int],
        stale: List[int], stats: SnapshotCacheStats,
    ) -> List[int]:
        """Give the absent or dirty rows ``stale`` (positions in
        ``keys``) a clean row; returns their row slots, in ``stale`` order.

        One batched directory probe over the distinct sources: a slab
        row becomes a pointer row (the probe is its whole cost), the
        samtrees go to :meth:`flatten` together.  A source with no
        adjacency gets a clean zero-length row, so its next read is a
        hit that asks the directory nothing; ``mark`` dirties it when a
        first edge arrives.
        """
        self._reserve(len(stale), 0)
        slot_of = self.slot_of
        stale_keys = list(map(keys.__getitem__, stale))
        srcs = list(dict.fromkeys(stale_keys))  # first-seen order
        found, samtrees = trees.get_many(etype, np.asarray(srcs, dtype=np.int64))
        at = self.slots_of(srcs)
        first = self.rows
        fresh = np.flatnonzero(at == 0)
        if fresh.size:  # the next row slots, in first-seen order
            self.rows += fresh.size
            at[fresh] = range(first, self.rows)
            fresh = list(map(srcs.__getitem__, fresh.tolist()))
            slot_of.update(zip(fresh, range(first, self.rows)))
            self.src[first : self.rows] = fresh
        old = at[at < first]  # superseded: an arena row's slots are garbage
        self.garbage += int(self.length[old][self.slab_row[old] == 0].sum())
        # Every row a pointer row first; slab row 0 is empty.
        self.slab_row[at] = np.maximum(found, 0)
        self.length[at] = 0
        self.clean[at] = True
        self.aliased[at] = False
        other = np.flatnonzero(found <= 0)
        tree = found[other] < 0
        empty = at[other[~tree]]
        self.aliased[empty] = True  # the empty row draws by the alias kernel
        self.garbage += empty.size
        stats.builds += at.size - other.size
        stats.invalidations += old.size - int(np.count_nonzero(empty < first))
        built = other[tree]
        if built.size:
            self.flatten(at[built], *_tree_columns(samtrees), stats)
        return list(map(slot_of.__getitem__, stale_keys))

    def flatten(
        self, slots, ids: np.ndarray, weights: np.ndarray,
        length: List[int], stats: SnapshotCacheStats,
    ) -> None:
        """The one row builder: rows ``slots`` (all distinct) take the
        adjacencies held back to back in ``ids`` / ``weights`` (none
        empty, ``length[i]`` entries each), one append to the arena;
        ``cum`` by :func:`cumsum_rows`, bit for bit what ``stale_rows``
        recomputes and what the slab keeps for a row.
        """
        stats.builds += len(length)
        self._reserve(0, ids.size)
        a = self.used
        self.used = a + ids.size
        self.ids[a : self.used] = ids
        length = np.asarray(length, dtype=np.int64)
        start = np.cumsum(length) - length
        cumsum_rows(weights, start, length, self.cum[a : self.used])
        slots = np.asarray(slots)
        self.start[slots] = a + start
        self.length[slots] = length
        self.slab_row[slots] = 0
        self.clean[slots] = True
        self.aliased[slots] = False

    # -- freeze / thaw ------------------------------------------------------
    def freeze(
        self, srcs: np.ndarray, values: np.ndarray, trees: list,
        stats: SnapshotCacheStats, frozen_stats,
    ) -> None:
        """Make every source of ``srcs`` (ascending; ``values`` their
        directory values, ``trees`` the samtrees among them) a clean
        aliased row, in that order: clean rows are kept, a slab source
        becomes a pointer row, the samtrees go to :meth:`flatten` together
        and every row gains its alias table.  Gone sources are dropped."""
        count = srcs.size
        old = self.lookup(srcs)
        self._reserve(count, 0)
        rows = count + 1
        for name, _ in _ROW_COLUMNS:
            column = getattr(self, name)
            column[1:rows] = column[old]
        self.src[1:rows] = srcs
        self.aliased[1:rows] &= self.clean[1:rows]
        self.rows = rows
        self.ordered = count
        self.slot_of = dict(zip(srcs.tolist(), range(1, rows)))
        stale = (~self.clean[1:rows]).nonzero()[0]
        found = values[stale]
        self.slab_row[stale + 1] = np.maximum(found, 0)  # a pointer row
        self.length[stale + 1] = 0
        self.clean[stale + 1] = True
        built = stale[found < 0]
        if built.size:  # a samtree's place in ``trees``: negatives before
            at = (np.cumsum(values < 0)[built] - 1).tolist()
            self.flatten(built + 1, *_tree_columns([trees[i] for i in at]), stats)
        self.garbage = self.used - int(self.length[1:rows].sum())
        bare = (~self.aliased[1:rows]).nonzero()[0] + 1
        row = self.slab_row[bare]
        slab = self.slab  # row offsets as wide as the home's longest row
        for home, at, width in (
            (slab, row[row != 0], np.min_scalar_type(slab.capacity - 1)),
            (self, bare[row == 0], np.uint32),
        ):
            if home.alias_prob is None:  # the alias columns of its arena
                home.alias_prob = np.zeros(home.ids.size, dtype=np.float64)
                home.alias_idx = np.zeros(home.ids.size, dtype=width)
            length = home.length[at]
            build_alias(
                home.cum, home.start[at], length, home.alias_prob, home.alias_idx
            )
            frozen_stats.compiled_edges += int(length.sum())
        self.aliased[bare] = True
        frozen_stats.compiles += 1
        frozen_stats.compiled_rows += bare.size

    def thaw(self) -> None:
        """Drop the alias columns: every row is a binary-search row."""
        self.alias_prob = self.alias_idx = self._workspace = None
        self.aliased[: self.rows] = False
        self.ordered = 0

    # -- the draw loops -----------------------------------------------------
    def draw_rows(
        self, slots: List[int], counts, n: int, k: int, gen: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-by-row draw for a handful of sources: one ``searchsorted``
        per row (arena or slab) over its slice of one uniform block."""
        out = np.zeros((n, k), dtype=np.int64)
        state = np.zeros(n, dtype=np.int8)
        uniforms = gen.random((n, k))
        slab_row, slab = self.slab_row.item, self.slab
        hi = 0
        for slot, count in zip(slots, counts):
            lo, hi = hi, hi + count
            row = slab_row(slot)
            home, at = (slab, row) if row else (self, slot)
            m = home.length.item(at)
            if not m:
                state[lo:hi] = _EMPTY
                continue
            self.idle[slot] = 0
            a = home.start.item(at)
            _draw_row(home.ids, home.cum, a, m, uniforms[lo:hi], out[lo:hi])
        return out, state

    def draw_frontier(
        self, rows: np.ndarray, k: int, gen: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One vectorized draw over a whole frontier: the uniform block
        is drawn for the rows longest first, then :func:`_search` runs
        over the arena rows and over the pointer rows in the slab (each
        part stays longest first)."""
        self.idle[rows] = 0
        slab, pointer = self.slab, self.slab_row[rows]
        # A pointer row's length is 0 here, an arena row's slab row is 0.
        length = self.length[rows] + slab.length[pointer]
        out = np.zeros((rows.size, k), dtype=np.int64)
        state = (length == 0).view(np.int8)  # True is _EMPTY
        order = np.argsort(-length, kind="stable")
        order = order[: np.count_nonzero(length)]
        if order.size == 0:
            return out, state
        rows, pointer, length = rows[order], pointer[order], length[order]
        uniforms = gen.random((rows.size, k))
        arena = np.flatnonzero(pointer == 0)
        # Samtrees outgrew c, so they usually lead: slab rows are a slice.
        lead = not arena.size or arena.item(-1) == arena.size - 1
        in_slab = slice(arena.size, None) if lead else pointer != 0
        if arena.size:
            out[order[arena]] = _search(
                self.ids, self.cum, self.start[rows[arena]], length[arena],
                uniforms[arena],
            )
        if arena.size < rows.size:
            out[order[in_slab]] = _search(
                slab.ids, slab.cum, slab.start[pointer[in_slab]],
                length[in_slab], uniforms[in_slab],
            )
        return out, state

    def draw_aliased(
        self, rows: np.ndarray, k: int, gen: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One O(1)-per-draw alias kernel over clean aliased rows: one
        uniform block, drawn over the slab, the samtree rows' over the arena."""
        slab, pointer = self.slab, self.slab_row[rows]
        lo = slab.start[pointer][:, None]
        deg = slab.length[pointer][:, None]  # slab row 0 is empty
        arena = (pointer == 0).nonzero()[0]  # samtrees, and empty rows
        if arena.size:
            at = rows[arena]
            lo[arena, 0] = self.start[at]
            deg[arena, 0] = self.length[at]
        shape = (rows.size, k)
        buffers = self._workspace
        if buffers is None or buffers[0].shape != shape:
            buffers = self._workspace = (
                np.empty(shape, dtype=np.float64),  # uniforms / fracs
                np.empty(shape, dtype=np.float64),  # gathered cell probs
                np.empty(shape, dtype=np.int64),  # slot -> edge position
                np.empty(shape, dtype=slab.alias_idx.dtype),  # cell aliases
                np.empty(shape, dtype=np.int64),  # chosen edge index
                np.empty(shape, dtype=bool),  # keep-slot mask
            )
        uf, tf, slot, narrow, chosen, keep = buffers
        gen.random(out=uf)
        alias_cells(uf, deg, slot)
        np.add(slot, lo, out=slot)  # edge positions, each in its home
        out = draw_alias(
            slab.ids, slab.alias_prob, slab.alias_idx, slot, lo, uf,
            tf, narrow, chosen, keep,
        )
        if arena.size:
            out[arena] = draw_alias(
                self.ids, self.alias_prob, self.alias_idx, slot[arena],
                lo[arena], uf[arena],
            )
        empty = deg[:, 0] == 0
        if empty.any():
            out[empty] = 0
        return out, empty.view(np.int8)  # True is _EMPTY

    def draw_frozen(
        self, slots: np.ndarray, counts, k: int,
        gen: np.random.Generator, frozen_stats
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The draw of a frozen relation (all rows clean): one alias
        kernel call when every row is aliased, else that for the aliased
        rows and a binary-search loop for those re-flattened since."""
        rows = slots if counts is None else np.repeat(slots, counts)
        fast = self.aliased[rows]
        if fast.all():
            missed = 0
            drawn = self.draw_aliased(rows, k, gen)
        else:  # the rest draw as the empty row, then are overwritten
            cold = (~fast).nonzero()[0]
            missed = cold.size
            out, state = drawn = self.draw_aliased(
                np.where(fast, rows, 0), k, gen
            )
            if cold.size < ROW_LOOP_BELOW:
                out[cold], state[cold] = self.draw_rows(
                    rows[cold].tolist(), repeat(1), cold.size, k, gen
                )
            else:
                out[cold], state[cold] = self.draw_frontier(rows[cold], k, gen)
        served = rows.size - missed
        empty = int(np.count_nonzero(drawn[1]))  # a re-flattened row has edges
        frozen_stats.batches += 1
        frozen_stats.vertices += served
        frozen_stats.stale_misses += missed
        frozen_stats.draws += (served - empty) * k
        frozen_stats.missing_vertices += empty
        return drawn

    def sample_matrix(
        self, srcs, k: int, gen: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The alias kernel alone over a frontier of a frozen relation:
        the ``(len(srcs), k)`` draws and a row mask, False (and the row
        0) where the source has no clean aliased row or no adjacency."""
        if k < 0:
            raise ConfigurationError(f"fanout must be >= 0, got {k}")
        slots = self.lookup(np.asarray(srcs, dtype=np.int64))
        usable = self.clean[slots] & self.aliased[slots]
        if not usable.all():
            slots[~usable] = 0  # the empty row
        out, state = self.draw_aliased(slots, k, gen)
        return out, ~state.view(np.bool_)

    # -- compaction ---------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the arena with the clean rows read in the last
        ``KEEP_IDLE`` intervals, bit for bit; returns how many clean
        rows were dropped.  A frozen relation's clean rows are pinned:
        all of them stay.  A pointer row ages like any other row.
        """
        rows = self.rows
        clean = self.clean[:rows]
        pinned = self.frozen
        if pinned:
            keep = np.flatnonzero(clean)
        else:
            keep = np.flatnonzero(clean & (self.idle[:rows] < KEEP_IDLE))
        owned = np.where(self.slab_row[keep] != 0, 0, self.length[keep])
        dropped = int(np.count_nonzero(clean)) - keep.size
        ends = np.cumsum(owned)
        start = ends - owned
        self.used = int(ends[-1]) if keep.size else 0
        self.garbage = 0
        take = np.repeat(self.start[keep] - start, owned) + np.arange(self.used)
        for name in _ARENA_COLUMNS if pinned else _ARENA_COLUMNS[:2]:
            column = getattr(self, name)
            column[: self.used] = column.take(take)
        self.ordered = int(keep.searchsorted(self.ordered, "right"))
        self.rows = rows = keep.size + 1
        for name in ("src", "length", "slab_row", "aliased"):
            column = getattr(self, name)
            column[1:rows] = column[keep]
        self.start[1:rows] = start
        self.clean[1:rows] = True
        # Pinned rows do not age (and an int8 would wrap if they did).
        self.idle[1:rows] = 0 if pinned else self.idle[keep] + 1
        self.slot_of = dict(zip(self.src[1:rows].tolist(), range(1, rows)))
        return dropped


class ReadImage:
    """The store's batched read tier: one row image per relation."""

    __slots__ = ("stats", "relations")

    def __init__(self) -> None:
        self.stats = SnapshotCacheStats()
        #: ``etype -> _Image``; empty until the first batched read.
        self.relations: Dict[int, _Image] = {}

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        """Clean rows held, over all relations."""
        return sum(
            int(np.count_nonzero(image.clean[: image.rows]))
            for image in self.relations.values()
        )

    def __contains__(self, key: Tuple[int, int]) -> bool:
        """Whether ``(etype, src)`` has a clean row."""
        image = self.relations.get(key[0])
        return image is not None and bool(
            image.clean[image.slot_of.get(key[1], 0)]
        )

    @property
    def nbytes(self) -> int:
        """Modeled bytes of every arena slot in use, garbage included."""
        return _SLOT_BYTES * sum(
            image.used for image in self.relations.values()
        )

    @property
    def alias_nbytes(self) -> int:
        """Bytes of the alias columns of the frozen relations: a modeled
        probability + a row offset of its home's width per arena slot in
        use and per edge of an aliased pointer row (its table: the slab)."""
        nbytes = 0
        for image in self.frozen_relations:
            slab = image.slab
            pointer = image.slab_row[: image.rows][image.aliased[: image.rows]]
            cells = int(slab.length[pointer].sum())
            nbytes += (WEIGHT_BYTES + image.alias_idx.itemsize) * image.used
            nbytes += (WEIGHT_BYTES + slab.alias_idx.itemsize) * cells
        return nbytes

    @property
    def frozen_relations(self) -> List[_Image]:
        """The images of the frozen relations."""
        return [image for image in self.relations.values() if image.frozen]

    def occupancy(self) -> Dict[str, int]:
        """The doctor's readout, over all relations: ``rows`` held,
        the clean ones (``entries``), of those the ``aliased`` and the
        ones ``pinned`` by a frozen relation, the arena slots clean rows
        own (``edges``) and the ones none does (``garbage``)."""
        out = dict.fromkeys(
            ("rows", "entries", "aliased", "pinned", "edges", "garbage"), 0
        )
        for image in self.relations.values():
            clean = image.clean[: image.rows]
            entries = int(clean.sum())
            owner = clean & (image.slab_row[: image.rows] == 0)  # pointers own none
            edges = int(image.length[: image.rows][owner].sum())
            aliased = int((clean & image.aliased[: image.rows]).sum())
            for name, count in zip(out, (
                image.rows - 1, entries, aliased, entries * image.frozen,
                edges, image.used - edges,
            )):
                out[name] += count
        return out

    def row(self, key: Tuple[int, int]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(ids, cumulative weights)`` of the clean row of
        ``(etype, src)`` (copies; a pointer row's from the slab), or ``None``."""
        if key not in self:
            return None
        image = self.relations[key[0]]
        slot = image.slot_of[key[1]]
        row = image.slab_row.item(slot)
        home, at = (image.slab, row) if row else (image, slot)
        a = home.start.item(at)
        b = a + home.length.item(at)
        return home.ids[a:b].copy(), home.cum[a:b].copy()

    def stale_rows(self, trees, slab) -> List[Tuple[int, int]]:
        """Keys of clean rows that are not their source's current state.

        Empty unless a tree of ``trees`` (the store's directory) was
        mutated, or a key re-pointed, without the store's entry points
        setting the dirty bit.  A pointer row is fresh iff the directory
        still maps its key to that row of ``slab`` (the slab's own rows
        are :meth:`Slab.check_rows`'s).  An arena row must equal
        :func:`flatten_tree` with ``==`` (a zero-length row: have no
        source), and an aliased row's table, in the slab or the arena,
        must give every edge its ``weight / total`` (uniform when all
        are zero) to within ``ALIAS_TOLERANCE``.
        """
        bad = []
        for etype, image in self.relations.items():
            for slot in np.flatnonzero(image.clean[: image.rows]).tolist():
                key = (etype, int(image.src[slot]))
                tree = trees.get(*key)
                row = image.slab_row.item(slot)
                home, at = (slab, row) if row else (image, slot)
                a = home.start.item(at)
                b = a + home.length.item(at)
                if row:  # read in place: fresh while the key owns the row
                    fresh = type(tree) is int and tree == row
                    weights = slab.weights[a:b]
                elif not tree:
                    fresh = a == b
                elif type(tree) is int:  # an arena row images a samtree
                    fresh = False
                else:
                    ids, weights = flatten_tree(tree)
                    fresh = np.array_equal(image.ids[a:b], ids) and np.array_equal(
                        image.cum[a:b], np.cumsum(weights)
                    )
                if fresh and a < b and image.frozen and image.aliased[slot]:
                    total = float(weights.sum())
                    wanted = weights / total if total > 0.0 else 1.0 / (b - a)
                    mass = alias_mass(home.alias_prob, home.alias_idx, a, b)
                    fresh = np.abs(mass - wanted).max() <= ALIAS_TOLERANCE
                if not fresh:
                    bad.append(key)
        return bad

    # -- coherence --------------------------------------------------------
    def mark_batch(self, etypes: np.ndarray, srcs: np.ndarray) -> None:
        """Set the dirty bit of every row a columnar batch writes to."""
        for etype, image in self.relations.items():
            slots = image.slots_of(srcs[etypes == etype].tolist())
            dirty = (image.slab_row[slots] == 0) | image.aliased[slots]
            image.clean[slots[dirty]] = False

    def clear(self) -> None:
        """Drop every row (counters are kept; use ``stats.reset()``)."""
        self.thaw()
        self.relations.clear()

    # -- freeze / thaw ----------------------------------------------------
    def freeze(
        self, etype: int, srcs: np.ndarray, values: np.ndarray, trees: list,
        slab, frozen_stats,
    ) -> _Image:
        """Freeze relation ``etype`` (its columns as :meth:`_Image.freeze`
        takes them), pinned until :meth:`thaw`; only absent, dirty or
        table-less rows cost anything.  Returns the relation's image."""
        image = self.relations.get(etype)
        if image is None:
            image = self.relations[etype] = _Image(slab)
        image.freeze(srcs, values, trees, self.stats, frozen_stats)
        self._settle(image)
        return image

    def thaw(self, etype: Optional[int] = None) -> int:
        """Thaw relation ``etype`` (default: all); returns how many were
        frozen.  Their rows stay, as binary-search rows that age."""
        thawed = [
            image for et, image in self.relations.items()
            if image.frozen and etype in (None, et)
        ]
        for image in thawed:
            image.thaw()
        if thawed and not self.frozen_relations:  # the slab's tables too
            slab = thawed[0].slab
            slab.alias_prob = slab.alias_idx = None
        return len(thawed)

    # -- the read ---------------------------------------------------------
    def sample(
        self, trees, slab, etype: int, srcs: np.ndarray, counts, k: int,
        gen: np.random.Generator, frozen_stats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``k`` draws for every row of a frontier, from image rows.

        ``trees`` is the store's directory (``(etype, src) ->`` samtree
        or row of ``slab``), asked only for sources whose row is absent
        or dirty.  ``counts``
        gives ``srcs[i]`` that many consecutive rows.  Returns the
        ``ids[n, k]`` and ``state[n]`` columns of a ``SampleBlock``:
        rows whose source has no adjacency are ``EMPTY`` and left at 0.
        ``frozen_stats`` counts the reads of a frozen relation.
        """
        image = self.relations.get(etype)
        if image is None:
            image = self.relations[etype] = _Image(slab)
        stats = self.stats
        frozen = image.alias_prob is not None
        small = not frozen and srcs.size < ROW_LOOP_BELOW
        keys = None if frozen else srcs.tolist()
        if small:  # a handful of rows: slots and clean bits as Python lists
            slots = list(map(image.slot_of.get, keys, repeat(0)))
            clean = image.clean.item
            stale = [i for i, slot in enumerate(slots) if not clean(slot)]
        else:
            slots = image.lookup(srcs) if frozen else image.slots_of(keys)
            stale = (~image.clean[slots]).nonzero()[0].tolist()
        stats.hits += srcs.size - len(stale)
        stats.misses += len(stale)
        if stale:
            admitted = image.admit(trees, etype, keys or srcs.tolist(), stale, stats)
            if small:
                for i, slot in zip(stale, admitted):
                    slots[i] = slot
            else:
                slots[stale] = admitted
        if frozen:
            drawn = image.draw_frozen(slots, counts, k, gen, frozen_stats)
        elif not small:
            rows = slots if counts is None else np.repeat(slots, counts)
            drawn = image.draw_frontier(rows, k, gen)
        elif counts is None:
            drawn = image.draw_rows(slots, repeat(1), srcs.size, k, gen)
        else:
            counts = counts.tolist()
            drawn = image.draw_rows(slots, counts, sum(counts), k, gen)
        if stale:
            self._settle(image)
        return drawn

    def _settle(self, image: _Image) -> None:
        """After a call that admitted rows: compact if garbage says so.
        Live is what the rows serve, in the arena or the slab, plus one
        per row (an empty row serves nothing)."""
        served = image.slab.length[image.slab_row[: image.rows]]  # pointer rows
        live = int(image.length[: image.rows].sum() + served.sum()) + image.rows
        if image.garbage * GARBAGE_DIVISOR > live:
            self.stats.compactions += 1
            self.stats.evictions += image.compact()
