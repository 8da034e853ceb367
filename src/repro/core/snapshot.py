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
  arena columns (``ids`` and the per-row *local* inclusive cumulative
  weights ``cum``), per-row ``start / length / total / version / clean /
  idle`` columns, and a plain ``dict`` ``src → slot`` as the only
  directory.  A draw of mass ``r ∈ [0, total)`` takes the smallest
  ``i`` of the row with ``cum[i] > r`` — inverse transform sampling
  over exactly the tree's weights, so the distribution is *identical*
  to the ITS/FTS descent (chi-square-tested): zero-weight edges are
  never selected, an all-zero row draws uniformly.

* **Coherence is one dirty bit** per row, set by the store's mutation
  entry points *before* they write.  A dirty (or absent) row is
  re-flattened on its next read: all such rows of a frontier share one
  batched leaf decode (:func:`~repro.core.compression.decode_id_lists`)
  and one append to the arena; the superseded segment becomes garbage.
  Trees must not be mutated behind the store's back (the frozen tier's
  contract too); :meth:`ReadImage.stale_rows` checks it.

* **Two draw loops over the same rows**, picked from the call's own
  size: a frontier draws every row in one size-classed vectorized
  binary search; a call of fewer than :data:`ROW_LOOP_BELOW` sources
  (a serving micro-batch) draws row by row, because the kernel's fixed
  cost would dominate it.

* **Compaction is the only eviction**: once garbage passes
  ``1/GARBAGE_DIVISOR`` of the live edges — or the image outgrows
  ``capacity_bytes`` — one vectorized pass rewrites the arena, keeping
  the clean rows read within the last :data:`KEEP_IDLE` passes.

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
from repro.core.fenwick import join_weight_columns
from repro.core.memory import DEFAULT_MEMORY_MODEL
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

#: Default image budget: 64 MiB of modeled arena bytes.
DEFAULT_CAPACITY_BYTES = 64 << 20

#: Calls with fewer sources than this draw row by row; the frontier
#: kernel costs a fixed ~40 numpy dispatches however few rows it serves.
ROW_LOOP_BELOW = 32

#: Compact once garbage exceeds ``live edges / GARBAGE_DIVISOR``.
GARBAGE_DIVISOR = 32

#: A compaction drops the clean rows that went unread through this
#: many compaction intervals.  1 keeps `train_churn`'s image smallest
#: (17.1 B/edge); 4 re-flattens 41 % fewer rows there for 20.0 B/edge,
#: still below the 21.0 of the per-tree snapshot cache this replaced.
KEEP_IDLE = 4

#: ``SampleBlock.EMPTY`` (:mod:`repro.core.types` imports this module).
_EMPTY = 1

#: Modeled bytes per arena slot: one ID + one cumulative weight.
_SLOT_BYTES = DEFAULT_MEMORY_MODEL.id_bytes + DEFAULT_MEMORY_MODEL.weight_bytes

#: Per-row columns of an image, with their dtypes.
_ROW_COLUMNS = (
    ("src", np.int64),
    ("start", np.int64),
    ("length", np.int64),
    ("total", np.float64),
    ("version", np.int64),
    ("clean", np.bool_),
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
    weights are the tree's, bit for bit.  The frozen-shard compiler
    (:mod:`repro.core.frozen`) builds from it, and every image row must
    equal it (:meth:`ReadImage.stale_rows`).
    """
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

    DERIVED = ("hit_rate",)

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


class _Image:
    """The rows of one relation (see the module docstring).

    Slot 0 is a permanent empty row that is never clean: a source with
    no row resolves to it, so "absent" and "dirty" are one test, and a
    source that still has no adjacency after the directory was asked
    draws from a zero-length row — ``EMPTY``.
    """

    __slots__ = ("slot_of", "ids", "cum", "used", "garbage", "rows") + tuple(
        name for name, _ in _ROW_COLUMNS
    )

    def __init__(self) -> None:
        self.slot_of: Dict[int, int] = {}
        self.ids = np.empty(1024, dtype=np.int64)
        self.cum = np.empty(1024, dtype=np.float64)
        self.used = 0  #: arena slots written, garbage included
        self.garbage = 0  #: arena slots of rows replaced since compaction
        self.rows = 1  #: row slots handed out, the empty row included
        for name, dtype in _ROW_COLUMNS:
            setattr(self, name, np.zeros(64, dtype=dtype))

    def mark(self, src: int) -> None:
        """Set the dirty bit of ``src``'s row, if it has one.

        A dict read and one flag store: safe from PALM executor threads
        (no shared counter is touched).
        """
        slot = self.slot_of.get(src)
        if slot is not None:
            self.clean[slot] = False

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
            for name in ("ids", "cum"):
                old = getattr(self, name)
                grown = np.empty(size, dtype=old.dtype)
                grown[: self.used] = old[: self.used]
                setattr(self, name, grown)

    def admit(
        self, trees, etype: int, keys: List[int], slots,
        stale: List[int], stats: SnapshotCacheStats,
    ) -> int:
        """Flatten the absent or dirty rows ``stale`` (positions in
        ``keys``) and point ``slots`` at them; returns how many rows
        were appended to the arena.

        Python-level work is one directory ``get`` and one leaf walk per
        row; the leaves of all rows are decoded together and appended to
        the arena in one piece.  A source with no adjacency resolves to
        the empty row.
        """
        self._reserve(len(stale), 0)
        slot_of = self.slot_of
        admitted: Dict[int, int] = {}  # repeats of one source in `keys`
        built: List[Tuple[int, int, int]] = []  # (slot, degree, version)
        leaves: list = []
        for i in stale:
            src = keys[i]
            slot = admitted.get(src)
            if slot is None:
                tree = trees.get((etype, src))
                if tree is None or not tree:
                    slot = 0
                else:
                    slot = slot_of.get(src)
                    if slot is None:
                        slot = slot_of[src] = self.rows
                        self.src[slot] = src
                        self.rows += 1
                    else:
                        self.garbage += self.length.item(slot)
                        stats.invalidations += 1
                    built.append((slot, tree.degree, tree.version))
                    leaves.extend(tree._leaves())
                admitted[src] = slot
            slots[i] = slot
        if not built:
            return 0
        ids = decode_id_lists([leaf.ids for leaf in leaves])
        weights = join_weight_columns([leaf.fstable for leaf in leaves])
        self._reserve(0, ids.size)
        a = self.used
        self.used = a + ids.size
        self.ids[a : self.used] = ids
        cum = self.cum[a : self.used]
        lo = 0
        for slot, degree, version in built:
            hi = lo + degree
            # np.cumsum of the row's own weights: bit for bit what
            # ``stale_rows`` recomputes from ``flatten_tree``.
            np.cumsum(weights[lo:hi], out=cum[lo:hi])
            self.start[slot] = a + lo
            self.length[slot] = degree
            self.total[slot] = cum[hi - 1]
            self.version[slot] = version
            self.clean[slot] = True
            lo = hi
        stats.builds += len(built)
        return len(built)

    # -- the two draw loops -------------------------------------------------
    def draw_rows(
        self, slots: List[int], counts, n: int, k: int,
        gen: np.random.Generator, weighted: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row-by-row draw for a handful of sources: one ``searchsorted``
        over each row's slice of the call's single uniform block."""
        out = np.zeros((n, k), dtype=np.int64)
        state = np.zeros(n, dtype=np.int8)
        uniforms = gen.random((n, k))
        start, length, total = self.start.item, self.length.item, self.total.item
        hi = 0
        for slot, count in zip(slots, counts):
            lo, hi = hi, hi + count
            m = length(slot)
            if not m:
                state[lo:hi] = _EMPTY
                continue
            self.idle[slot] = 0
            a = start(slot)
            mass = total(slot)
            if weighted and mass > 0.0:
                idx = self.cum[a : a + m].searchsorted(
                    uniforms[lo:hi] * mass, side="right"
                )
            else:  # uniform, or the all-zero-weight fallback
                idx = (uniforms[lo:hi] * m).astype(np.int64)
            # mode="clip": the guard against float round-up at the top
            # of the mass range.
            self.ids[a : a + m].take(idx, mode="clip", out=out[lo:hi])
        return out, state

    def draw_frontier(
        self, slots: np.ndarray, counts, k: int,
        gen: np.random.Generator, weighted: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One vectorized draw over a whole frontier.

        Rows are ordered longest first, so step ``2^b`` of the binary
        search (how many entries of the row are ``<= mass``) runs on the
        prefix of rows at least that long: a row of length ``L`` costs
        ``log2 L`` array steps, not the longest row's.
        """
        self.idle[slots] = 0
        rows = slots if counts is None else np.repeat(slots, counts)
        length = self.length[rows]
        out = np.zeros((rows.size, k), dtype=np.int64)
        state = (length == 0).view(np.int8)  # True is _EMPTY
        order = np.argsort(-length, kind="stable")
        order = order[: np.count_nonzero(length)]
        if order.size == 0:
            return out, state
        rows = rows[order]
        length = length[order]
        start = self.start[rows][:, None]
        span = length[:, None]
        uniforms = gen.random((rows.size, k))
        if weighted:
            total = self.total[rows]
            mass = uniforms * total[:, None]
            idx = np.zeros(mass.shape, dtype=np.int64)
            below = start - 1
            shorter = -length
            cum = self.cum
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
        else:
            idx = (uniforms * span).astype(np.int64)
        # Guard against float round-up at the top of the mass range.
        np.minimum(idx, span - 1, out=idx)
        idx += start
        out[order] = self.ids.take(idx)
        return out, state

    # -- compaction ---------------------------------------------------------
    def compact(self, budget: Optional[int] = None) -> int:
        """Rewrite the arena with the clean rows read in the last
        ``KEEP_IDLE`` intervals, bit for bit; returns how many clean
        rows were dropped.  Where those exceed ``budget`` arena slots
        the shortest rows are kept first: a hub too large for the budget
        is served once and dropped, it does not push everything else out.
        """
        rows = self.rows
        clean = self.clean[:rows]
        keep = np.flatnonzero(clean & (self.idle[:rows] < KEEP_IDLE))
        length = self.length[keep]
        if budget is not None and int(length.sum()) > budget:
            order = np.argsort(length, kind="stable")
            fits = int(np.searchsorted(np.cumsum(length[order]), budget, "right"))
            keep = np.sort(keep[order[:fits]])
            length = self.length[keep]
        dropped = int(np.count_nonzero(clean)) - keep.size
        ends = np.cumsum(length)
        start = ends - length
        self.used = int(ends[-1]) if keep.size else 0
        self.garbage = 0
        take = np.repeat(self.start[keep] - start, length) + np.arange(self.used)
        self.ids[: self.used] = self.ids.take(take)
        self.cum[: self.used] = self.cum.take(take)
        self.rows = rows = keep.size + 1
        for name in ("src", "total", "version"):
            column = getattr(self, name)
            column[1:rows] = column[keep]
        self.start[1:rows] = start
        self.length[1:rows] = length
        self.clean[1:rows] = True
        self.idle[1:rows] = self.idle[keep] + 1
        self.slot_of = dict(zip(self.src[1:rows].tolist(), range(1, rows)))
        return dropped


class ReadImage:
    """The store's batched read tier: one row image per relation.

    ``capacity_bytes`` bounds the modeled arena bytes (one ID + one
    cumulative weight per slot, garbage included) over all relations;
    an image that outgrows it compacts at once, down to the budget.
    """

    __slots__ = ("capacity_bytes", "stats", "relations")

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        if capacity_bytes < 0:
            raise ConfigurationError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
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

    def row(self, key: Tuple[int, int]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(ids, cumulative weights)`` of the clean row of
        ``(etype, src)`` (copies), or ``None``."""
        if key not in self:
            return None
        image = self.relations[key[0]]
        slot = image.slot_of[key[1]]
        a = int(image.start[slot])
        b = a + int(image.length[slot])
        return image.ids[a:b].copy(), image.cum[a:b].copy()

    def stale_rows(self, trees) -> List[Tuple[int, int]]:
        """Keys of clean rows that are not their tree's current flatten.

        Empty unless a tree of ``trees`` (the store's directory) was
        mutated without the store's entry points setting the dirty bit:
        a clean row must carry its tree's version and equal
        :func:`flatten_tree` with ``==``.
        """
        bad = []
        for etype, image in self.relations.items():
            for slot in np.flatnonzero(image.clean[: image.rows]).tolist():
                key = (etype, int(image.src[slot]))
                tree = trees.get(key)
                if tree is not None and tree.version == image.version[slot]:
                    ids, weights = flatten_tree(tree)
                    row_ids, row_cum = self.row(key)
                    if np.array_equal(row_ids, ids) and np.array_equal(
                        row_cum, np.cumsum(weights)
                    ):
                        continue
                bad.append(key)
        return bad

    # -- coherence --------------------------------------------------------
    def mark_batch(self, etypes: np.ndarray, srcs: np.ndarray) -> None:
        """Set the dirty bit of every row a columnar batch writes to."""
        for etype, image in self.relations.items():
            picked = srcs[etypes == etype].tolist()
            slots = np.fromiter(
                map(image.slot_of.get, picked, repeat(0)),
                dtype=np.int64, count=len(picked),
            )
            image.clean[slots] = False

    def compact(self) -> None:
        """Compact every relation now (also runs by itself, see module
        docstring)."""
        for image in self.relations.values():
            self.stats.evictions += image.compact()
            self.stats.compactions += 1

    def clear(self) -> None:
        """Drop every row (counters are kept; use ``stats.reset()``)."""
        self.relations.clear()

    # -- the read ---------------------------------------------------------
    def sample(
        self, trees, etype: int, srcs: np.ndarray, counts, k: int,
        gen: np.random.Generator, weighted: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``k`` draws for every row of a frontier, from image rows.

        ``trees`` is the store's directory (``(etype, src) -> samtree``),
        asked only for sources whose row is absent or dirty.  ``counts``
        gives ``srcs[i]`` that many consecutive rows.  Returns the
        ``ids[n, k]`` and ``state[n]`` columns of a ``SampleBlock``:
        rows whose source has no adjacency are ``EMPTY`` and left at 0.
        """
        image = self.relations.get(etype)
        if image is None:
            image = self.relations[etype] = _Image()
        stats = self.stats
        keys = srcs.tolist()
        small = len(keys) < ROW_LOOP_BELOW
        if small:
            slots = list(map(image.slot_of.get, keys, repeat(0)))
            clean = image.clean
            stale = [i for i, slot in enumerate(slots) if not clean[slot]]
        else:
            slots = np.fromiter(
                map(image.slot_of.get, keys, repeat(0)),
                dtype=np.int64, count=len(keys),
            )
            stale = (~image.clean[slots]).nonzero()[0].tolist()
        stats.hits += len(keys) - len(stale)
        stats.misses += len(stale)
        appended = stale and image.admit(trees, etype, keys, slots, stale, stats)
        if not small:
            drawn = image.draw_frontier(slots, counts, k, gen, weighted)
        elif counts is None:
            drawn = image.draw_rows(slots, repeat(1), len(keys), k, gen, weighted)
        else:
            counts = np.asarray(counts).tolist()
            drawn = image.draw_rows(slots, counts, sum(counts), k, gen, weighted)
        if appended:
            self._settle(image)
        return drawn

    def _settle(self, image: _Image) -> None:
        """After a call that appended rows: compact if garbage or the
        byte budget says so."""
        live = image.used - image.garbage
        spare = self.capacity_bytes - self.nbytes
        if spare < 0 or image.garbage * GARBAGE_DIVISOR > live:
            self.stats.compactions += 1
            self.stats.evictions += image.compact(
                max(0, image.used + spare // _SLOT_BYTES)
            )
