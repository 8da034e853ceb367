"""PlatoD2GL's dynamic graph storage layer (paper §IV-B, Figure 3).

The store keeps one adjacency per source vertex, indexed by a
:class:`~repro.storage.cuckoo.CuckooHashMap` whose value is the paper's
``<|N_u|, T_u>`` tuple (degree is read off the adjacency, so the record
holds just that and the directory still accounts the degree field's
bytes).  Heterogeneous graphs key the directory by ``(etype, src)`` —
one adjacency per (relation, source) pair, the layout a
relation-partitioned deployment uses.

The adjacency takes one of two forms, picked from its size alone: a
source that fits one leaf (``degree <= c``) is a **row** of the store's
:class:`~repro.core.slab.Slab` — the directory value is the row's
``int`` — and an insert that would take it past ``c`` promotes it, for
good, to a :class:`~repro.core.samtree.Samtree` (DESIGN.md §9).  The
memory model charges a row what its one-leaf samtree costs.

Vertices with no out-edges occupy no storage (paper Example 1), and a
vertex whose last neighbor is deleted is dropped from the directory.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ingest import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    EdgeBatch,
    IngestStats,
    check_id,
    check_key,
)
from repro.core.frozen import FrozenStats
from repro.core.samtree import (
    OpStats,
    Samtree,
    SamtreeConfig,
    _check_weight,
    build_roots,
)
from repro.core.slab import Slab
from repro.core.snapshot import (
    RNGLike,
    ReadImage,
    coerce_generator,
    coerce_scalar_rng,
)
from repro.core.tree_batch import apply_tree_codes
from repro.core.types import (
    DEFAULT_ETYPE,
    GraphStoreAPI,
    SampleBlock,
    check_counts,
)
from repro.errors import ConfigurationError, InvariantViolationError
from repro.storage.cuckoo import CuckooHashMap

__all__ = [
    "DynamicGraphStore",
    "REBUILD_MIN_OPS",
    "REBUILD_DEGREE_RATIO",
]

#: Rebuild-vs-incremental heuristic (paper Fig. 8-9 axis): a per-tree
#: group takes the O(n) bottom-up rebuild only when it is *both* big in
#: absolute terms and big relative to the tree it targets.  Small
#: touch-ups on large trees route through the PALM batch path
#: (:mod:`repro.core.tree_batch`), which costs O(g log n) instead of O(n).
REBUILD_MIN_OPS = 16
REBUILD_DEGREE_RATIO = 4

_ONE = np.ones(1, dtype=np.int64)

#: The round kernel over slab rows costs a fixed ~40 numpy dispatches
#: however few groups a round holds; below this many the scalar row
#: operation (~2 µs) is cheaper.
KERNEL_MIN_GROUPS = 16


class DynamicGraphStore(GraphStoreAPI):
    """The samtree-backed dynamic topology store of PlatoD2GL.

    Parameters
    ----------
    config:
        Samtree parameters (capacity ``c``, slackness ``α``, CP-IDs
        compression); shared by every per-vertex tree.

    Every store owns a :class:`ReadImage` (``snapshot_cache``): the read
    tier of its vectorized frontier sampling (:mod:`repro.core.snapshot`).
    Vertex ids are ``0 .. 2**63 - 1`` on every write path
    (:func:`~repro.core.ingest.check_id`).

    Examples
    --------
    >>> store = DynamicGraphStore()
    >>> store.add_edge(1, 2, 0.1)
    True
    >>> store.add_edge(1, 3, 0.4)
    True
    >>> store.degree(1)
    2
    """

    def __init__(self, config: Optional[SamtreeConfig] = None) -> None:
        self.config = config or SamtreeConfig()
        self.stats = OpStats()
        #: Cumulative columnar-ingest ledger: every
        #: :meth:`apply_edge_batch` merges its per-call
        #: :class:`IngestStats` in here, so the registry's
        #: ``repro_ingest_*`` series (DESIGN.md §11) see lifetime totals.
        self.ingest_stats = IngestStats()
        #: ``(etype, src)`` -> a :class:`Samtree`, or the ``int`` row of
        #: :attr:`slab` for a source that never outgrew ``c``.
        self._directory = CuckooHashMap(initial_buckets=64)
        self.slab = Slab(self.config.capacity, self.stats)
        # `_num_edges += d` is a non-atomic read-modify-write; PALM
        # threads mutating disjoint sources share this counter, and
        # update it under the slab lock.
        self._num_edges = 0
        self.snapshot_cache = ReadImage()
        #: Reads of frozen relations (:meth:`freeze`), by draw kernel.
        self.frozen_stats = FrozenStats()

    # ------------------------------------------------------------------
    # adjacency lookup
    # ------------------------------------------------------------------
    def _tree(self, src: int, etype: int):
        value = self._directory.get(etype, src)
        return self.slab.view(value) if type(value) is int else value

    def tree(self, src: int, etype: int = DEFAULT_ETYPE):
        """The adjacency of ``src``, read-only: the :class:`Samtree` of
        a source that once outgrew ``c``, a
        :class:`~repro.core.slab.SlabRow` view (``degree``, ``version``,
        ``items()``, ``total_weight``, ``get_weight``,
        ``check_invariants``) of a small one, ``None`` for a source with
        no edges.  A tree mutated here instead of through the store
        leaves its image row stale (:meth:`check_invariants` says so)."""
        return self._tree(src, etype)

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def _mark_written(self, src: int, etype: int, moved: bool = False) -> None:
        """Read-tier coherence: set the dirty bit of ``src``'s image row.

        Called at every mutation entry point *before* the write, even
        when the write turns out to be a no-op — over-invalidation is
        safe, a stale read is not; a row read in place from the slab only
        once its source leaves the row (``moved``, :meth:`_release`).  A
        dict read and a flag store, so PALM threads may call it.
        """
        relations = self.snapshot_cache.relations
        if relations:
            image = relations.get(etype)
            if image is not None:
                image.mark(src, moved)

    def _release(self, key, row: int) -> None:
        """Give slab ``row`` back; a read-image pointer to it re-probes."""
        self.slab.release(row)
        self._mark_written(key[1], key[0], moved=True)

    def add_edge(
        self,
        src: int,
        dst: int,
        weight: float = 1.0,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        return self.write_op(OP_INSERT, src, dst, weight, etype)

    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        return self.write_op(OP_UPDATE, src, dst, weight, etype)

    def remove_edge(self, src: int, dst: int, etype: int = DEFAULT_ETYPE) -> bool:
        return self.write_op(OP_DELETE, src, dst, 0.0, etype)

    def write_op(
        self, code: int, src: int, dst: int, weight: float, etype: int
    ) -> bool:
        """One scalar operation: one probe, then the row or tree op.

        Key, weight and id are checked before anything is touched, so a
        rejected first write leaves neither a row nor a directory entry
        (a samtree runs the weight check itself; a stored key was
        checked when it was created).
        """
        key = (etype, src)
        value = self._directory.get(etype, src)
        if value is None:
            if code != OP_INSERT:
                return False
            check_key(src, etype)
        dst = check_id(dst)
        if code != OP_DELETE and (value is None or type(value) is int):
            weight = _check_weight(weight)
        self._mark_written(src, etype)
        with self.slab.lock:
            done, _ = self._apply_one(key, value, code, dst, weight)
            if done and code != OP_UPDATE:
                self._num_edges += 1 if code == OP_INSERT else -1
        return done

    def _apply_one(self, key, value, code: int, dst: int, weight: float):
        """Apply one validated operation to the source ``key`` whose
        directory value is ``value`` — a slab row (the caller holds the
        slab lock), a samtree or ``None``.  Returns the outcome
        (inserts: "was new", updates and deletes: "existed") and the
        directory value afterwards; the edge counter is the caller's."""
        slab = self.slab
        if type(value) is int:
            # `None`: an insert into a row at c — promoted, and the
            # samtree takes it.
            done = slab.apply(value, code, dst, weight)
            if done is None:
                ids, weights = slab.arrays(value)
                order = np.argsort(ids)
                value = self._plant(key, value, ids[order], weights[order])
                done = value.insert(dst, weight)
            elif not slab.length[value]:  # gone with its last edge
                self._release(key, value)
                self._directory.delete(*key)
                value = None
        elif value is None:
            done = code == OP_INSERT
            if done:  # first edge of a source: a row, no empty samtree
                (value,) = slab.alloc_many(
                    np.asarray([key[1]]), _ONE, np.asarray([dst]),
                    np.asarray([weight]),
                ).tolist()
                self.stats.leaf_ops += 1
                self._directory.put(*key, value)
        elif code == OP_INSERT:
            done = value.insert(dst, weight)
        elif code == OP_UPDATE:
            done = value.update(dst, weight)
        else:
            done = value.delete(dst)
            if done and not value:  # gone with its last edge
                self._directory.delete(*key)
                value = None
        return done, value

    def _plant(
        self, key, row: int, ids: np.ndarray, weights: np.ndarray
    ) -> Samtree:
        """Promote: replace slab ``row`` of source ``key`` by the samtree
        built bottom-up over ``ids`` (ascending) / ``weights``.  Never
        undone — a promoted source stays a tree until its last edge
        goes."""
        ((root, size),) = build_roots(self.config, ids, weights, [ids.size])
        tree = Samtree._over(self.config, self.stats, root, size)
        self._directory.put(*key, tree)
        # Holders of the row's version must see the source move on.
        tree._version += self.slab.version.item(row)
        self._release(key, row)
        return tree

    def apply_source_batch(
        self, src: int, etype: int, dsts: List[int], codes: List[int],
        weights: List[float],
    ) -> List[bool]:
        """Apply the rows of one source, given as list columns cut from
        a validated :class:`EdgeBatch` (the PALM executor's per-source
        groups), in order; returns one outcome per row.

        A samtree applies the whole group with one descent per op and
        bottom-up repair rounds (:mod:`repro.core.tree_batch`); a slab
        row applies it op by op under the slab lock — rows of different
        sources share the arena a relocation replaces.
        """
        key = (etype, src)
        value = self._directory.get(etype, src)
        self._mark_written(src, etype)
        if value is None or type(value) is int:
            outcomes: List[bool] = []
            with self.slab.lock:
                grown, gone = self._apply_run(
                    key, value, 0, len(dsts), (dsts, codes, weights), outcomes
                )
                self._num_edges += grown - gone
            return outcomes
        before = value.degree
        outcomes = apply_tree_codes(value, dsts, codes, weights)
        if not value:
            self._directory.delete(etype, src)
        with self.slab.lock:
            self._num_edges += value.degree - before
        return outcomes

    # ------------------------------------------------------------------
    # bulk ingestion (the columnar write path)
    # ------------------------------------------------------------------
    def apply_edge_batch(
        self, batch, dst=None, weight=None, etype=None, op=None
    ) -> IngestStats:
        """Apply a columnar batch of dynamic updates (paper Table II).

        One pass per batch (DESIGN.md §9): one stable sort groups the
        rows per target source (``lexsort_rows``: one ``argsort`` of the
        columns packed into an int64 when their ranges and the row index
        fit 63 bits, else — or below 768 rows — ``np.lexsort``), duplicate ``(etype, src, dst)`` keys
        fold to their net effect over the whole sorted batch, every
        touched source is looked up once, and the groups then split
        three ways: new sources are placed in one segmented pass, slab
        rows take one padded kernel in rounds, and each samtree takes
        the O(n) rebuild or the incremental path depending on how large
        its group is relative to its degree.
        Final store state is identical to applying the same operations
        one by one through
        :meth:`add_edge`/:meth:`update_edge`/:meth:`remove_edge`.
        """
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch(batch, dst, weight, etype, op)
        stats = IngestStats(ops=len(batch))
        if len(batch):
            self.snapshot_cache.mark_batch(batch.etype, batch.src)
            with self.slab.lock:
                self._apply_folded(batch.folded_by_tree(), stats)
                self.slab.settle()
                self._num_edges += stats.inserted - stats.removed
        self.ingest_stats.merge_from(stats)
        return stats

    def _apply_folded(self, batch: EdgeBatch, stats: IngestStats) -> None:
        """Walk the per-source groups of a tree-sorted, duplicate-free
        batch: one batched directory probe, then by what it found."""
        bounds = batch.tree_bounds()
        first = bounds[:-1]
        etypes, srcs = batch.etype[first], batch.src[first]
        directory = self._directory
        # The value column: a slab row, ~i for a samtree, 0 for nothing.
        found, trees = directory.get_many(etypes, srcs)
        missing = found == 0
        if missing.any():
            self._create_missing(batch, bounds, missing, stats)
            if missing.all():  # a pure load reads no row below
                return
        cols = (batch.dst.tolist(), batch.op.tolist(), batch.weight.tolist())
        rows = np.maximum(found, 0)
        if rows.any():
            self._apply_slab_groups(batch, bounds, rows, cols, stats)
        bounds = bounds.tolist()
        for g, tree in zip(np.flatnonzero(found < 0).tolist(), trees):
            et, src, a, b = etypes.item(g), srcs.item(g), bounds[g], bounds[g + 1]
            m = b - a
            if m >= REBUILD_MIN_OPS and m * REBUILD_DEGREE_RATIO >= tree.degree:
                grown, gone = self._rebuild((et, src), tree, a, b, cols)
                stats.trees_rebuilt += 1
            elif m == 1:
                # One op: what PALM degenerates to is the scalar operation
                # (Algorithm 2 / §IV-D) — one descent, path refreshed in place.
                grown, gone = self._apply_run((et, src), tree, a, b, cols)
                stats.trees_incremental += 1
            else:
                # Small touch-up: one descent per op, leaf-local
                # application, bottom-up repair rounds.
                before, codes = tree.degree, cols[1][a:b]
                done = apply_tree_codes(tree, cols[0][a:b], codes, cols[2][a:b])
                gone = sum(ok for ok, c in zip(done, codes) if c == OP_DELETE)
                grown = tree.degree - before + gone
                stats.trees_incremental += 1
                if not tree:
                    directory.delete(et, src)
            stats.inserted += grown
            stats.removed += gone

    def _create_missing(
        self, batch: EdgeBatch, bounds: np.ndarray, missing: np.ndarray,
        stats: IngestStats,
    ) -> None:
        """Store the net inserts of every group whose source is not in
        the directory (updates and deletes against it are no-ops): the
        adjacencies that fit a leaf become slab rows by one segmented
        scatter, the rest samtrees whose leaves are packed in one
        segmented pass; each kind enters the directory by one
        ``put_many``."""
        rows = np.repeat(missing, np.diff(bounds))
        rows &= batch.op == OP_INSERT
        lengths = np.add.reduceat(rows, bounds[:-1], dtype=np.int64)[missing]
        groups = np.flatnonzero(missing)[lengths > 0]
        lengths = lengths[lengths > 0]
        directory = self._directory
        # The directory grows once for the sources about to be created.
        directory.reserve(len(directory) + groups.size)
        dst, weight = batch.dst[rows], batch.weight[rows]
        small = lengths <= self.config.capacity
        short = np.repeat(small, lengths)
        heads = bounds[groups]
        etypes, srcs = batch.etype[heads], batch.src[heads]
        if small.any():
            directory.put_many(etypes[small], srcs[small], self.slab.alloc_many(
                srcs[small], lengths[small], dst[short], weight[short],
            ))
        if not small.all():
            directory.put_many(etypes[~small], srcs[~small], [
                Samtree._over(self.config, self.stats, root, size)
                for root, size in build_roots(
                    self.config, dst[~short], weight[~short],
                    lengths[~small].tolist(),
                )
            ])
        stats.trees_created += groups.size
        stats.inserted += int(lengths.sum())

    def _apply_slab_groups(
        self, batch: EdgeBatch, bounds: np.ndarray, rows: np.ndarray,
        cols: tuple, stats: IngestStats,
    ) -> None:
        """The groups that target slab rows: dense ones (the rebuild
        rule) rewrite their row sorted; the rest run through the padded
        kernel in rounds — round ``r`` applies the ``r``-th op of every
        group that has one — while a round holds enough groups to pay
        for it.  What a round leaves (see :meth:`Slab.apply_round`) and
        the thin tail of rounds fall to the scalar operation."""
        group = np.flatnonzero(rows)
        row = rows[group]
        a = bounds[group]
        m = bounds[group + 1] - a
        dense = m * REBUILD_DEGREE_RATIO >= self.slab.length[row]
        dense &= m >= REBUILD_MIN_OPS

        def scalar(picked, depth: int, run) -> None:
            at = a[picked]
            for key, r, lo, n in zip(
                zip(batch.etype[at].tolist(), batch.src[at].tolist()),
                row[picked].tolist(), at.tolist(), m[picked].tolist(),
            ):
                grown, gone = run(key, r, lo + depth, lo + n, cols)
                stats.inserted += grown
                stats.removed += gone

        if dense.any():
            scalar(dense, 0, self._rebuild)
            stats.trees_rebuilt += int(np.count_nonzero(dense))
            sparse = ~dense
            group, row, a, m = group[sparse], row[sparse], a[sparse], m[sparse]
        stats.trees_incremental += group.size
        depth = 0
        while group.size >= KERNEL_MIN_GROUPS:
            at = a + depth
            left, grown, gone = self.slab.apply_round(
                row, batch.dst[at], batch.op[at], batch.weight[at]
            )
            stats.inserted += grown
            stats.removed += gone
            if left.any():
                scalar(left, depth, self._apply_run)
            depth += 1
            more = m > depth
            more &= ~left
            group, row, a, m = group[more], row[more], a[more], m[more]
        scalar(slice(None), depth, self._apply_run)

    def _apply_run(
        self, key, value, lo: int, hi: int, cols: tuple,
        outcomes: Optional[list] = None,
    ):
        """Ops ``lo:hi`` of the validated list columns ``cols`` (dsts,
        codes, weights), one by one, on the source ``key`` (directory
        value ``value``); returns ``(inserted, removed)`` and appends
        every op's outcome to ``outcomes`` when given."""
        inserted = removed = 0
        for dst, code, weight in zip(*(col[lo:hi] for col in cols)):
            done, value = self._apply_one(key, value, code, dst, weight)
            if outcomes is not None:
                outcomes.append(done)
            if done and code != OP_UPDATE:
                if code == OP_INSERT:
                    inserted += 1
                else:
                    removed += 1
        return inserted, removed

    def _rebuild(self, key, value, lo: int, hi: int, cols: tuple):
        """A big relative group (ops ``lo:hi`` of ``cols``): dict merge,
        then the source rewritten sorted — a samtree bottom-up in place,
        a slab row as a fresh row (outgrowing ``c``: as a tree).
        Returns ``(inserted, removed)``."""
        slab = self.slab
        is_row = type(value) is int
        merged = dict(slab.neighbors(value)) if is_row else value.to_dict()
        before, gone = len(merged), 0
        for d, c, w in zip(*(col[lo:hi] for col in cols)):
            if c == OP_INSERT:
                merged[d] = w
            elif c == OP_UPDATE:
                if d in merged:
                    merged[d] = w
            elif merged.pop(d, None) is not None:
                gone += 1
        order = sorted(merged)
        ids = np.asarray(order, dtype=np.int64)
        weights = np.asarray([merged[i] for i in order], dtype=np.float64)
        if not is_row:
            ((root, size),) = build_roots(self.config, ids, weights, [ids.size])
            value._replace(root, size)
        elif ids.size > self.config.capacity:
            self._plant(key, value, ids, weights)
        else:
            self._release(key, value)
            if order:  # the row just released is the first one reused
                (row,) = slab.alloc_many(
                    np.asarray([key[1]]), np.asarray([ids.size]), ids, weights
                ).tolist()
                self._directory.put(*key, row)
        if not order:
            self._directory.delete(*key)
        return len(order) - before + gone, gone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def degree(self, src: int, etype: int = DEFAULT_ETYPE) -> int:
        tree = self._tree(src, etype)
        return tree.degree if tree is not None else 0

    def edge_weight(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> Optional[float]:
        tree = self._tree(src, etype)
        if tree is None:
            return None
        return tree.get_weight(dst)

    def neighbors(
        self, src: int, etype: int = DEFAULT_ETYPE
    ) -> List[Tuple[int, float]]:
        tree = self._tree(src, etype)
        if tree is None:
            return []
        return list(tree.items())

    def total_weight(self, src: int, etype: int = DEFAULT_ETYPE) -> float:
        """Sum of all edge weights out of ``src`` (``w_s``)."""
        tree = self._tree(src, etype)
        return tree.total_weight if tree is not None else 0.0

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def num_sources(self) -> int:
        return len(self._directory)

    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        """The sources of relation ``etype``, ascending."""
        etypes, srcs = self._directory.columns()[:2]
        return iter(srcs[etypes == etype].tolist())

    def etypes(self) -> List[int]:
        """Distinct relation types present in the store, ascending."""
        return np.unique(self._directory.columns()[0]).tolist()

    def iter_trees(self) -> Iterator[Tuple[Tuple[int, int], object]]:
        """Iterate ``((etype, src), adjacency)`` pairs, ascending, as
        :meth:`tree` gives them — samtree or slab-row view (doctor's
        walk)."""
        slab = self.slab
        for key, value in self._directory.items():
            yield key, slab.view(value) if type(value) is int else value

    @property
    def directory(self) -> CuckooHashMap:
        """The cuckoo directory (read-only structural introspection)."""
        return self._directory

    # ------------------------------------------------------------------
    # frozen relations
    # ------------------------------------------------------------------
    @property
    def frozen_shards(self) -> list:
        """The frozen relations of the read image, one object each
        (``.sample_matrix(frontier, k, gen)`` is the alias kernel alone)."""
        return self.snapshot_cache.frozen_relations

    def freeze(self, etype: Optional[int] = None) -> list:
        """Freeze relation ``etype`` of the read image (default: every
        relation present; an empty store freezes the default relation).

        Every source's row is made clean (a slab row in place, the absent
        and dirty samtrees in one batched flatten), given an alias table
        beside its entries if it lacks one and pinned until :meth:`thaw`;
        batched reads then draw in O(1) per neighbor.  A later write
        dirties *its row* only: it is drawn by binary search until the
        next ``freeze()``, which rebuilds just such rows.  Returns the
        frozen relations.
        """
        # Ascending (etype, src): a relation is a slice, its samtrees too.
        etypes, srcs, values, trees = self._directory.columns()
        wanted = [etype] if etype is not None else (
            np.unique(etypes).tolist() or [DEFAULT_ETYPE]
        )
        bounds = np.searchsorted(etypes, wanted).tolist()
        ends = np.searchsorted(etypes, wanted, "right").tolist()
        held = [0] + np.cumsum(values < 0).tolist()  # samtrees before each
        with self.slab.lock:
            return [
                self.snapshot_cache.freeze(
                    et, srcs[a:b], values[a:b], trees[held[a] : held[b]],
                    self.slab, self.frozen_stats,
                )
                for et, a, b in zip(wanted, bounds, ends)
            ]

    def thaw(self, etype: Optional[int] = None) -> int:
        """Drop the alias tables of relation ``etype`` (default: all)
        and unpin its rows; returns how many relations were frozen."""
        thawed = self.snapshot_cache.thaw(etype)
        self.frozen_stats.thaws += thawed
        return thawed

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_neighbors(
        self,
        src: int,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        """Scalar draws: the ITS/FTS descent of a samtree, inverse
        transform over the running sum of a slab row; ``k < 0`` raises."""
        if k < 0:
            raise ConfigurationError(f"sample count must be >= 0, got {k}")
        value = self._directory.get(etype, src)
        if value is None:
            return []
        rng = coerce_scalar_rng(rng)
        if type(value) is int:
            with self.slab.lock:
                return self.slab.sample(value, k, rng)
        return value.sample_many(k, rng)

    def sample_neighbors_many(
        self,
        srcs: Sequence[int],
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
        *,
        counts: Optional[Sequence[int]] = None,
    ) -> SampleBlock:
        """Vectorized frontier sampling (the batched read path).

        Served from the read image
        (:class:`~repro.core.snapshot.ReadImage`): rows written since
        their last read are re-flattened first, then the whole frontier
        draws at once — through the alias kernel for the rows of a
        frozen relation (:meth:`freeze`) not written since, by binary
        search for the rest; distributionally identical to the exact
        ITS/FTS descent of :meth:`sample_neighbors`.

        ``counts`` is the coalesced request shape (``counts[i]``
        consecutive rows for ``srcs[i]``); without it every entry of
        ``srcs`` is one row.  A negative ``k``, or a ``counts`` that is
        not one non-negative count per source, raises.
        """
        if k < 0:
            raise ConfigurationError(f"fanout must be >= 0, got {k}")
        srcs = np.asarray(srcs, dtype=np.int64)
        counts = check_counts(srcs, counts)
        with self.slab.lock:  # pointer rows are read in the slab's arena
            return SampleBlock(*self.snapshot_cache.sample(
                self._directory, self.slab, etype, srcs, counts,
                k, coerce_generator(rng), self.frozen_stats,
            ))

    def sample_vertices(
        self,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        """Node sampling (paper §III): ``k`` source vertices, degree-
        weighted with replacement, drawn over the sources in ascending
        order — the seed generator for training; ``k < 0`` raises."""
        if k < 0:
            raise ConfigurationError(f"sample count must be >= 0, got {k}")
        etypes, srcs, values, trees = self._directory.columns()
        # Degrees in one gather: a row's length, a samtree's own count.
        weights = self.slab.length[np.maximum(values, 0)].astype(np.float64)
        weights[values < 0] = [tree.degree for tree in trees]
        mine = etypes == etype
        pool, weights = srcs[mine].tolist(), weights[mine].tolist()
        if not pool:
            return []
        rng = coerce_scalar_rng(rng) or random
        return rng.choices(pool, weights=weights, k=k)

    # ------------------------------------------------------------------
    # accounting & validation
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Total modeled bytes of the store.

        Exactly ``sum(self.nbytes_breakdown().values())`` — the
        samtree doctor pins this equality as an invariant.  Includes the
        per-tree snapshot-cache overhead (cached flat read images are
        real resident memory the read path pays for; earlier versions
        under-reported by omitting them).
        """
        return sum(self.nbytes_breakdown().values())

    def nbytes_breakdown(self) -> Dict[str, int]:
        """Per-component modeled bytes (the doctor's memory schema).

        Components: the four samtree node components aggregated over
        every tree (``leaf_nodes`` / ``fstables`` / ``internal_nodes`` /
        ``cstables`` — a slab row is charged as the one-leaf samtree of
        the paper's layout it stands for), the cuckoo ``directory``, the
        ``snapshot_cache`` (the read image's arena slots — see
        :mod:`repro.core.memory` for the assumptions), and ``frozen``
        (the image's alias columns, present between :meth:`freeze` and
        :meth:`thaw`).
        """
        parts = {
            "leaf_nodes": 0,
            "fstables": 0,
            "internal_nodes": 0,
            "cstables": 0,
        }
        for tree in self._directory.trees.values():
            for component, nbytes in tree.nbytes_breakdown().items():
                parts[component] += nbytes
        leaf_nodes, fstables = self.slab.nbytes_parts(self.config.compress)
        parts["leaf_nodes"] += leaf_nodes
        parts["fstables"] += fstables
        parts["directory"] = self._directory.nbytes()
        cache = self.snapshot_cache
        parts["snapshot_cache"] = cache.nbytes
        parts["frozen"] = cache.alias_nbytes
        return parts

    def check_invariants(self) -> None:
        """Validate every samtree, every slab row against its directory
        key, the global edge counter, and that every clean image row is
        its source's current adjacency."""
        edges = 0
        rows: List[int] = []
        srcs: List[int] = []
        for key, value in self._directory.items():
            if type(value) is int:
                rows.append(value)
                srcs.append(key[1])
                continue
            if not value:  # no out-edges, no storage (paper Example 1)
                raise InvariantViolationError(f"empty samtree at {key}")
            value.check_invariants()
            edges += value.degree
        edges += self.slab.check(rows, srcs)
        if edges != self._num_edges:
            raise InvariantViolationError(
                f"edge counter {self._num_edges} != stored total {edges}"
            )
        stale = self.snapshot_cache.stale_rows(self._directory, self.slab)
        if stale:
            raise InvariantViolationError(
                f"image rows differ from their sources (mutated "
                f"outside the store?): {stale[:5]}"
            )
