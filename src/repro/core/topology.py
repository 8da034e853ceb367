"""PlatoD2GL's dynamic graph storage layer (paper §IV-B, Figure 3).

The store keeps one :class:`~repro.core.samtree.Samtree` per source
vertex, indexed by a :class:`~repro.storage.cuckoo.CuckooHashMap` whose
value is the paper's ``<|N_u|, T_u>`` tuple (degree is read off the tree,
so the record holds the tree and the directory still accounts the degree
field's bytes).  Heterogeneous graphs key the directory by
``(etype, src)`` — one samtree per (relation, source) pair, the layout a
relation-partitioned deployment uses.

Vertices with no out-edges occupy no storage (paper Example 1), and a
vertex whose last neighbor is deleted is dropped from the directory.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ingest import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    EdgeBatch,
    IngestStats,
)
from repro.core.frozen import FrozenStats
from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.core.samtree import OpStats, Samtree, SamtreeConfig, build_roots
from repro.core.snapshot import (
    RNGLike,
    ReadImage,
    coerce_generator,
    coerce_scalar_rng,
)
from repro.core.tree_batch import apply_tree_codes
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI, SampleBlock
from repro.errors import (
    ConfigurationError,
    InvalidWeightError,
    InvariantViolationError,
)
from repro.storage.cuckoo import CuckooHashMap

__all__ = [
    "DynamicGraphStore",
    "REBUILD_MIN_OPS",
    "REBUILD_DEGREE_RATIO",
]

#: Sentinel distinguishing "not passed" from "explicitly disabled".
_DEFAULT_CACHE = object()

#: Rebuild-vs-incremental heuristic (paper Fig. 8-9 axis): a per-tree
#: group takes the O(n) bottom-up rebuild only when it is *both* big in
#: absolute terms and big relative to the tree it targets.  Small
#: touch-ups on large trees route through the PALM batch path
#: (:mod:`repro.core.tree_batch`), which costs O(g log n) instead of O(n).
REBUILD_MIN_OPS = 16
REBUILD_DEGREE_RATIO = 4


class DynamicGraphStore(GraphStoreAPI):
    """The samtree-backed dynamic topology store of PlatoD2GL.

    Parameters
    ----------
    config:
        Samtree parameters (capacity ``c``, slackness ``α``, CP-IDs
        compression); shared by every per-vertex tree.
    snapshot_cache:
        The read image serving vectorized frontier sampling
        (:mod:`repro.core.snapshot`).  Defaults to a fresh
        :class:`ReadImage` with the standard budget; pass ``None``
        to force every draw down the exact ITS/FTS descent.

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

    def __init__(
        self,
        config: Optional[SamtreeConfig] = None,
        snapshot_cache=_DEFAULT_CACHE,
    ) -> None:
        self.config = config or SamtreeConfig()
        self.stats = OpStats()
        #: Cumulative columnar-ingest ledger: every
        #: :meth:`apply_edge_batch` merges its per-call
        #: :class:`IngestStats` in here, so registry views
        #: (``repro_ingest_*``; DESIGN.md §11) see lifetime totals.
        self.ingest_stats = IngestStats()
        self._directory = CuckooHashMap(initial_buckets=64)
        self._num_edges = 0
        # `_num_edges += d` is a non-atomic read-modify-write; PALM
        # threads mutating disjoint trees still share this counter.
        self._count_lock = threading.Lock()
        self.snapshot_cache: Optional[ReadImage] = (
            ReadImage() if snapshot_cache is _DEFAULT_CACHE
            else snapshot_cache
        )
        #: Reads of frozen relations (:meth:`freeze`), by draw kernel.
        self.frozen_stats = FrozenStats()

    # ------------------------------------------------------------------
    # tree lookup
    # ------------------------------------------------------------------
    def _tree(self, src: int, etype: int) -> Optional[Samtree]:
        return self._directory.get((etype, src))

    def _tree_or_create(self, src: int, etype: int) -> Samtree:
        return self._directory.get_or_create(
            (etype, src), lambda: Samtree(self.config, stats=self.stats)
        )

    def tree(self, src: int, etype: int = DEFAULT_ETYPE) -> Optional[Samtree]:
        """Expose the samtree of ``src`` (used by tests and the PALM
        executor, which groups a batch per tree).  Read-only: a tree
        mutated here instead of through the store leaves its image row
        stale (:meth:`check_invariants` says so)."""
        return self._tree(src, etype)

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def _mark_written(self, src: int, etype: int) -> None:
        """Read-tier coherence: set the dirty bit of ``src``'s image row.

        Called at every mutation entry point *before* the write, even
        when the write turns out to be a no-op — over-invalidation is
        safe, a stale read is not.  A dict read and a flag store, so
        PALM threads may call it.
        """
        cache = self.snapshot_cache
        if cache is not None and cache.relations:
            image = cache.relations.get(etype)
            if image is not None:
                image.mark(src)

    def add_edge(
        self,
        src: int,
        dst: int,
        weight: float = 1.0,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        return self._upsert_edge(src, dst, weight, etype, add=False)

    def accumulate_edge(
        self,
        src: int,
        dst: int,
        delta: float,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        """Insert or *add onto* an edge weight (interaction counting)."""
        return self._upsert_edge(src, dst, delta, etype, add=True)

    def _upsert_edge(
        self, src: int, dst: int, weight: float, etype: int, add: bool
    ) -> bool:
        self._mark_written(src, etype)
        tree = self._tree_or_create(src, etype)
        try:
            is_new = tree._upsert(dst, weight, add)
        except InvalidWeightError:
            if not tree:  # a rejected first write leaves no empty tree
                self._directory.delete((etype, src))
            raise
        if is_new:
            with self._count_lock:
                self._num_edges += 1
        return is_new

    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        tree = self._tree(src, etype)
        if tree is None:
            return False
        self._mark_written(src, etype)
        return tree.update(dst, weight)

    def remove_edge(self, src: int, dst: int, etype: int = DEFAULT_ETYPE) -> bool:
        tree = self._tree(src, etype)
        if tree is None:
            return False
        self._mark_written(src, etype)
        removed = tree.delete(dst)
        if removed:
            with self._count_lock:
                self._num_edges -= 1
            if not tree:
                self._directory.delete((etype, src))
        return removed

    def apply_source_batch(
        self, src: int, etype: int, ops
    ) -> List[bool]:
        """Apply a batch of ``(kind, dst, weight)`` triples to one source.

        Used by the PALM executor's per-tree groups: the samtree applies
        the whole batch with one descent per op and bottom-up repair
        rounds (:mod:`repro.core.tree_batch`), and this wrapper keeps the
        directory and the edge counter consistent.
        """
        self._mark_written(src, etype)
        if any(kind == "insert" for kind, _, _ in ops):
            tree = self._tree_or_create(src, etype)
        else:
            tree = self._tree(src, etype)
            if tree is None:
                return [False] * len(ops)
        before = tree.degree
        try:
            return tree.apply_batch(ops)
        finally:  # also when the batch is rejected: no empty tree stays
            with self._count_lock:
                self._num_edges += tree.degree - before
            if not tree:
                self._directory.delete((etype, src))

    # ------------------------------------------------------------------
    # bulk ingestion (the columnar write path)
    # ------------------------------------------------------------------
    def bulk_load(
        self, src, dst=None, weight=None, etype=None
    ) -> IngestStats:
        """Insert-only columnar bulk load (the graph-build shape).

        Accepts either an insert-only :class:`EdgeBatch` or raw columns
        (``src``/``dst`` arrays plus optional ``weight``/``etype``, each
        broadcastable from a scalar).  Equivalent to an ``add_edge`` loop
        with last-wins upsert semantics, but each target samtree is built
        or rebuilt bottom-up in O(n) instead of edge by edge.
        """
        if isinstance(src, EdgeBatch):
            batch = src
            if not batch.is_insert_only:
                raise ConfigurationError(
                    "bulk_load takes insert-only batches; use "
                    "apply_edge_batch for mixed-op batches"
                )
        else:
            batch = EdgeBatch.inserts(src, dst, weight, etype)
        return self.apply_edge_batch(batch)

    def apply_edge_batch(
        self, batch, dst=None, weight=None, etype=None, op=None
    ) -> IngestStats:
        """Apply a columnar batch of dynamic updates (paper Table II).

        One pass per batch (DESIGN.md §9): one ``lexsort`` groups the
        rows per target samtree, duplicate ``(etype, src, dst)`` keys
        fold to their net effect over the whole sorted batch, every
        touched tree is looked up once, and each group then takes the
        bottom-up build (new tree), the O(n) rebuild or the incremental
        path depending on how large it is relative to the tree's degree.
        Final store state is identical to applying the same operations
        one by one through
        :meth:`add_edge`/:meth:`update_edge`/:meth:`remove_edge`.
        """
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch(batch, dst, weight, etype, op)
        stats = IngestStats(ops=len(batch))
        if len(batch):
            if self.snapshot_cache is not None:
                self.snapshot_cache.mark_batch(batch.etype, batch.src)
            self._apply_folded(batch.folded_by_tree(), stats)
        self.ingest_stats.merge_from(stats)
        return stats

    def _apply_folded(self, batch: EdgeBatch, stats: IngestStats) -> None:
        """Walk the per-tree groups of a tree-sorted, duplicate-free
        batch over list columns and integer op codes."""
        bounds = batch.tree_bounds()
        keys = list(zip(
            batch.etype[bounds[:-1]].tolist(), batch.src[bounds[:-1]].tolist()
        ))
        directory = self._directory
        trees = list(map(directory.get, keys))  # the one probe per tree
        built = self._build_missing(batch, bounds, trees)
        if built:
            # The directory grows once for the trees about to be created,
            # not by a rehash at every doubling under the put loop.
            directory.reserve(len(directory) + len(built) - built.count(None))
        built = iter(built)
        if len(trees) > trees.count(None):  # a pure load reads no row here
            dsts = batch.dst.tolist()
            codes = batch.op.tolist()
            weights = batch.weight.tolist()
        bounds = bounds.tolist()
        inserted = removed = 0
        for key, tree, a, b in zip(keys, trees, bounds, bounds[1:]):
            if tree is None:
                # Updates and deletes against a missing tree are no-ops;
                # its net inserts, if any, were bulk-built bottom-up.
                tree = next(built)
                if tree is not None:
                    directory.put(key, tree)
                    stats.trees_created += 1
                    inserted += tree.degree
                continue
            m = b - a
            before, gone = tree.degree, 0  # gone: edges the group deleted
            if m >= REBUILD_MIN_OPS and m * REBUILD_DEGREE_RATIO >= before:
                # Big relative batch: dict merge, bottom-up rebuild in place.
                merged = tree.to_dict()
                for d, c, w in zip(dsts[a:b], codes[a:b], weights[a:b]):
                    if c == OP_INSERT:
                        merged[d] = w
                    elif c == OP_UPDATE:
                        if d in merged:
                            merged[d] = w
                    elif merged.pop(d, None) is not None:
                        gone += 1
                ids = sorted(merged)
                (rebuilt,) = build_roots(
                    self.config,
                    np.asarray(ids, dtype=np.int64),
                    np.asarray([merged[i] for i in ids], dtype=np.float64),
                    [len(ids)],
                )
                tree._replace(*rebuilt)
                stats.trees_rebuilt += 1
            elif m == 1:
                # One op: what PALM degenerates to is the scalar operation
                # (Algorithm 2 / §IV-D) — one descent, path refreshed in place.
                if codes[a] == OP_INSERT:
                    tree.insert(dsts[a], weights[a])
                elif codes[a] == OP_UPDATE:
                    tree.update(dsts[a], weights[a])
                else:
                    gone = tree.delete(dsts[a])
                stats.trees_incremental += 1
            else:
                # Small touch-up: one descent per op, leaf-local
                # application, bottom-up repair rounds.
                group = codes[a:b]
                done = apply_tree_codes(tree, dsts[a:b], group, weights[a:b])
                gone = sum(ok for ok, c in zip(done, group) if c == OP_DELETE)
                stats.trees_incremental += 1
            inserted += tree.degree - before + gone
            removed += gone
            if not tree:
                directory.delete(key)
        stats.inserted += inserted
        stats.removed += removed
        with self._count_lock:
            self._num_edges += inserted - removed

    def _build_missing(
        self, batch: EdgeBatch, bounds: np.ndarray, trees: List
    ) -> List[Optional[Samtree]]:
        """For every group of ``batch`` whose tree is missing, in order:
        the new samtree of its inserts (``None`` when it holds none) —
        all their leaves built in one segmented pass over the columns."""
        if None not in trees:
            return []
        missing = np.asarray([tree is None for tree in trees])
        rows = np.repeat(missing, np.diff(bounds))
        rows &= batch.op == OP_INSERT
        lengths = np.add.reduceat(rows, bounds[:-1], dtype=np.intp)[missing]
        return [
            Samtree._over(self.config, self.stats, root, size) if size else None
            for root, size in build_roots(
                self.config, batch.dst[rows], batch.weight[rows],
                lengths.tolist(),
            )
        ]

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
        for key_etype, src in self._directory.keys():
            if key_etype == etype:
                yield src

    def etypes(self) -> List[int]:
        """Distinct relation types present in the store."""
        return sorted({etype for etype, _ in self._directory.keys()})

    def iter_trees(self) -> Iterator[Tuple[Tuple[int, int], Samtree]]:
        """Iterate ``((etype, src), samtree)`` pairs (doctor's walk)."""
        for key, tree in self._directory.items():
            yield key, tree

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
        cache = self.snapshot_cache
        return cache.frozen_relations if cache is not None else []

    def freeze(self, etype: Optional[int] = None) -> list:
        """Freeze relation ``etype`` of the read image (default: every
        relation present; an empty store freezes the default relation).

        Every source's row is made clean (the absent and dirty ones in
        one batched flatten), given an alias table if it lacks one and
        pinned until :meth:`thaw`; batched reads then draw in O(1) per
        neighbor.  A later write dirties *its row* only: it is drawn by
        binary search until the next ``freeze()``, which rebuilds just
        such rows.  Returns the frozen relations — none for a store
        built with ``snapshot_cache=None``, which has no image.
        """
        cache = self.snapshot_cache
        if cache is None:
            return []
        groups: Dict[int, list] = {}
        for (et, src), tree in self._directory.items():
            if etype is None or et == etype:
                groups.setdefault(et, []).append((src, tree))
        if not groups:
            groups[DEFAULT_ETYPE if etype is None else etype] = []
        return [
            cache.freeze(et, groups[et], self.frozen_stats)
            for et in sorted(groups)
        ]

    def thaw(self, etype: Optional[int] = None) -> int:
        """Drop the alias tables of relation ``etype`` (default: all)
        and unpin its rows; returns how many relations were frozen."""
        cache = self.snapshot_cache
        thawed = cache.thaw(etype) if cache is not None else 0
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
        tree = self._tree(src, etype)
        if tree is None or not tree:
            return []
        return tree.sample_many(k, coerce_scalar_rng(rng))

    def sample_neighbors_uniform(
        self,
        src: int,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        """Unweighted variant (each neighbor equally likely)."""
        tree = self._tree(src, etype)
        if tree is None or not tree:
            return []
        rng = coerce_scalar_rng(rng)
        return [tree.sample_uniform(rng) for _ in range(k)]

    def sample_neighbors_many(
        self,
        srcs: Sequence[int],
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
        *,
        weighted: bool = True,
        counts: Optional[Sequence[int]] = None,
    ) -> SampleBlock:
        """Vectorized frontier sampling (the batched read path).

        Served from the read image
        (:class:`~repro.core.snapshot.ReadImage`): rows written since
        their last read are re-flattened first, then the whole frontier
        draws at once — through the alias kernel for the rows of a
        frozen relation (:meth:`freeze`) not written since, by binary
        search for the rest; distributionally identical to the exact
        ITS/FTS descent, which a store built with
        ``snapshot_cache=None`` runs for every draw.

        ``counts`` is the coalesced request shape (``counts[i]``
        consecutive rows for ``srcs[i]``); without it every entry of
        ``srcs`` is one row.
        """
        if k < 0:
            raise ConfigurationError(f"fanout must be >= 0, got {k}")
        cache = self.snapshot_cache
        if cache is None:
            return super().sample_neighbors_many(
                srcs, k, rng, etype, weighted=weighted, counts=counts
            )
        return SampleBlock(*cache.sample(
            self._directory, etype, np.asarray(srcs, dtype=np.int64), counts,
            k, coerce_generator(rng), weighted, self.frozen_stats,
        ))

    def sample_vertices(
        self,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        """Node sampling (paper §III): ``k`` source vertices, degree-
        weighted with replacement — the seed generator for training."""
        pool: List[int] = []
        weights: List[float] = []
        for key_etype, src in self._directory.keys():
            if key_etype == etype:
                pool.append(src)
                weights.append(float(self.degree(src, etype)))
        if not pool:
            return []
        rng = coerce_scalar_rng(rng) or random
        return rng.choices(pool, weights=weights, k=k)

    # ------------------------------------------------------------------
    # accounting & validation
    # ------------------------------------------------------------------
    def nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        """Total modeled bytes of the store.

        Exactly ``sum(self.nbytes_breakdown(model).values())`` — the
        samtree doctor pins this equality as an invariant.  Includes the
        per-tree snapshot-cache overhead (cached flat read images are
        real resident memory the read path pays for; earlier versions
        under-reported by omitting them).
        """
        return sum(self.nbytes_breakdown(model).values())

    def nbytes_breakdown(
        self, model: MemoryModel = DEFAULT_MEMORY_MODEL
    ) -> Dict[str, int]:
        """Per-component modeled bytes (the doctor's memory schema).

        Components: the four samtree node components aggregated over
        every tree (``leaf_nodes`` / ``fstables`` / ``internal_nodes`` /
        ``cstables``), the cuckoo ``directory``, the
        ``snapshot_cache`` (the read image's arena slots, accounted
        under the cache's own :class:`MemoryModel` — see
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
        for _, tree in self._directory.items():
            for component, nbytes in tree.nbytes_breakdown(model).items():
                parts[component] += nbytes
        parts["directory"] = self._directory.nbytes(model)
        cache = self.snapshot_cache
        parts["snapshot_cache"] = cache.nbytes if cache is not None else 0
        parts["frozen"] = cache.alias_nbytes if cache is not None else 0
        return parts

    def check_invariants(self) -> None:
        """Validate every samtree, the global edge counter, and that
        every clean image row is its tree's current flatten."""
        edges = 0
        for key, tree in self._directory.items():
            if not tree:  # no out-edges, no storage (paper Example 1)
                raise InvariantViolationError(f"empty samtree at {key}")
            tree.check_invariants()
            edges += tree.degree
        if edges != self._num_edges:
            raise InvariantViolationError(
                f"edge counter {self._num_edges} != tree total {edges}"
            )
        if self.snapshot_cache is not None:
            stale = self.snapshot_cache.stale_rows(self._directory)
            if stale:
                raise InvariantViolationError(
                    f"image rows differ from their trees (mutated "
                    f"outside the store?): {stale[:5]}"
                )
