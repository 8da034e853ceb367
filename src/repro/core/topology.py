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
    fold_run,
)
from repro.core.frozen import FrozenShard, FrozenStats
from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.core.samtree import OpStats, Samtree, SamtreeConfig
from repro.core.snapshot import (
    RNGLike,
    ReadImage,
    coerce_generator,
    coerce_scalar_rng,
)
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI, SampleBlock
from repro.errors import ConfigurationError, InvariantViolationError
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
#: (``apply_source_batch``), which costs O(g log n) instead of O(n).
REBUILD_MIN_OPS = 16
REBUILD_DEGREE_RATIO = 4

_CODE_TO_KIND = {OP_INSERT: "insert", OP_UPDATE: "update", OP_DELETE: "delete"}


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
        # -- frozen read path (repro.core.frozen) ----------------------
        #: Compiled CSC images per etype; coherent via `_mutation_epoch`.
        self._frozen: Dict[int, FrozenShard] = {}
        #: Store-wide mutation epoch: bumped conservatively by *every*
        #: mutation entry point (spurious bumps only cost a recompile;
        #: a missed bump would be a stale read).
        self._mutation_epoch = 0
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
        and any frozen shard stale (:meth:`check_invariants` says so)."""
        return self._tree(src, etype)

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def _mark_written(self, src: int, etype: int) -> None:
        """Read-tier coherence: advance the mutation epoch (frozen
        shards) and set the dirty bit of ``src``'s image row.

        Called at every mutation entry point *before* the write, even
        when the write turns out to be a no-op — over-invalidation is
        safe, a stale read is not.  Racy increments under PALM
        threads may coalesce, but any mutation still moves the epoch
        past every prior compile stamp, which is all coherence needs;
        the row mark is a dict read and a flag store.
        """
        self._mutation_epoch += 1
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
        self._mark_written(src, etype)
        tree = self._tree_or_create(src, etype)
        is_new = tree.insert(dst, weight)
        if is_new:
            with self._count_lock:
                self._num_edges += 1
        return is_new

    def accumulate_edge(
        self,
        src: int,
        dst: int,
        delta: float,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        """Insert or *add onto* an edge weight (interaction counting)."""
        self._mark_written(src, etype)
        tree = self._tree_or_create(src, etype)
        is_new = tree.add_weight(dst, delta)
        if is_new:
            with self._count_lock:
                self._num_edges += 1
        return is_new

    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        tree = self._tree(src, etype)
        if tree is None or dst not in tree:
            return False
        self._mark_written(src, etype)
        tree.insert(dst, weight)
        return True

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
        has_insert = any(kind == "insert" for kind, _, _ in ops)
        if has_insert:
            tree = self._tree_or_create(src, etype)
        else:
            tree = self._tree(src, etype)
            if tree is None:
                return [False] * len(ops)
        before = tree.degree
        outcomes = tree.apply_batch(ops)
        with self._count_lock:
            self._num_edges += tree.degree - before
        if not tree:
            self._directory.delete((etype, src))
        return outcomes

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

        One ``lexsort`` groups the rows per target samtree, duplicate
        ``(etype, src, dst)`` keys fold to their net effect
        (:func:`~repro.core.ingest.fold_run` — equivalent to sequential
        application), and each tree then takes either the O(n) bottom-up
        rebuild or the PALM incremental path depending on how large the
        group is relative to the tree's degree.  Final store state is
        identical to applying the same operations one by one through
        :meth:`add_edge`/:meth:`update_edge`/:meth:`remove_edge`.
        """
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch(batch, dst, weight, etype, op)
        stats = IngestStats(ops=len(batch))
        if len(batch) == 0:
            self.ingest_stats.merge_from(stats)
            return stats
        self._mutation_epoch += 1
        if self.snapshot_cache is not None:
            self.snapshot_cache.mark_batch(batch.etype, batch.src)
        for et, src, group in batch.sorted_by_tree().iter_tree_groups():
            self._apply_tree_group(et, src, group, stats)
        self.ingest_stats.merge_from(stats)
        return stats

    @staticmethod
    def _fold_group(group: EdgeBatch):
        """Net ``(dsts, codes, weights)`` of one per-tree group.

        The group is dst-sorted with submission order preserved inside
        each equal-dst run (stable lexsort), so folding each run yields
        exactly the state sequential application would leave.  Returns
        ``(dst_array, code_list_or_None, weight_array)`` — ``None``
        codes mean *all inserts*, the bulk-load shape, folded with one
        vectorized last-wins keep-mask instead of per-run Python work.
        """
        n = len(group)
        dsts = group.dst
        codes = group.op
        ws = group.weight
        if not codes.any():  # all OP_INSERT (code 0): vectorized dedupe
            if n > 1:
                keep = np.empty(n, dtype=bool)
                np.not_equal(dsts[1:], dsts[:-1], out=keep[:-1])
                keep[-1] = True
                if not bool(keep.all()):
                    dsts = dsts[keep]
                    ws = ws[keep]
            return dsts, None, ws
        net_dst: List[int] = []
        net_code: List[int] = []
        net_w: List[float] = []
        if n == 1:
            return dsts, [int(codes[0])], ws
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(dsts[1:], dsts[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        for a, b in zip(starts.tolist(), ends.tolist()):
            if b - a == 1:
                net_dst.append(int(dsts[a]))
                net_code.append(int(codes[a]))
                net_w.append(float(ws[a]))
                continue
            net = fold_run(codes[a:b].tolist(), ws[a:b].tolist())
            if net is None:
                continue
            net_dst.append(int(dsts[a]))
            net_code.append(net[0])
            net_w.append(net[1])
        return (
            np.asarray(net_dst, dtype=np.int64),
            net_code,
            np.asarray(net_w, dtype=np.float64),
        )

    def _apply_tree_group(
        self, etype: int, src: int, group: EdgeBatch, stats: IngestStats
    ) -> None:
        net_dst, net_code, net_w = self._fold_group(group)
        m = int(net_dst.size)
        if m == 0:
            return
        insert_only = net_code is None
        tree = self._tree(src, etype)
        if tree is None:
            # Updates and deletes against a missing tree are no-ops;
            # net inserts bulk-build the tree bottom-up in one pass.
            if insert_only:
                ins_dst, ins_w = net_dst, net_w
            else:
                mask = np.asarray(net_code, dtype=np.uint8) == OP_INSERT
                if not bool(mask.any()):
                    return
                ins_dst, ins_w = net_dst[mask], net_w[mask]
            tree = self._tree_or_create(src, etype)
            tree._bulk_load_arrays(ins_dst, ins_w, assume_sorted_unique=True)
            stats.trees_created += 1
            stats.inserted += tree.degree
            with self._count_lock:
                self._num_edges += tree.degree
            return
        degree = tree.degree
        if m >= REBUILD_MIN_OPS and m * REBUILD_DEGREE_RATIO >= degree:
            # Big relative batch: merge into a dict and rebuild bottom-up
            # in place.
            merged = tree.to_dict()
            if insert_only:
                before = len(merged)
                merged.update(zip(net_dst.tolist(), net_w.tolist()))
                ins = len(merged) - before
                rem = 0
            else:
                ins = rem = 0
                for d, c, w in zip(
                    net_dst.tolist(), net_code, net_w.tolist()
                ):
                    if c == OP_INSERT:
                        if d not in merged:
                            ins += 1
                        merged[d] = w
                    elif c == OP_UPDATE:
                        if d in merged:
                            merged[d] = w
                    else:  # OP_DELETE
                        if merged.pop(d, None) is not None:
                            rem += 1
            ids = sorted(merged)
            tree._bulk_load_arrays(
                ids, [merged[i] for i in ids], assume_sorted_unique=True
            )
            stats.trees_rebuilt += 1
            stats.inserted += ins
            stats.removed += rem
            with self._count_lock:
                self._num_edges += ins - rem
            if not tree:
                self._directory.delete((etype, src))
        else:
            # Small touch-up: one descent per op + bottom-up repair
            # rounds (PALM).  apply_source_batch maintains the counter
            # and the directory.
            if insert_only:
                triples = [
                    ("insert", d, w)
                    for d, w in zip(net_dst.tolist(), net_w.tolist())
                ]
            else:
                triples = [
                    (_CODE_TO_KIND[c], d, w)
                    for d, c, w in zip(
                        net_dst.tolist(), net_code, net_w.tolist()
                    )
                ]
            outcomes = self.apply_source_batch(src, etype, triples)
            for (kind, _, _), ok in zip(triples, outcomes):
                if ok:
                    if kind == "insert":
                        stats.inserted += 1
                    elif kind == "delete":
                        stats.removed += 1
            stats.trees_incremental += 1

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
    # frozen read path
    # ------------------------------------------------------------------
    @property
    def mutation_epoch(self) -> int:
        """Store-wide mutation epoch (frozen-shard coherence stamp)."""
        return self._mutation_epoch

    @property
    def frozen_shards(self) -> List[FrozenShard]:
        """Currently compiled frozen shards (doctor/introspection)."""
        return list(self._frozen.values())

    def freeze(self, etype: Optional[int] = None) -> List[FrozenShard]:
        """Compile the frozen CSC image(s) for the hot read path.

        ``etype=None`` freezes every relation present (an empty store
        freezes the default relation to an empty shard).  Returns the
        compiled shards; subsequent batched reads of a frozen relation
        dispatch to the vectorized kernels until the store mutates.
        """
        if etype is not None:
            targets = [etype]
        else:
            targets = self.etypes() or [DEFAULT_ETYPE]
        shards: List[FrozenShard] = []
        for et in targets:
            shard = FrozenShard.compile(self, et, self._mutation_epoch)
            self._frozen[et] = shard
            self.frozen_stats.compiles += 1
            self.frozen_stats.compiled_rows += shard.num_rows
            self.frozen_stats.compiled_edges += shard.num_edges
            shards.append(shard)
        return shards

    def thaw(self, etype: Optional[int] = None) -> int:
        """Drop compiled shard(s); returns how many were dropped."""
        if etype is not None:
            dropped = 1 if self._frozen.pop(etype, None) is not None else 0
        else:
            dropped = len(self._frozen)
            self._frozen.clear()
        self.frozen_stats.thaws += dropped
        return dropped

    def _frozen_for(self, etype: int) -> Optional[FrozenShard]:
        """The servable frozen shard of ``etype``, or ``None``.

        A shard is fresh iff it was compiled at the current mutation
        epoch; a stale one is refused, sending the read down the live
        samtree path until the next :meth:`freeze`.
        """
        shard = self._frozen.get(etype)
        if shard is None:
            return None
        if shard.epoch == self._mutation_epoch:
            return shard
        self.frozen_stats.stale_misses += 1
        return None

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

        When the relation has a fresh frozen shard (:meth:`freeze`) the
        whole frontier is one columnar CSC kernel call and the block is
        the kernel's ``(matrix, valid)`` as is.  Otherwise — never
        frozen, or mutated since — it is served from the read image
        (:class:`~repro.core.snapshot.ReadImage`): rows written since
        their last read are re-flattened first, then the whole frontier
        draws at once; distributionally identical to the exact ITS/FTS
        descent, which a store built with ``snapshot_cache=None`` runs
        for every draw.

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
        srcs = np.asarray(srcs, dtype=np.int64)
        gen = coerce_generator(rng)
        # A zero fan-out draws nothing, but still says which sources
        # have adjacency — the frozen kernel does not.
        if self._frozen and k:
            shard = self._frozen_for(etype)
            if shard is not None:
                if counts is not None:
                    srcs = np.repeat(srcs, counts)
                matrix, valid = shard.sample_matrix(
                    srcs, k, gen, uniform=not weighted
                )
                served = int(np.count_nonzero(valid))
                stats = self.frozen_stats
                stats.batches += 1
                stats.vertices += srcs.size
                stats.draws += served * k
                stats.missing_vertices += srcs.size - served
                return SampleBlock(matrix, (~valid).view(np.int8))
        return SampleBlock(*cache.sample(
            self._directory, etype, srcs, counts, k, gen, weighted
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
        ``snapshot_cache`` (cached entries accounted under the cache's
        own :class:`MemoryModel` at build time — see
        :mod:`repro.core.memory` for the assumptions), and the
        ``frozen`` CSC images compiled by :meth:`freeze`.
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
        parts["snapshot_cache"] = (
            self.snapshot_cache.nbytes
            if self.snapshot_cache is not None
            else 0
        )
        parts["frozen"] = sum(
            shard.nbytes(model) for shard in self._frozen.values()
        )
        return parts

    def check_invariants(self) -> None:
        """Validate every samtree, the global edge counter, and that
        every clean image row is its tree's current flatten."""
        edges = 0
        for _, tree in self._directory.items():
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
