"""Shared types: edge records, update operations, and the store interface.

Every topology store in this package — PlatoD2GL's samtree store, the
PlatoGL block-KV baseline, and the AliGraph static baseline — implements
:class:`GraphStoreAPI`, so benchmark drivers, the distributed layer, and
the GNN samplers are store-agnostic.
"""

from __future__ import annotations

import abc
import enum
import random
import sys
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.core.snapshot import RNGLike, coerce_scalar_rng
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_ETYPE",
    "UNAVAILABLE",
    "SampleBlock",
    "run_bounds",
    "check_counts",
    "OpKind",
    "EdgeOp",
    "GraphStoreAPI",
]

#: Edge type used when the graph is homogeneous.
DEFAULT_ETYPE = 0


class _UnavailableType(tuple):
    """Singleton marker for results from shards with no live replica.

    An empty tuple subclass: falsy, iterates empty (samplers degrade
    gracefully), and identity-testable (``row is UNAVAILABLE``).  Lives
    here rather than in the distributed layer so store-agnostic
    consumers (the GNN samplers, the serving tier) can detect degraded
    rows without importing ``repro.distributed``.
    """

    __slots__ = ()

    def __new__(cls) -> "_UnavailableType":
        return super().__new__(cls, ())

    def __repr__(self) -> str:
        return "<UNAVAILABLE>"


#: Per-source marker returned by degraded reads.
UNAVAILABLE = _UnavailableType()


class SampleBlock:
    """The columnar result of every batched sampling endpoint.

    ``ids[i]`` holds the ``k`` draws of frontier row ``i`` and
    ``state[i]`` says what that row is: :attr:`SERVED` (``ids[i]`` are
    neighbors of the row's source), :attr:`EMPTY` (the source has no
    out-edges) or :attr:`UNAVAILABLE` (a degraded read: no live replica
    of its shard).  Rows that are not served hold zeros.  The block
    travels untouched from the kernel that drew it to the trainer;
    consumers pad or drop rows with array operations on ``state``.
    """

    __slots__ = ("ids", "state")

    SERVED = 0
    EMPTY = 1
    UNAVAILABLE = 2

    def __init__(self, ids: np.ndarray, state: np.ndarray) -> None:
        self.ids = ids  #: ``(n, k)`` int64
        self.state = state  #: ``(n,)`` int8

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __repr__(self) -> str:
        n, k = self.ids.shape
        return (
            f"SampleBlock(n={n}, k={k}, "
            f"served={int((self.state == self.SERVED).sum())})"
        )

    def rows(self) -> list:
        """Ragged per-row view for callers that want Python lists:
        the draws of a served row, ``[]`` for an empty one, the
        :data:`UNAVAILABLE` marker for an unavailable one."""
        rows = self.ids.tolist()
        for i in np.flatnonzero(self.state).tolist():
            rows[i] = [] if self.state[i] == self.EMPTY else UNAVAILABLE
        return rows


def check_counts(srcs: np.ndarray, counts) -> Optional[np.ndarray]:
    """``counts`` as an array, checked against the frontier ``srcs`` it
    expands: one non-negative count per source, or ``None``.  Anything
    else raises :class:`~repro.errors.ConfigurationError`."""
    if counts is None:
        return None
    # Cheap on purpose: a client passes ``counts`` on every shard RPC
    # (``len`` over ``shape``, ``argmin`` over a ufunc ``min``).
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or len(counts) != len(srcs):
        raise ConfigurationError(
            f"counts has shape {counts.shape} for {len(srcs)} sources"
        )
    if len(counts) and counts[counts.argmin()] < 0:
        raise ConfigurationError(
            f"counts must be >= 0, got {int(counts[counts.argmin()])}"
        )
    return counts


def run_bounds(sorted_keys: np.ndarray) -> np.ndarray:
    """Boundaries of the runs of equal values in a sorted array.

    The grouping step of the sample plane: for a frontier sorted by
    source, run ``j`` spans ``[bounds[j], bounds[j + 1])`` — so
    ``sorted_keys[bounds[:-1]]`` are the distinct sources and
    ``np.diff(bounds)`` their multiplicities, without a hash table or
    ``np.unique``.
    """
    n = sorted_keys.size
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=edge[1:n])
    return edge.nonzero()[0]


#: ``slots=True`` (3.10+) removes the per-instance ``__dict__`` from the
#: per-op record type — millions of them are alive during a stream
#: replay, so the dict header is the dominant overhead.
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


class OpKind(enum.Enum):
    """The three dynamic-update kinds of the paper's Table II."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True, **_SLOTTED)
class EdgeOp:
    """One dynamic-update operation against a topology store."""

    kind: OpKind
    src: int
    dst: int
    weight: float = 1.0
    etype: int = DEFAULT_ETYPE

    @classmethod
    def insert(
        cls, src: int, dst: int, weight: float = 1.0, etype: int = DEFAULT_ETYPE
    ) -> "EdgeOp":
        return cls(OpKind.INSERT, src, dst, weight, etype)

    @classmethod
    def update(
        cls, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> "EdgeOp":
        return cls(OpKind.UPDATE, src, dst, weight, etype)

    @classmethod
    def delete(cls, src: int, dst: int, etype: int = DEFAULT_ETYPE) -> "EdgeOp":
        return cls(OpKind.DELETE, src, dst, 0.0, etype)


class GraphStoreAPI(abc.ABC):
    """Interface every topology store implements.

    Sources and destinations are 64-bit vertex IDs; ``etype`` selects a
    relation in heterogeneous graphs and defaults to ``0``.
    """

    # -- dynamic updates ------------------------------------------------
    @abc.abstractmethod
    def add_edge(
        self,
        src: int,
        dst: int,
        weight: float = 1.0,
        etype: int = DEFAULT_ETYPE,
    ) -> bool:
        """Insert an edge (or overwrite its weight); True when new."""

    @abc.abstractmethod
    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        """In-place weight update; False when the edge does not exist."""

    @abc.abstractmethod
    def remove_edge(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> bool:
        """Delete an edge; False when it does not exist."""

    def apply(self, op: EdgeOp) -> bool:
        """Apply one :class:`EdgeOp` (dispatch helper)."""
        if op.kind is OpKind.INSERT:
            return self.add_edge(op.src, op.dst, op.weight, op.etype)
        if op.kind is OpKind.UPDATE:
            return self.update_edge(op.src, op.dst, op.weight, op.etype)
        return self.remove_edge(op.src, op.dst, op.etype)

    # -- columnar bulk ingestion ----------------------------------------
    # Generic fallbacks replaying row by row; samtree-backed stores
    # override these with the O(n) bottom-up build
    # (:meth:`repro.core.topology.DynamicGraphStore.apply_edge_batch`).
    # Imports are lazy: :mod:`repro.core.ingest` imports this module.
    def bulk_load(self, src, dst=None, weight=None, etype=None):
        """Insert-only columnar load (the graph build) of an insert-only
        ``EdgeBatch`` or of raw columns, each broadcastable from a
        scalar; returns an ``IngestStats``."""
        from repro.core.ingest import EdgeBatch

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

    def apply_edge_batch(self, batch, dst=None, weight=None, etype=None,
                         op=None):
        """Apply a columnar update batch; returns an ``IngestStats``.

        The fallback replays the batch op by op through
        :meth:`add_edge`/:meth:`update_edge`/:meth:`remove_edge` — the
        reference semantics every bulk path must reproduce exactly.
        """
        from repro.core.ingest import (
            OP_DELETE,
            OP_INSERT,
            EdgeBatch,
            IngestStats,
        )

        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch(batch, dst, weight, etype, op)
        stats = IngestStats(ops=len(batch))
        for i in range(len(batch)):
            code = int(batch.op[i])
            s = int(batch.src[i])
            d = int(batch.dst[i])
            e = int(batch.etype[i])
            if code == OP_INSERT:
                if self.add_edge(s, d, float(batch.weight[i]), e):
                    stats.inserted += 1
            elif code == OP_DELETE:
                if self.remove_edge(s, d, e):
                    stats.removed += 1
            else:
                self.update_edge(s, d, float(batch.weight[i]), e)
        return stats

    # -- queries ---------------------------------------------------------
    @abc.abstractmethod
    def degree(self, src: int, etype: int = DEFAULT_ETYPE) -> int:
        """Out-degree of ``src`` (0 when absent)."""

    @abc.abstractmethod
    def edge_weight(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> Optional[float]:
        """Weight of ``e(src, dst)`` or ``None``."""

    @abc.abstractmethod
    def neighbors(
        self, src: int, etype: int = DEFAULT_ETYPE
    ) -> List[Tuple[int, float]]:
        """All ``(dst, weight)`` pairs of ``src`` (order unspecified)."""

    @property
    @abc.abstractmethod
    def num_edges(self) -> int:
        """Total stored edges across all relations."""

    @property
    @abc.abstractmethod
    def num_sources(self) -> int:
        """Number of vertices with at least one out-edge."""

    @abc.abstractmethod
    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        """Iterate over source vertices of a relation."""

    # -- sampling ----------------------------------------------------------
    @abc.abstractmethod
    def sample_neighbors(
        self,
        src: int,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        """Draw ``k`` weighted neighbor samples (with replacement).

        Returns an empty list when ``src`` has no out-edges, matching the
        padding convention of the GNN sampler layer.  ``rng`` may be a
        ``random.Random``, a ``numpy.random.Generator``, an ``int`` seed,
        or ``None``.
        """

    def sample_neighbors_uniform(
        self,
        src: int,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        """Draw ``k`` *uniform* neighbor samples (with replacement).

        Generic fallback over :meth:`neighbors`; stores with a native
        uniform path (the samtree's count descent) override this.
        """
        ids = [dst for dst, _ in self.neighbors(src, etype)]
        if not ids:
            return []
        rng = coerce_scalar_rng(rng) or random
        n = len(ids)
        return [ids[rng.randrange(n)] for _ in range(k)]

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
        """Batched sampling: ``k`` draws for every row of a frontier.

        The one batched read endpoint — the operator layer
        (:mod:`repro.gnn.samplers`) calls it for whole frontiers and
        every layer (store, server, client) returns the same
        :class:`SampleBlock`.  ``weighted=False`` draws uniformly;
        ``counts`` gives ``srcs[i]`` that many consecutive rows (the
        coalesced wire shape: distinct sources + multiplicities), each
        drawn independently; a ``counts`` of another length or with a
        negative entry raises.  This default loops the scalar endpoints;
        stores with a vectorized read path override it.
        """
        if k < 0:
            raise ConfigurationError(f"fanout must be >= 0, got {k}")
        srcs = np.asarray(srcs, dtype=np.int64)
        counts = check_counts(srcs, counts)
        if counts is not None:
            srcs = np.repeat(srcs, counts)
        draw = (
            self.sample_neighbors if weighted else self.sample_neighbors_uniform
        )
        rng = coerce_scalar_rng(rng)
        ids = np.zeros((srcs.size, k), dtype=np.int64)
        state = np.zeros(srcs.size, dtype=np.int8)
        for i, src in enumerate(srcs.tolist()):
            row = draw(src, k, rng, etype)
            if len(row):
                ids[i] = row
            elif k or not self.degree(src, etype):
                state[i] = SampleBlock.EMPTY
        return SampleBlock(ids, state)

    # -- accounting -------------------------------------------------------
    @abc.abstractmethod
    def nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        """Modeled memory footprint in bytes (see ``repro.core.memory``)."""
