"""Shared types: op codes, sample blocks, and the store interface.

Every topology store in this package — PlatoD2GL's samtree store, the
PlatoGL block-KV baseline, and the AliGraph static baseline — implements
:class:`GraphStoreAPI`, so benchmark drivers, the distributed layer, and
the GNN samplers are store-agnostic.
"""

from __future__ import annotations

import abc
import sys
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.snapshot import RNGLike, coerce_scalar_rng
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_ETYPE",
    "UNAVAILABLE",
    "SampleBlock",
    "run_bounds",
    "lexsort_rows",
    "check_counts",
    "OP_INSERT",
    "OP_UPDATE",
    "OP_DELETE",
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


#: Fewer rows sort with ``np.lexsort``: packing costs ~15 µs of fixed
#: dispatches, lexsort's indirect merge grows faster than ``n log n``.
#: Two int64 keys, 2-core x86 (lexsort vs packed): 5 rows 1.6 vs 17 µs,
#: 768 rows 28 vs 31 µs, 2 048 rows 212 vs 63 µs.
PACKED_SORT_FROM = 768

#: ``np.lexsort`` below its ``__array_function__`` dispatcher, a Python
#: frame the sample plane's per-hop call budget has no room for.
_lexsort = getattr(np.lexsort, "_implementation", np.lexsort)


def lexsort_rows(*keys: np.ndarray) -> np.ndarray:
    """The stable order of the rows by ``keys[0]``, then ``keys[1]``,
    ...: ``np.lexsort`` of ``keys[::-1]``, bit for bit.

    From :data:`PACKED_SORT_FROM` rows, if the keys' ranges (each offset
    by its minimum) plus the row index fit in 63 bits, one ``argsort`` of
    the keys packed into an int64, the row index lowest: the packed
    values are distinct, so any sort is stable.  Else ``np.lexsort``.
    """
    n = len(keys[0])
    if n >= PACKED_SORT_FROM:
        packed, bits = np.zeros(n, dtype=np.int64), (n - 1).bit_length()
        for key in keys:
            low = np.minimum.reduce(key)
            width = (int(np.maximum.reduce(key)) - int(low)).bit_length()
            bits += width
            if bits > 63:
                break
            packed <<= width
            packed |= np.subtract(key, low, dtype=np.int64)
        else:
            packed <<= (n - 1).bit_length()
            packed |= np.arange(n)
            return packed.argsort()
    return _lexsort(keys[::-1])


#: ``slots=True`` (3.10+) removes the per-instance ``__dict__`` from the
#: serving tier's per-request records.
SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


#: Operation codes of a write — the ``op`` column of a batch and of a
#: WAL row, the ``code`` of :meth:`GraphStoreAPI.write_op`: upsert,
#: in-place update, delete (the three dynamic-update kinds of the
#: paper's Table II).
OP_INSERT, OP_UPDATE, OP_DELETE = 0, 1, 2


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

    def write_op(
        self, code: int, src: int, dst: int, weight: float, etype: int
    ) -> bool:
        """Apply one operation by op code (a delete ignores ``weight``);
        by default through ``add_edge``/``update_edge``/``remove_edge``."""
        if code == OP_INSERT:
            return self.add_edge(src, dst, weight, etype)
        if code == OP_UPDATE:
            return self.update_edge(src, dst, weight, etype)
        return self.remove_edge(src, dst, etype)

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
        :meth:`write_op` — the reference semantics every bulk path must
        reproduce exactly.
        """
        from repro.core.ingest import EdgeBatch, IngestStats

        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch(batch, dst, weight, etype, op)
        stats = IngestStats(ops=len(batch))
        for code, s, d, w, e in zip(
            batch.op.tolist(), batch.src.tolist(), batch.dst.tolist(),
            batch.weight.tolist(), batch.etype.tolist(),
        ):
            if self.write_op(code, s, d, w, e):
                if code == OP_INSERT:
                    stats.inserted += 1
                elif code == OP_DELETE:
                    stats.removed += 1
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

    def sample_neighbors_many(
        self,
        srcs: Sequence[int],
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
        *,
        counts: Optional[Sequence[int]] = None,
    ) -> SampleBlock:
        """Batched sampling: ``k`` draws for every row of a frontier.

        The one batched read endpoint — the operator layer
        (:mod:`repro.gnn.samplers`) calls it for whole frontiers and
        every layer (store, server, client) returns the same
        :class:`SampleBlock`.  ``counts`` gives ``srcs[i]`` that many
        consecutive rows (the coalesced wire shape: distinct sources +
        multiplicities), each drawn independently; a ``counts`` of
        another length or with a negative entry raises.  This default
        loops the scalar endpoint; stores with a vectorized read path
        override it.
        """
        if k < 0:
            raise ConfigurationError(f"fanout must be >= 0, got {k}")
        srcs = np.asarray(srcs, dtype=np.int64)
        counts = check_counts(srcs, counts)
        if counts is not None:
            srcs = np.repeat(srcs, counts)
        rng = coerce_scalar_rng(rng)
        ids = np.zeros((srcs.size, k), dtype=np.int64)
        state = np.zeros(srcs.size, dtype=np.int8)
        for i, src in enumerate(srcs.tolist()):
            row = self.sample_neighbors(src, k, rng, etype)
            if len(row):
                ids[i] = row
            elif k or not self.degree(src, etype):
                state[i] = SampleBlock.EMPTY
        return SampleBlock(ids, state)

    # -- accounting -------------------------------------------------------
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Modeled memory footprint in bytes (see ``repro.core.memory``)."""
