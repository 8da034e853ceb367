"""Columnar edge batches: the wire/stream format of the bulk ingestion tier.

PR 1 made the *read* path batched and columnar (flat snapshots, one RPC
per shard); this module is the symmetric half for the *write* path.  An
:class:`EdgeBatch` carries a batch of dynamic-update operations as five
parallel numpy arrays — ``src``/``dst`` (int64), ``weight`` (float64),
``etype`` (int16) and ``op`` (uint8) — instead of one Python object per
operation.  Everything downstream operates on the arrays directly:

* the store groups a batch per target samtree with one stable sort
  (:func:`~repro.core.types.lexsort_rows`: the columns packed into one
  int64 ``argsort`` when their ranges and the row index fit 63 bits,
  else — or below the measured 768-row break-even — ``np.lexsort``) and
  resolves duplicate ``(etype, src, dst)`` keys *last-wins* with
  sequential-application semantics;
* the distributed client slices one sub-batch per owning shard and
  accounts the :class:`~repro.distributed.rpc.NetworkModel` payload from
  the array bytes, not from per-op object framing;
* :class:`~repro.datasets.stream.EdgeStream`, the dataset loaders and
  the PALM executor (:mod:`repro.concurrency.palm`) take and emit these
  batches end to end: no write is ever one Python object per operation.

Op codes are small ints (:data:`OP_INSERT` upsert, :data:`OP_UPDATE`
in-place only, :data:`OP_DELETE`), mirroring the three dynamic-update
kinds of the paper's Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import DEFAULT_ETYPE, lexsort_rows
from repro.core.types import OP_DELETE, OP_INSERT, OP_UPDATE
from repro.errors import ConfigurationError, InvalidWeightError
from repro.obs.telemetry import Stats

__all__ = [
    "OP_INSERT",
    "OP_UPDATE",
    "OP_DELETE",
    "EdgeBatch",
    "IngestStats",
    "ID_MAX",
    "check_id",
    "check_key",
    "check_row",
    "id_column",
    "chunked",
    "fold_run",
]

#: Modeled wire bytes per column entry: 8 (src) + 8 (dst) + 4 (weight,
#: f32 on the wire) + 2 (etype) + 1 (op code); plus one fixed header per
#: message.  Compare the per-op object framing of the scalar path
#: (``repro.distributed.client._OP_BYTES``): the columnar frame carries
#: the etype and op kind explicitly yet still amortises to almost the
#: same bytes per row — the win is one message per shard per batch.
_ROW_BYTES = 8 + 8 + 4 + 2 + 1
_HEADER_BYTES = 16

#: Range of the ``etype`` column (int16).
ETYPE_MIN, ETYPE_MAX = -(1 << 15), (1 << 15) - 1

#: The largest vertex id: ids are ``0 .. ID_MAX``, what the ``int64``
#: columns of a batch, a slab row, the WAL and a checkpoint all hold.
ID_MAX = (1 << 63) - 1
_ID_DOMAIN = "vertex IDs must be in 0..2**63-1"
_ETYPE_DOMAIN = f"etype must fit int16 ({ETYPE_MIN}..{ETYPE_MAX})"
_OP_DOMAIN = "op codes must be in {0, 1, 2}"


@dataclass
class IngestStats(Stats):
    """Outcome counters of one bulk mutation (store- or shard-level)."""

    ops: int = 0
    #: Net new edges added by the batch.
    inserted: int = 0
    #: Net edges removed by the batch.
    removed: int = 0
    #: Trees that took the O(n) bottom-up rebuild path.
    trees_rebuilt: int = 0
    #: Trees that took the incremental path (the scalar op, or the
    #: bottom-up rounds of :mod:`repro.core.tree_batch`).
    trees_incremental: int = 0
    #: Trees created fresh by the batch (bulk-built).
    trees_created: int = 0


class EdgeBatch:
    """A columnar batch of edge operations (five parallel arrays).

    All columns are validated/coerced on construction; ``weight``,
    ``etype`` and ``op`` broadcast from scalars (the all-inserts,
    homogeneous bulk-load case costs no per-row Python work at all).
    """

    __slots__ = ("src", "dst", "weight", "etype", "op")

    def __init__(
        self,
        src,
        dst,
        weight=None,
        etype=None,
        op=None,
    ) -> None:
        self.src = id_column(src)
        self.dst = id_column(dst)
        if self.src.ndim != 1 or self.src.shape != self.dst.shape:
            raise ConfigurationError(
                f"src/dst must be equal-length 1-D arrays, got "
                f"{self.src.shape} vs {self.dst.shape}"
            )
        n = self.src.size
        self.weight = self._column(
            weight, n, np.float64, 1.0, "weight"
        )
        if etype is not None:
            etype = np.asarray(etype)
            if etype.dtype != np.int16 and etype.size:
                # Checked before the cast: numpy wraps an int64 column
                # into int16 silently.  (The src column is checked below.)
                lo, hi = int(etype.min()), int(etype.max())
                check_key(0, lo if lo < ETYPE_MIN else hi)
        self.etype = self._column(
            etype, n, np.int16, DEFAULT_ETYPE, "etype"
        )
        self.op = self._column(op, n, np.uint8, OP_INSERT, "op")
        if n:
            if bool((self.op > OP_DELETE).any()):
                raise ConfigurationError(
                    f"{_OP_DOMAIN}, got {int(self.op.max())}"
                )
            non_delete = self.op != OP_DELETE
            w = self.weight[non_delete]
            if not bool(np.isfinite(w).all()) or bool((w < 0.0).any()):
                raise InvalidWeightError(
                    "edge weights must be finite and non-negative"
                )

    @staticmethod
    def _column(value, n: int, dtype, default, name: str) -> np.ndarray:
        if value is None:
            return np.full(n, default, dtype=dtype)
        arr = np.asarray(value, dtype=dtype)
        if arr.ndim == 0:
            return np.full(n, arr[()], dtype=dtype)
        if arr.shape != (n,):
            raise ConfigurationError(
                f"{name} column must have length {n}, got shape {arr.shape}"
            )
        return arr

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_validated(
        cls, src, dst, weight, etype, op
    ) -> "EdgeBatch":
        """Internal: wrap columns already validated by a prior batch.

        Row subsets and permutations of a validated batch cannot violate
        any column invariant, so :meth:`select`/:meth:`sorted_by_tree`
        skip re-validation — the per-group cost on the hot ingest path.
        """
        out = object.__new__(cls)
        out.src = src
        out.dst = dst
        out.weight = weight
        out.etype = etype
        out.op = op
        return out

    @classmethod
    def inserts(cls, src, dst, weight=None, etype=None) -> "EdgeBatch":
        """An all-insert batch (the bulk-load shape)."""
        return cls(src, dst, weight, etype, OP_INSERT)

    @classmethod
    def concat(cls, batches: Sequence["EdgeBatch"]) -> "EdgeBatch":
        """The rows of ``batches`` back to back, in order — applied as
        one batch they leave what applying each in turn would (the fold
        is stable, so the last write of a key still wins)."""
        return cls._from_validated(*(
            np.concatenate([getattr(b, column) for b in batches])
            for column in cls.__slots__
        ))

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.src.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EdgeBatch(n={len(self)}, etypes={np.unique(self.etype).size}, "
            f"inserts={int((self.op == OP_INSERT).sum())})"
        )

    @property
    def is_insert_only(self) -> bool:
        return bool((self.op == OP_INSERT).all()) if len(self) else True

    def select(self, indices) -> "EdgeBatch":
        """Row-subset batch (used by the per-shard routing).

        Skips column re-validation: a subset of valid rows is valid.
        """
        return EdgeBatch._from_validated(
            self.src[indices],
            self.dst[indices],
            self.weight[indices],
            self.etype[indices],
            self.op[indices],
        )

    def payload_nbytes(self) -> int:
        """Modeled wire bytes of this batch as one columnar message."""
        return _HEADER_BYTES + _ROW_BYTES * len(self)

    # ------------------------------------------------------------------
    # grouping
    # ------------------------------------------------------------------
    def sorted_by_tree(self) -> "EdgeBatch":
        """Rows lexsorted by ``(etype, src, dst)`` (stable: submission
        order survives inside each equal key, which is what makes the
        last-wins fold below equivalent to sequential application)."""
        return self.select(lexsort_rows(self.etype, self.src, self.dst))

    def tree_bounds(self) -> np.ndarray:
        """First row of every per-tree group of a tree-sorted batch,
        closed by ``len(self)`` (so group ``g`` is rows
        ``bounds[g]:bounds[g + 1]``)."""
        n = len(self)
        new_tree = np.ones(n + 1, dtype=bool)  # rows 0 and n open a group
        np.logical_or(
            self.etype[1:] != self.etype[:-1],
            self.src[1:] != self.src[:-1],
            out=new_tree[1:n],
        )
        return np.flatnonzero(new_tree)

    def folded_by_tree(self) -> "EdgeBatch":
        """Tree-sorted rows with every ``(etype, src, dst)`` key at most
        once — each run of duplicates replaced by its net operation
        (:func:`fold_run`), so the result applied row by row leaves the
        state sequential application of ``self`` would.

        One run mask over the whole batch; a run's last row *is* its net
        unless it is an update (an insert wins over everything before
        it, a delete cancels it), so only those runs fold in Python.
        """
        batch = self.sorted_by_tree()
        dup = batch.dst[1:] == batch.dst[:-1]  # row i + 1 repeats row i
        dup &= batch.src[1:] == batch.src[:-1]
        dup &= batch.etype[1:] == batch.etype[:-1]
        if not dup.any():
            return batch
        keep = np.ones(len(batch), dtype=bool)  # the last row of every run
        np.logical_not(dup, out=keep[:-1])
        ends = np.flatnonzero(dup & keep[1:]) + 1  # of runs longer than one
        ends = ends[batch.op[ends] == OP_UPDATE]
        if ends.size:
            first = np.flatnonzero(~np.concatenate(([False], dup)))
            starts = first[np.searchsorted(first, ends, side="right") - 1]
            for a, b in zip(starts.tolist(), ends.tolist()):
                net = fold_run(
                    batch.op[a:b + 1].tolist(), batch.weight[a:b + 1].tolist()
                )
                if net is None:
                    keep[b] = False
                else:  # `batch` is this call's own sorted copy
                    batch.op[b], batch.weight[b] = net
        return batch.select(keep)


def check_id(vertex: int) -> int:
    """``vertex`` as an ``int``; an id outside ``0 .. ID_MAX`` raises.
    Every write path checks its ids with this or :func:`id_column`, so
    each refuses a bad one with the same error before anything is
    stored or logged."""
    vertex = int(vertex)
    if not 0 <= vertex <= ID_MAX:
        raise InvalidWeightError(f"{_ID_DOMAIN}, got {vertex}")
    return vertex


def id_column(ids) -> np.ndarray:
    """:func:`check_id` for a column: ``ids`` (an array or any sequence)
    as an ``int64`` array.  A ``uint64`` array is checked before the
    cast, which would wrap an id past ``ID_MAX`` to a negative one."""
    if isinstance(ids, np.ndarray) and ids.dtype.kind == "u" and ids.size:
        top = int(ids.max())
        if top > ID_MAX:
            raise InvalidWeightError(f"{_ID_DOMAIN}, got {top}")
    try:
        column = np.asarray(ids, dtype=np.int64)
    except OverflowError:
        raise InvalidWeightError(_ID_DOMAIN) from None
    if column.size and bool((column < 0).any()):
        raise InvalidWeightError(f"{_ID_DOMAIN}, got {int(column.min())}")
    return column


def check_key(src: int, etype: int) -> None:
    """The rules of a source key ``(etype, src)``: ``etype`` fits the
    int16 column the WAL and checkpoints store, ``src`` is an id of
    ``0 .. ID_MAX``.  Every path that may create a key checks them (a
    scalar store write, :func:`check_row`, :class:`EdgeBatch`), so each
    refuses a bad one with the same error before anything is stored or
    logged."""
    if not ETYPE_MIN <= etype <= ETYPE_MAX:
        raise ConfigurationError(f"{_ETYPE_DOMAIN}, got {etype}")
    check_id(src)


def check_row(
    src: int, dst: int, weight: float, code: int, etype: int
) -> None:
    """The column checks of :class:`EdgeBatch` on one row of scalars —
    same rules, same errors — for a writer that packs a single
    operation without building a batch, in its order: ids, then the
    relation, then the op code, then the weight; each field once."""
    check_id(src)
    check_id(dst)
    if not ETYPE_MIN <= etype <= ETYPE_MAX:
        raise ConfigurationError(f"{_ETYPE_DOMAIN}, got {etype}")
    if not OP_INSERT <= code <= OP_DELETE:
        raise ConfigurationError(f"{_OP_DOMAIN}, got {code}")
    if code != OP_DELETE and not 0.0 <= weight < inf:
        raise InvalidWeightError(
            "edge weights must be finite and non-negative"
        )


def chunked(items, size, limit: int) -> Iterator[list]:
    """Consecutive runs of ``items`` whose ``size(item)`` total at most
    ``limit`` (an item larger than ``limit`` is a run of its own)."""
    run, total = [], 0
    for item in items:
        n = size(item)
        if run and total + n > limit:
            yield run
            run, total = [], 0
        run.append(item)
        total += n
    if run:
        yield run


def fold_run(
    ops: Sequence[int], weights: Sequence[float]
) -> Optional[Tuple[int, float]]:
    """Fold duplicate operations on one ``(etype, src, dst)`` key.

    Returns the net ``(op_code, weight)`` whose single application leaves
    the store in exactly the state sequential application of the run
    would — or ``None`` when the run nets out to a no-op (e.g. updates
    after a delete).  The rules mirror per-op semantics:

    * an *insert* always wins over everything before it;
    * an *update* refines the pending weight when the edge will exist
      (after an insert, or standalone against a pre-existing edge) and
      is a no-op after a delete;
    * a *delete* cancels everything before it.
    """
    net: Optional[Tuple[int, float]] = None
    for code, w in zip(ops, weights):
        if code == OP_INSERT:
            net = (OP_INSERT, w)
        elif code == OP_DELETE:
            net = (OP_DELETE, 0.0)
        else:  # OP_UPDATE
            if net is None:
                net = (OP_UPDATE, w)
            elif net[0] == OP_DELETE:
                pass  # updating a just-deleted edge is a no-op
            else:
                net = (net[0], w)
    return net
