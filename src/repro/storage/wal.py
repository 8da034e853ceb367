"""Per-shard write-ahead log (WAL) for the distributed storage tier.

A production graph server must survive a crash without replaying weeks
of update streams.  The durability story mirrors classic database
recovery: every mutation is appended to an append-only log *before* it
touches the in-memory samtrees, periodic checkpoints
(:mod:`repro.storage.checkpoint`) capture the full store image, and
recovery is ``last checkpoint + WAL-tail replay``.

The log is a self-contained little-endian binary format — ``struct``
packing plus raw numpy column bytes, no pickle — so a log is safe to
replay from untrusted storage:

* one fixed file header (magic, version, shard id);
* one record per appended :class:`~repro.core.ingest.EdgeBatch`: a
  record header ``(n_rows, crc32)`` followed by the five columns
  (``src`` i64, ``dst`` i64, ``weight`` f64, ``etype`` i16, ``op`` u8)
  packed back to back.  A one-row record is therefore one
  ``struct`` of the five fields, which is how a scalar write packs it.

Each record carries a CRC-32 of its payload.  Replay tolerates a *torn
tail* — a final record cut short by a crash mid-append — by stopping at
the first incomplete record and cutting the fragment off the log, so
the next append lands behind a complete record; a checksum mismatch
**before** the tail raises :class:`~repro.errors.WALCorruptionError`.

The log can be file-backed (``path=...``; survives process restarts) or
memory-backed (the default; models a durable device for the in-process
cluster, surviving :meth:`GraphServer.crash`, which only drops volatile
state).  A file-backed log appends through one ``O_APPEND`` handle held
for the life of the object and flushed by every append: the bytes are
with the OS when the append returns (there is no ``fsync``), and they
land at the file's current end whoever else wrote or truncated it.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import BinaryIO, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ingest import OP_KIND_CODES, EdgeBatch, check_row
from repro.core.types import EdgeOp
from repro.errors import ConfigurationError, WALCorruptionError

__all__ = ["ShardWAL", "WAL_MAGIC", "WAL_VERSION"]

WAL_MAGIC = b"PD2W"
WAL_VERSION = 1

_FILE_HEADER = struct.Struct("<4sHHq")  # magic, version, flags, shard_id
_REC_HEADER = struct.Struct("<qI")  # n_rows, crc32(payload)

#: One payload row — src i64, dst i64, weight f64, etype i16, op u8 —
#: which is also the whole payload of a one-row record.
_ROW = struct.Struct("<qqdhB")
_ROW_NBYTES = _ROW.size


def _pack_payload(batch: EdgeBatch) -> bytes:
    return b"".join(
        (
            np.ascontiguousarray(batch.src, dtype="<i8").tobytes(),
            np.ascontiguousarray(batch.dst, dtype="<i8").tobytes(),
            np.ascontiguousarray(batch.weight, dtype="<f8").tobytes(),
            np.ascontiguousarray(batch.etype, dtype="<i2").tobytes(),
            np.ascontiguousarray(batch.op, dtype="u1").tobytes(),
        )
    )


def _unpack_payload(payload: bytes, n: int) -> EdgeBatch:
    o = 0
    src = np.frombuffer(payload, dtype="<i8", count=n, offset=o)
    o += 8 * n
    dst = np.frombuffer(payload, dtype="<i8", count=n, offset=o)
    o += 8 * n
    weight = np.frombuffer(payload, dtype="<f8", count=n, offset=o)
    o += 8 * n
    etype = np.frombuffer(payload, dtype="<i2", count=n, offset=o)
    o += 2 * n
    op = np.frombuffer(payload, dtype="u1", count=n, offset=o)
    # Columns were validated when the batch was first constructed; a
    # byte-exact roundtrip cannot invalidate them.
    return EdgeBatch._from_validated(
        src.astype(np.int64),
        dst.astype(np.int64),
        weight.astype(np.float64),
        etype.astype(np.int16),
        op.astype(np.uint8),
    )


class ShardWAL:
    """Append-only columnar operation log of one storage shard.

    Parameters
    ----------
    path:
        File path of the log.  ``None`` (default) keeps the log in an
        in-memory buffer — the "durable device" of the in-process
        cluster, which outlives a simulated server crash.
    shard_id:
        Recorded in the file header; replay of a mismatched shard's log
        is refused.
    """

    def __init__(self, path: Optional[str] = None, shard_id: int = 0) -> None:
        self.path = path
        self.shard_id = int(shard_id)
        #: Records appended through this handle (best-effort; a
        #: pre-existing file-backed log may hold more).
        self.records_appended = 0
        #: Size of the log as this handle last left or found it.
        self.bytes_appended = 0
        #: Whether the last replay stopped at a torn (truncated) tail.
        self.torn_tail_seen = False
        size = os.path.getsize(path) if path and os.path.exists(path) else 0
        if size:
            with open(path, "rb") as f:
                self._check_header_bytes(f.read(_FILE_HEADER.size))
        #: Exactly one backing is set: the in-memory device, or the
        #: append handle of ``path``.
        self._buf: Optional[io.BytesIO] = None if path else io.BytesIO()
        self._file: Optional[BinaryIO] = open(path, "ab") if path else None
        if size:
            self.bytes_appended = size
        else:
            self._write_header()

    def counters(self) -> Tuple[str, ...]:
        """The append ledger, exported as ``repro_wal_*`` (DESIGN.md §11)."""
        return ("records_appended", "bytes_appended")

    def reset(self) -> None:
        """Zero the append ledger in place; unlike :meth:`truncate`, the
        log keeps every record a future recovery still needs."""
        self.records_appended = 0
        self.bytes_appended = 0

    def close(self) -> None:
        """Release the append handle of a file-backed log (idempotent;
        the log itself stays, a later :class:`ShardWAL` reopens it)."""
        if self._file is not None:
            self._file.close()

    # ------------------------------------------------------------------
    # low-level IO
    # ------------------------------------------------------------------
    def _write_header(self) -> None:
        self._cut_to(0)
        self._append_bytes(
            _FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0, self.shard_id)
        )

    def _check_header_bytes(self, data: bytes) -> None:
        if len(data) < _FILE_HEADER.size:
            raise ConfigurationError("WAL shorter than its file header")
        magic, version, _flags, shard_id = _FILE_HEADER.unpack_from(data, 0)
        if magic != WAL_MAGIC:
            raise ConfigurationError(f"not a PlatoD2GL WAL (magic {magic!r})")
        if version > WAL_VERSION:
            raise ConfigurationError(
                f"WAL version {version} is newer than supported ({WAL_VERSION})"
            )
        if shard_id != self.shard_id:
            raise ConfigurationError(
                f"WAL belongs to shard {shard_id}, not shard {self.shard_id}"
            )

    def _append_bytes(self, data: bytes) -> None:
        if self._buf is not None:
            self._buf.seek(0, io.SEEK_END)
            self._buf.write(data)
        else:
            self._file.write(data)  # type: ignore[union-attr]
            self._file.flush()  # type: ignore[union-attr]
        self.bytes_appended += len(data)

    def _cut_to(self, size: int) -> None:
        """Drop everything past byte ``size`` of the log."""
        backing = self._buf if self._buf is not None else self._file
        backing.truncate(size)  # type: ignore[union-attr]
        self.bytes_appended = size

    def _read_all(self) -> bytes:
        if self._buf is not None:
            return self._buf.getvalue()
        if not os.path.exists(self.path):  # type: ignore[arg-type]
            return b""
        with open(self.path, "rb") as f:  # type: ignore[arg-type]
            return f.read()

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------
    def _append_record(self, n: int, payload: bytes) -> int:
        record = _REC_HEADER.pack(n, zlib.crc32(payload)) + payload
        self._append_bytes(record)
        self.records_appended += 1
        return len(record)

    def append_batch(self, batch: EdgeBatch) -> int:
        """Durably append one columnar batch; returns bytes written.

        Empty batches append nothing (no empty records on disk).
        """
        n = len(batch)
        if n == 0:
            return 0
        return self._append_record(n, _pack_payload(batch))

    def append_ops(self, ops: Sequence[EdgeOp]) -> int:
        """Append a scalar op batch as one record (the ``apply_ops``
        write path shares the log format with the bulk path).

        A single op — every ``add/update/remove_edge`` — is checked and
        packed as scalars: the checks, their errors and the record
        bytes are those of a one-row :class:`EdgeBatch`."""
        if len(ops) != 1:
            return self.append_batch(EdgeBatch.from_edge_ops(ops))
        (op,) = ops
        code = OP_KIND_CODES[op.kind]
        check_row(op.src, op.dst, op.weight, code, op.etype)
        try:
            payload = _ROW.pack(op.src, op.dst, op.weight, op.etype, code)
        except struct.error as exc:  # what a too-narrow numpy column raises
            raise OverflowError(str(exc)) from None
        return self._append_record(1, payload)

    # ------------------------------------------------------------------
    # replay path
    # ------------------------------------------------------------------
    def replay(self) -> Iterator[EdgeBatch]:
        """Yield every complete record in append order.

        Stops at a torn tail, setting :attr:`torn_tail_seen` and
        cutting the fragment off the log before the first record is
        yielded — an append after this replay must not land behind
        bytes the next replay would read as a corrupt record.  Raises
        :class:`WALCorruptionError` on a mid-file checksum mismatch.
        """
        data = self._read_all()
        if not data:
            return
        self._check_header_bytes(data)
        self.torn_tail_seen = False
        pos = _FILE_HEADER.size
        end = len(data)
        pending: List[EdgeBatch] = []
        while pos < end:
            if pos + _REC_HEADER.size > end:
                self.torn_tail_seen = True
                break
            n, crc = _REC_HEADER.unpack_from(data, pos)
            if n <= 0:
                raise WALCorruptionError(
                    f"WAL record at byte {pos} has invalid row count {n}"
                )
            body_start = pos + _REC_HEADER.size
            body_end = body_start + n * _ROW_NBYTES
            if body_end > end:
                self.torn_tail_seen = True
                break
            payload = data[body_start:body_end]
            if zlib.crc32(payload) != crc:
                # A bad checksum on the *final* record is a torn tail
                # (partially flushed append); earlier is corruption.
                if body_end == end or body_end + _REC_HEADER.size > end:
                    self.torn_tail_seen = True
                    break
                raise WALCorruptionError(
                    f"WAL record at byte {pos} failed its CRC check"
                )
            pending.append(_unpack_payload(payload, n))
            pos = body_end
        if self.torn_tail_seen:
            self._cut_to(pos)
        yield from pending

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def truncate(self) -> None:
        """Drop every record (called after a checkpoint captures them)."""
        self._write_header()
        self.records_appended = 0
        self.torn_tail_seen = False

    @property
    def nbytes(self) -> int:
        """Current size of the log in bytes."""
        if self._buf is not None:
            return self._buf.seek(0, io.SEEK_END)
        if not os.path.exists(self.path):  # type: ignore[arg-type]
            return 0
        return os.path.getsize(self.path)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        backing = self.path or "<memory>"
        return (
            f"ShardWAL(shard={self.shard_id}, backing={backing!r}, "
            f"nbytes={self.nbytes})"
        )
