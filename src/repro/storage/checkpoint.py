"""Checkpointing: binary snapshots of the dynamic graph store.

A production deployment restarts graph servers without replaying weeks
of update streams — it loads the last snapshot and replays only the
tail.  This module serialises a :class:`DynamicGraphStore` (and
optionally an :class:`AttributeStore`) to a compact binary image:

* a fixed header (magic, version, counts);
* one record per (etype, src) adjacency: the IDs and weights of the
  samtree's leaves in tree order — of a slab row, its two columns — so
  loading rebuilds every source through the store's columnar bulk path,
  a chunk of records per batch (no need to serialise tree internals or
  which form a source had — both are functions of the insertion stream,
  and any valid shape is equivalent);
* attribute sections as (field, dtype, dim) blocks of packed rows;
* a CRC-32 trailer over each section (topology, attributes).

The format is self-contained little-endian ``struct`` packing — no
pickle, so a snapshot is safe to load from untrusted storage.  A loader
walks a section twice: once only reading, up to the trailer check, then
again to build — so truncated, mutated or foreign bytes raise
:class:`~repro.errors.ConfigurationError`, never anything else, and never
yield part of a store, and a load holds one chunk of records
(:data:`LOAD_CHUNK_EDGES`) at a time.
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import BinaryIO, Union

import numpy as np

from repro.core.ingest import EdgeBatch, chunked
from repro.core.samtree import SamtreeConfig
from repro.core.snapshot import flatten_tree
from repro.errors import ConfigurationError
from repro.storage.attributes import AttributeStore

# NOTE: repro.core.topology imports repro.storage.cuckoo, which runs this
# package's __init__ — so the store class is imported lazily inside the
# functions to keep the import graph acyclic.

__all__ = ["save_store", "load_store", "save_attributes", "load_attributes"]

_MAGIC = b"PD2G"
_VERSION = 3  # 3: CRC-32 trailer per section
_HEADER = struct.Struct("<4sHHIIq")  # magic, version, flags, cap, alpha, nsrc
_ADJ_HEADER = struct.Struct("<qqI")  # etype, src, degree
_ATTR_MAGIC = b"PD2A"
_ATTR_HEADER = struct.Struct("<4sHI")  # magic, version, num_fields
_FIELD_HEADER = struct.Struct("<HHIq")  # name len, dtype len, dim, rows
_TRAILER = struct.Struct("<I")  # crc32 of the section before it

#: Edges a load (or a WAL-tail replay) hands the store per batch: enough
#: to amortise the batch's sort and build, little enough that recovery
#: holds a chunk of columns, not the snapshot (whole records per chunk).
LOAD_CHUNK_EDGES = 1 << 16


class _Section:
    """One section of a snapshot: a path or stream, opened for ``mode``,
    with the running CRC-32 and size of everything through it."""

    def __init__(self, target: Union[str, BinaryIO], mode: str) -> None:
        self._own = isinstance(target, str)
        self._stream: BinaryIO = open(target, mode) if self._own else target  # type: ignore[arg-type]
        self._crc = 0
        self.nbytes = 0
        if "r" in mode:
            # Bytes left to read: a count field is checked against this
            # before it sizes a read, so garbage cannot request 2**63.
            self._start = self._stream.tell()
            self._left = self._stream.seek(0, io.SEEK_END) - self._start
            self._stream.seek(self._start)

    def __enter__(self) -> "_Section":
        return self

    def __exit__(self, *exc) -> None:
        if self._own:
            self._stream.close()

    def write(self, data: bytes) -> None:
        self._stream.write(data)
        self._crc = zlib.crc32(data, self._crc)
        self.nbytes += len(data)

    def write_trailer(self) -> int:
        """Close the section with its checksum; returns the section size."""
        self._stream.write(_TRAILER.pack(self._crc))
        return self.nbytes + _TRAILER.size

    def read(self, n: int) -> bytes:
        if not 0 <= n <= self._left:
            raise ConfigurationError(
                f"truncated snapshot: wanted {n} bytes, {self._left} left"
            )
        data = self._stream.read(n)
        self._left -= n
        self._crc = zlib.crc32(data, self._crc)
        return data

    def read_header(self, header: struct.Struct, magic: bytes, what: str):
        """Unpack and vet a section header; returns the fields after
        ``(magic, version)``."""
        got, version, *fields = header.unpack(self.read(header.size))
        if got != magic:
            raise ConfigurationError(f"not {what} (magic {got!r})")
        if version != _VERSION:
            raise ConfigurationError(
                f"snapshot version {version} is not supported "
                f"(this build reads version {_VERSION})"
            )
        return fields

    def check_trailer(self) -> None:
        """Vet the checksum of everything read, then go back to the
        start of the section for the pass that builds from it."""
        crc = self._crc
        (want,) = _TRAILER.unpack(self.read(_TRAILER.size))
        if want != crc:
            raise ConfigurationError("corrupt snapshot: checksum mismatch")
        self._left += self._stream.tell() - self._start
        self._stream.seek(self._start)


def save_store(store, target: Union[str, BinaryIO]) -> int:
    """Serialise a store; returns the snapshot size in bytes.

    ``target`` is a path or a writable binary stream (loaders take a
    path or a seekable one).
    """
    with _Section(target, "wb") as out:
        items = sorted(store.directory.items())  # keys are distinct
        out.write(
            _HEADER.pack(
                _MAGIC,
                _VERSION,
                1 if store.config.compress else 0,
                store.config.capacity,
                store.config.alpha,
                len(items),
            )
        )
        # Slab rows are written from the columns: one ragged gather in
        # key order, then a slice of its bytes per record.
        ids, weights, lengths = store.slab.gather(
            [value for _, value in items if type(value) is int]
        )
        row_ids, row_weights = (
            ids.astype("<i8").tobytes(), weights.astype("<f8").tobytes()
        )
        lengths = iter(lengths)
        at = 0
        for (etype, src), value in items:
            if type(value) is int:
                end = at + 8 * next(lengths)
                out.write(_ADJ_HEADER.pack(etype, src, (end - at) // 8))
                out.write(row_ids[at:end])
                out.write(row_weights[at:end])
                at = end
                continue
            ids, weights = flatten_tree(value)
            out.write(_ADJ_HEADER.pack(etype, src, ids.size))
            out.write(ids.astype("<i8").tobytes())
            out.write(weights.astype("<f8").tobytes())
        return out.write_trailer()


def _read_topology(src: _Section):
    """Yield the store's config, then ``(etype, vertex, ids, weights)``
    per adjacency record."""
    flags, capacity, alpha, nsrc = src.read_header(
        _HEADER, _MAGIC, "a PlatoD2GL snapshot"
    )
    yield capacity, alpha, bool(flags & 1)
    for _ in range(nsrc):
        etype, vertex, degree = _ADJ_HEADER.unpack(src.read(_ADJ_HEADER.size))
        ids = np.frombuffer(src.read(8 * degree), dtype="<i8")
        weights = np.frombuffer(src.read(8 * degree), dtype="<f8")
        yield etype, vertex, ids, weights


def _insert_batch(records) -> EdgeBatch:
    """The adjacency ``records`` as one insert-only batch: every tree of
    it is new to the store, which packs their leaves in one segmented
    pass."""
    etypes, vertices, ids, weights = zip(*records)
    degrees = [a.size for a in ids]
    try:
        return EdgeBatch.inserts(
            np.repeat(np.asarray(vertices, dtype=np.int64), degrees),
            np.concatenate(ids),
            np.concatenate(weights),
            np.repeat(np.asarray(etypes, dtype=np.int16), degrees),
        )
    except (OverflowError, ValueError) as exc:  # checksummed garbage
        raise ConfigurationError(f"corrupt snapshot: {exc}") from None


def load_store(source: Union[str, BinaryIO], store=None):
    """Rebuild a :class:`~repro.core.topology.DynamicGraphStore` from a
    snapshot.

    Builds into ``store`` when one is given — an empty store carrying
    the caller's options (read image, cache budget) — and into a default
    store of the snapshot's :class:`SamtreeConfig` otherwise; a given
    store whose config disagrees with the snapshot's is refused.
    """
    from repro.core.topology import DynamicGraphStore

    with _Section(source, "rb") as src:
        for _ in _read_topology(src):
            pass
        src.check_trailer()
        records = _read_topology(src)
        capacity, alpha, compress = next(records)
        config = SamtreeConfig(capacity=capacity, alpha=alpha, compress=compress)
        if store is None:
            store = DynamicGraphStore(config)
        elif store.config != config:
            raise ConfigurationError(
                f"snapshot was taken with {config}, "
                f"cannot load it into a store of {store.config}"
            )
        for chunk in chunked(records, lambda r: r[2].size, LOAD_CHUNK_EDGES):
            store.apply_edge_batch(_insert_batch(chunk))
        src.read(_TRAILER.size)  # leave the stream at the section's end
    return store


def save_attributes(
    attrs: AttributeStore, target: Union[str, BinaryIO]
) -> int:
    """Serialise an attribute store; returns bytes written."""
    with _Section(target, "wb") as out:
        fields = list(attrs.fields())
        out.write(_ATTR_HEADER.pack(_ATTR_MAGIC, _VERSION, len(fields)))
        for name in fields:
            schema = attrs.schema(name)
            name_bytes = name.encode("utf-8")
            dtype_bytes = schema.dtype.str.encode("ascii")
            vertices, matrix = attrs.export(name)
            out.write(
                _FIELD_HEADER.pack(
                    len(name_bytes), len(dtype_bytes), schema.dim,
                    len(vertices),
                )
            )
            out.write(name_bytes)
            out.write(dtype_bytes)
            out.write(vertices.astype("<u8").tobytes())
            out.write(matrix.tobytes())
        return out.write_trailer()


def _read_fields(src: _Section):
    """Yield ``(name, dim, dtype, vertices, matrix)`` per field."""
    (num_fields,) = src.read_header(
        _ATTR_HEADER, _ATTR_MAGIC, "an attribute snapshot"
    )
    for _ in range(num_fields):
        name_len, dtype_len, dim, count = _FIELD_HEADER.unpack(
            src.read(_FIELD_HEADER.size)
        )
        try:
            name = src.read(name_len).decode("utf-8")
            dtype = np.dtype(src.read(dtype_len).decode("ascii"))
        except (TypeError, ValueError, SyntaxError) as exc:
            raise ConfigurationError(
                f"corrupt attribute snapshot: {exc}"
            ) from None
        if dtype.kind not in "biufc":  # row width must be known to read on
            raise ConfigurationError(
                f"corrupt attribute snapshot: field dtype {dtype}"
            )
        vertices = np.frombuffer(src.read(8 * count), dtype="<u8")
        matrix = np.frombuffer(
            src.read(count * dim * dtype.itemsize), dtype=dtype
        )
        yield name, dim, dtype, vertices, matrix


def load_attributes(source: Union[str, BinaryIO]) -> AttributeStore:
    """Rebuild an :class:`AttributeStore` from a snapshot."""
    with _Section(source, "rb") as src:
        for _ in _read_fields(src):
            pass
        src.check_trailer()
        attrs = AttributeStore()
        for name, dim, dtype, vertices, matrix in _read_fields(src):
            attrs.register(name, dim, dtype)
            attrs.put_many(name, vertices, matrix.reshape(len(vertices), dim))
        src.read(_TRAILER.size)  # leave the stream at the section's end
    return attrs
