"""Checkpointing: binary snapshots of the dynamic graph store.

A production deployment restarts graph servers without replaying weeks
of update streams — it loads the last snapshot and replays only the
tail.  This module serialises a :class:`DynamicGraphStore` (and
optionally an :class:`AttributeStore`) to a compact binary image:

* a fixed header (magic, version, counts);
* one record per (etype, src) adjacency: the IDs and weights of the
  samtree's leaves in tree order, so loading rebuilds each samtree with
  bulk inserts (no need to serialise tree internals — the tree shape is
  a function of the insertion stream, and any valid shape is
  equivalent);
* attribute sections as (field, dtype, dim) blocks of packed rows.

The format is self-contained little-endian ``struct`` packing — no
pickle, so a snapshot is safe to load from untrusted storage.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Union

import numpy as np

from repro.core.samtree import SamtreeConfig
from repro.errors import ConfigurationError
from repro.storage.attributes import AttributeStore

# NOTE: repro.core.topology imports repro.storage.cuckoo, which runs this
# package's __init__ — so the store class is imported lazily inside the
# functions to keep the import graph acyclic.

__all__ = ["save_store", "load_store", "save_attributes", "load_attributes"]

_MAGIC = b"PD2G"
_VERSION = 2
_HEADER = struct.Struct("<4sHHIIq")  # magic, version, flags, cap, alpha, nsrc
_ADJ_HEADER = struct.Struct("<qqI")  # etype, src, degree
_ATTR_MAGIC = b"PD2A"
_ATTR_HEADER = struct.Struct("<4sHI")  # magic, version, num_fields


def _write_adjacency(out: BinaryIO, etype: int, src: int, items) -> None:
    ids = []
    weights = []
    for vid, w in items:
        ids.append(vid)
        weights.append(w)
    out.write(_ADJ_HEADER.pack(etype, src, len(ids)))
    out.write(np.asarray(ids, dtype="<u8").tobytes())
    out.write(np.asarray(weights, dtype="<f8").tobytes())


def save_store(store, target: Union[str, BinaryIO]) -> int:
    """Serialise a store; returns the snapshot size in bytes.

    ``target`` is a path or a writable binary stream.
    """
    own = isinstance(target, str)
    out: BinaryIO = open(target, "wb") if own else target  # type: ignore[arg-type]
    try:
        keys = sorted(store._directory.keys())
        flags = 1 if store.config.compress else 0
        out.write(
            _HEADER.pack(
                _MAGIC,
                _VERSION,
                flags,
                store.config.capacity,
                store.config.alpha,
                len(keys),
            )
        )
        written = _HEADER.size
        for etype, src in keys:
            tree = store.tree(src, etype)
            buf = io.BytesIO()
            _write_adjacency(buf, etype, src, tree.items())
            data = buf.getvalue()
            out.write(data)
            written += len(data)
        return written
    finally:
        if own:
            out.close()


def _read_exact(src: BinaryIO, n: int) -> bytes:
    data = src.read(n)
    if len(data) != n:
        raise ConfigurationError(
            f"truncated snapshot: wanted {n} bytes, got {len(data)}"
        )
    return data


def load_store(source: Union[str, BinaryIO]):
    """Rebuild a :class:`~repro.core.topology.DynamicGraphStore` from a
    snapshot."""
    from repro.core.topology import DynamicGraphStore

    own = isinstance(source, str)
    src: BinaryIO = open(source, "rb") if own else source  # type: ignore[arg-type]
    try:
        magic, version, flags, capacity, alpha, nsrc = _HEADER.unpack(
            _read_exact(src, _HEADER.size)
        )
        if magic != _MAGIC:
            raise ConfigurationError(
                f"not a PlatoD2GL snapshot (magic {magic!r})"
            )
        if version > _VERSION:
            raise ConfigurationError(
                f"snapshot version {version} is newer than supported "
                f"({_VERSION})"
            )
        store = DynamicGraphStore(
            SamtreeConfig(
                capacity=capacity, alpha=alpha, compress=bool(flags & 1)
            )
        )
        for _ in range(nsrc):
            etype, vertex, degree = _ADJ_HEADER.unpack(
                _read_exact(src, _ADJ_HEADER.size)
            )
            ids = np.frombuffer(_read_exact(src, 8 * degree), dtype="<u8")
            weights = np.frombuffer(_read_exact(src, 8 * degree), dtype="<f8")
            # Bulk path: one batch per source rebuilds the samtree with
            # the Appendix-B rounds and keeps the counters exact.
            store.apply_source_batch(
                int(vertex),
                int(etype),
                [("insert", int(v), float(w)) for v, w in zip(ids, weights)],
            )
        return store
    finally:
        if own:
            src.close()


def save_attributes(
    attrs: AttributeStore, target: Union[str, BinaryIO]
) -> int:
    """Serialise an attribute store; returns bytes written."""
    own = isinstance(target, str)
    out: BinaryIO = open(target, "wb") if own else target  # type: ignore[arg-type]
    try:
        fields = list(attrs.fields())
        out.write(_ATTR_HEADER.pack(_ATTR_MAGIC, _VERSION, len(fields)))
        written = _ATTR_HEADER.size
        for name in fields:
            schema = attrs.schema(name)
            name_bytes = name.encode("utf-8")
            dtype_bytes = schema.dtype.str.encode("ascii")
            vertices, matrix = attrs.export(name)
            head = struct.pack(
                "<HHIq", len(name_bytes), len(dtype_bytes), schema.dim,
                len(vertices),
            )
            out.write(head)
            out.write(name_bytes)
            out.write(dtype_bytes)
            out.write(vertices.astype("<u8").tobytes())
            out.write(matrix.tobytes())
            written += (
                len(head)
                + len(name_bytes)
                + len(dtype_bytes)
                + 8 * len(vertices)
                + matrix.nbytes
            )
        return written
    finally:
        if own:
            out.close()


def load_attributes(source: Union[str, BinaryIO]) -> AttributeStore:
    """Rebuild an :class:`AttributeStore` from a snapshot."""
    own = isinstance(source, str)
    src: BinaryIO = open(source, "rb") if own else source  # type: ignore[arg-type]
    try:
        magic, version, num_fields = _ATTR_HEADER.unpack(
            _read_exact(src, _ATTR_HEADER.size)
        )
        if magic != _ATTR_MAGIC:
            raise ConfigurationError(
                f"not an attribute snapshot (magic {magic!r})"
            )
        if version > _VERSION:
            raise ConfigurationError(
                f"snapshot version {version} is newer than supported"
            )
        attrs = AttributeStore()
        for _ in range(num_fields):
            name_len, dtype_len, dim, count = struct.unpack(
                "<HHIq", _read_exact(src, 16)
            )
            name = _read_exact(src, name_len).decode("utf-8")
            dtype = np.dtype(_read_exact(src, dtype_len).decode("ascii"))
            attrs.register(name, dim, dtype)
            vertices = np.frombuffer(
                _read_exact(src, 8 * count), dtype="<u8"
            )
            matrix = np.frombuffer(
                _read_exact(src, count * dim * dtype.itemsize), dtype=dtype
            ).reshape(count, dim)
            attrs.put_many(name, vertices, matrix)
        return attrs
    finally:
        if own:
            src.close()
