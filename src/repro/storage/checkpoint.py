"""Checkpointing: binary snapshots of the dynamic graph store.

A production deployment restarts graph servers without replaying weeks
of update streams — it loads the last snapshot and replays only the
tail.  This module serialises a :class:`DynamicGraphStore` — the
topology only; vertex features live in a separate key-value store — to
one section of a compact binary image:

* a fixed header (magic, version, counts);
* one record per (etype, src) adjacency, ascending by key: its
  ``(etype, src, degree)`` header, then the IDs and weights of the
  samtree's leaves in tree order — of a slab row, its two columns — so
  loading rebuilds every source through the store's columnar bulk path
  (no need to serialise tree internals or which form a source had —
  both are functions of the insertion stream, and any valid shape is
  equivalent);
* a CRC-32 trailer over the section.

The format is self-contained little-endian ``struct`` packing — no
pickle, so a snapshot is safe to load from untrusted storage.  Every
field starts on a 4-byte word, so each direction is one pass over the
section as words.  A save scatters the headers and columns into one
buffer, checksums it and writes it once.  A load takes the section as
one buffer, walks the record headers once — each checked against the
bytes there are — and checks the trailer before it builds anything; it
then gathers the columns and hands the store whole records, at most
:data:`LOAD_CHUNK_EDGES` edges per batch.  Truncated, mutated or foreign
bytes raise :class:`~repro.errors.ConfigurationError`, never anything
else, and never yield part of a store.  A load from a stream leaves it
at its section's end, where the next section of a stream of several
starts.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO, Union

import numpy as np

from repro.core.ingest import EdgeBatch, chunked
from repro.core.samtree import SamtreeConfig
from repro.core.slab import spans
from repro.core.snapshot import flatten_tree
from repro.errors import ConfigurationError

# NOTE: repro.core.topology imports repro.storage.cuckoo, which runs this
# package's __init__ — so the store class is imported lazily inside the
# functions to keep the import graph acyclic.

__all__ = ["save_store", "load_store"]

_MAGIC = b"PD2G"
_VERSION = 3  # 3: CRC-32 trailer per section
_HEADER = struct.Struct("<4sHHIIq")  # magic, version, flags, cap, alpha, nsrc
_ADJ_HEADER = struct.Struct("<qqI")  # etype, src, degree
_TRAILER = struct.Struct("<I")  # crc32 of the section before it
_HEAD_WORDS, _ADJ_WORDS = _HEADER.size // 4, _ADJ_HEADER.size // 4

#: Edges a load (or a WAL-tail replay) hands the store per batch: enough
#: to amortise the batch's sort and build, little enough that a batch
#: stays a bounded set of columns (whole records per chunk).
LOAD_CHUNK_EDGES = 1 << 16


def _layout(degrees: np.ndarray):
    """The word each record's ids start at (its weights follow them;
    an id or a weight is two words) and the words through the last
    record, for records of ``degrees``."""
    payload = 4 * degrees
    ends = _HEAD_WORDS + np.cumsum(payload + _ADJ_WORDS)
    return ends - payload, int(ends[-1]) if ends.size else _HEAD_WORDS


def _key_words(first: np.ndarray) -> np.ndarray:
    """The ``(etype, src)`` words of the records whose ids start at
    ``first``: one row of four per record (the degree is ``first - 1``)."""
    return (first - _ADJ_WORDS)[:, None] + np.arange(4)


def save_store(store, target: Union[str, BinaryIO]) -> int:
    """Serialise a store; returns the snapshot size in bytes.

    ``target`` is a path or a writable binary stream (loaders take a
    path, a section's bytes or a seekable stream).
    """
    if isinstance(target, str):
        with open(target, "wb") as out:
            return save_store(store, out)
    etypes, srcs, values, trees = store.directory.columns()  # ascending keys
    # Slab rows come from one ragged gather in key order, samtrees from
    # their leaves; each lands where its record lies.
    rows = values > 0
    ids, weights, lengths = store.slab.gather(values[rows])
    leaves = [flatten_tree(tree) for tree in trees]
    order = np.concatenate([np.flatnonzero(rows), np.flatnonzero(~rows)])
    degrees = np.empty(values.size, dtype=np.int64)
    degrees[order] = lengths + [tree_ids.size for tree_ids, _ in leaves]
    first, end = _layout(degrees)
    words = np.empty(end + 1, dtype="<u4")  # and the trailer's
    config = store.config
    words[:_HEAD_WORDS] = np.frombuffer(_HEADER.pack(
        _MAGIC, _VERSION, config.compress, config.capacity, config.alpha, values.size
    ), dtype="<u4")
    words[_key_words(first)] = np.column_stack([etypes, srcs]).astype("<i8").view("<u4")
    words[first - 1] = degrees
    at, n = first[order], 2 * degrees[order]
    ids, weights = (np.concatenate(c) for c in zip((ids, weights), *leaves))
    words[spans(at, n)] = ids.astype("<i8", copy=False).view("<u4")
    words[spans(at + n, n)] = weights.astype("<f8", copy=False).view("<u4")
    words[-1] = zlib.crc32(words[:-1])
    target.write(words)
    return words.nbytes


def load_store(source: Union[str, bytes, BinaryIO], store=None):
    """Rebuild a :class:`~repro.core.topology.DynamicGraphStore` from a
    snapshot.

    ``source`` is a path, the bytes of one section (used in place), or a
    seekable binary stream, read from its position and left at the end
    of its section.  Builds into ``store`` when one is given — an empty
    store from the caller's factory — and into a default store of the
    snapshot's :class:`SamtreeConfig` otherwise; a given store whose
    config disagrees with the snapshot's is refused.
    """
    from repro.core.topology import DynamicGraphStore

    if isinstance(source, str):
        with open(source, "rb") as f:
            return load_store(f, store)
    in_place = isinstance(source, (bytes, bytearray, memoryview))
    start = 0 if in_place else source.tell()
    view = memoryview(source if in_place else source.read())
    limit = len(view) - _TRAILER.size  # no record reaches past this
    if limit < _HEADER.size:
        raise ConfigurationError(f"truncated snapshot: {len(view)} bytes")
    magic, version, flags, capacity, alpha, nsrc = _HEADER.unpack_from(view)
    if (magic, version) != (_MAGIC, _VERSION):
        raise ConfigurationError(
            f"not a PlatoD2GL snapshot of version {_VERSION} "
            f"(magic {magic!r}, version {version})"
        )
    # Each record moves ``at`` on by 20 bytes at least, so a count of
    # 2**63 stops at the section's end like any other lie.
    degrees, at = [], _HEADER.size
    for _ in range(nsrc):
        if at + _ADJ_HEADER.size > limit:
            break
        degrees.append(_ADJ_HEADER.unpack_from(view, at)[2])
        at += _ADJ_HEADER.size + 16 * degrees[-1]
    if len(degrees) != nsrc or at > limit:
        raise ConfigurationError(
            f"truncated snapshot: {nsrc} records run past {len(view)} bytes"
        )
    if zlib.crc32(view[:at]) != _TRAILER.unpack_from(view, at)[0]:
        raise ConfigurationError("corrupt snapshot: checksum mismatch")

    config = SamtreeConfig(capacity=capacity, alpha=alpha, compress=bool(flags & 1))
    if store is None:
        store = DynamicGraphStore(config)
    elif store.config != config:
        raise ConfigurationError(
            f"snapshot was taken with {config}, "
            f"cannot load it into a store of {store.config}"
        )
    degrees = np.array(degrees, dtype=np.int64)
    first, _ = _layout(degrees)
    words, n = np.frombuffer(view, dtype="<u4", count=at // 4), 2 * degrees
    etypes, srcs = words[_key_words(first)].view("<i8").T
    try:  # every column is checked before anything is built
        batch = EdgeBatch.inserts(
            np.repeat(srcs, degrees), words[spans(first, n)].view("<i8"),
            words[spans(first + n, n)].view("<f8"), np.repeat(etypes, degrees),
        )
    except ValueError as exc:  # checksummed garbage
        raise ConfigurationError(f"corrupt snapshot: {exc}") from None
    # One directory rebuild for every key, not one per chunk that grows it.
    store.directory.reserve(len(store.directory) + nsrc)
    b = 0
    for run in chunked(degrees.tolist(), int, LOAD_CHUNK_EDGES):
        a, b = b, b + sum(run)
        store.apply_edge_batch(batch.select(slice(a, b)))
    if not in_place:
        source.seek(start + at + _TRAILER.size)
    return store
