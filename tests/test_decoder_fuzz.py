"""Decoders refuse garbage: byte mutation and truncation over WAL records
and the checkpoint's topology section.

For any damaged input the outcome is one of

* a typed :mod:`repro.errors` exception, or
* a load equal to the original (the damage hit a byte the format does
  not interpret), or
* for the WAL only, a *flagged* prefix: replay stops at a torn tail,
  sets ``torn_tail_seen`` and yields the records before it —

never an unhandled exception (anything that is not a ``ReproError``
escapes the ``except`` below and fails the test) and never a silent
partial load.
"""

from __future__ import annotations

import io
import os
import random
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError, ReproError
from repro.storage import checkpoint
from repro.storage.checkpoint import load_store, save_store
from repro.storage.wal import ShardWAL

#: Damage to apply to an image of ``n`` bytes: byte overwrites at
#: positions drawn as fractions of ``n`` (so one strategy fits every
#: image), then an optional cut.
DAMAGE = st.tuples(
    st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
        max_size=4,
    ),
    st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
).filter(lambda d: d[0] or d[1] is not None)


def _damage(image: bytes, damage) -> bytes:
    edits, cut = damage
    data = bytearray(image)
    for where, value in edits:
        data[int(where * len(data))] = value
    if cut is not None:
        del data[int(cut * len(data)):]
    return bytes(data)


def _batches(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(1, 12)
        out.append(
            EdgeBatch(
                [rng.randrange(9) for _ in range(n)],
                [rng.randrange(50) for _ in range(n)],
                [rng.random() * 7 for _ in range(n)],
                [rng.randrange(2) for _ in range(n)],
                [rng.choice([OP_INSERT, OP_UPDATE, OP_DELETE]) for _ in range(n)],
            )
        )
    return out


def _columns(batch: EdgeBatch):
    return tuple(
        col.tolist()
        for col in (batch.src, batch.dst, batch.weight, batch.etype, batch.op)
    )


# ---------------------------------------------------------------------------
# WAL
# ---------------------------------------------------------------------------
_WAL_BATCHES = _batches(seed=11, count=5)
_WAL_RECORDS = [_columns(b) for b in _WAL_BATCHES]


def _wal_image():
    """The log's bytes, and its length after 0, 1, ... appended records
    (a cut right after the file header leaves a log of no records)."""
    wal = ShardWAL(shard_id=3)
    ends = [len(wal._read_all())]
    for batch in _WAL_BATCHES:
        wal.append_batch(batch)
        ends.append(len(wal._read_all()))
    return wal._read_all(), ends


_WAL_IMAGE, _WAL_RECORD_ENDS = _wal_image()


@given(DAMAGE)
@settings(max_examples=300, deadline=None)
def test_wal_replay_refuses_garbage(damage):
    data = _damage(_WAL_IMAGE, damage)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shard.wal")
        with open(path, "wb") as f:
            f.write(data)
        try:
            wal = ShardWAL(path, shard_id=3)
            got = [_columns(b) for b in wal.replay()]
        except ReproError:
            return
    if data == b"":  # an empty file is a new log, not a damaged one
        assert got == []
    elif wal.torn_tail_seen:
        assert got == _WAL_RECORDS[: len(got)] and len(got) < len(_WAL_RECORDS)
    elif data == _WAL_IMAGE[: len(data)] and len(data) in _WAL_RECORD_ENDS:
        # Cut exactly between two records: a shorter log, not a torn one.
        whole = _WAL_RECORD_ENDS.index(len(data))
        assert got == _WAL_RECORDS[:whole]
    else:
        assert got == _WAL_RECORDS


# ---------------------------------------------------------------------------
# checkpoint section
# ---------------------------------------------------------------------------
def _store() -> DynamicGraphStore:
    store = DynamicGraphStore(SamtreeConfig(capacity=4))
    for batch in _batches(seed=12, count=8):
        store.apply_edge_batch(batch)
    return store


def _adjacency(store) -> dict:
    return {
        (etype, src): dict(store.neighbors(src, etype))
        for etype in store.etypes()
        for src in store.sources(etype)
    }


def _image(save, obj) -> bytes:
    buf = io.BytesIO()
    save(obj, buf)
    return buf.getvalue()


_TOPOLOGY = _adjacency(_store())
_TOPOLOGY_IMAGE = _image(save_store, _store())


@given(DAMAGE)
@settings(max_examples=300, deadline=None)
def test_topology_section_refuses_garbage(damage):
    try:
        loaded = load_store(io.BytesIO(_damage(_TOPOLOGY_IMAGE, damage)))
    except ReproError:
        return
    assert _adjacency(loaded) == _TOPOLOGY
    loaded.check_invariants()


def test_every_single_byte_of_a_section_is_covered():
    """Exhaustive over position (Hypothesis samples it): flipping any one
    byte of the section, or cutting it anywhere, is refused."""
    image = _TOPOLOGY_IMAGE
    for i in range(len(image)):
        flipped = image[:i] + bytes([image[i] ^ 0x41]) + image[i + 1:]
        for data in (flipped, image[:i]):
            try:
                load_store(io.BytesIO(data))
            except ReproError:
                continue
            raise AssertionError(f"damage at byte {i} loaded")


# ---------------------------------------------------------------------------
# structural garbage under a valid checksum
# ---------------------------------------------------------------------------
def _resealed(section: bytes, at: int, field: struct.Struct, value) -> bytes:
    """``section`` with ``field`` at ``at`` set to ``value`` and the CRC-32
    trailer recomputed over the damage: only the header walk's own bounds
    stand between these bytes and a build."""
    body = bytearray(section[:-4])
    field.pack_into(body, at, value)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


_NSRC, _DEGREE = struct.Struct("<q"), struct.Struct("<I")
_SECTION_HEADER, _RECORD_HEADER = 24, 20


def _two_records() -> bytes:
    store = DynamicGraphStore(SamtreeConfig(capacity=4))
    store.add_edge(1, 10, 0.5)
    for dst in range(6):  # a samtree beside the slab row
        store.add_edge(2, dst, 1.0 + dst)
    return _image(save_store, store)


@pytest.mark.parametrize("where, field, value", [
    # The last record's degree one past the section, and the first's at
    # the field's top.
    (_SECTION_HEADER + _RECORD_HEADER + 16 + _RECORD_HEADER - 4, _DEGREE, 7),
    (_SECTION_HEADER + _RECORD_HEADER - 4, _DEGREE, 2**32 - 1),
    # More records claimed than there are, far more, and fewer than none.
    (16, _NSRC, 3),
    (16, _NSRC, 2**63 - 1),
    (16, _NSRC, -1),
], ids=["degree-one-past", "degree-top", "nsrc-plus-one", "nsrc-max", "nsrc-negative"])
def test_a_resealed_structural_lie_is_refused_before_a_build(where, field, value):
    section = _two_records()
    damaged = _resealed(section, where, field, value)
    assert damaged != section
    target = DynamicGraphStore(SamtreeConfig(capacity=4))
    with pytest.raises(ConfigurationError):
        load_store(io.BytesIO(damaged), target)
    assert target.num_sources == 0 and len(target.directory) == 0
    # The same edit, resealed to its own value, loads: the refusal is
    # the walk's, not the checksum's.
    intact = _resealed(section, where, field, field.unpack_from(section, where)[0])
    assert intact == section and load_store(intact).num_edges == 7


def test_a_resealed_bad_weight_in_a_later_chunk_builds_nothing(monkeypatch):
    """Every column is checked before the first chunk is built: a
    negative weight in the last record, one edge a chunk, leaves the
    store empty, not holding the records before it."""
    monkeypatch.setattr(checkpoint, "LOAD_CHUNK_EDGES", 1)
    section = _two_records()
    damaged = _resealed(section, len(section) - 4 - 8, struct.Struct("<d"), -1.0)
    target = DynamicGraphStore(SamtreeConfig(capacity=4))
    with pytest.raises(ConfigurationError):
        load_store(io.BytesIO(damaged), target)
    assert target.num_sources == 0 and len(target.directory) == 0
