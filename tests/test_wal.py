"""Tests for the per-shard write-ahead log (repro.storage.wal).

Covers the binary record format (roundtrip, torn tails, corruption),
file- and memory-backed logs, and the recovery contract the distributed
tier depends on: replaying a WAL tail over a checkpoint is idempotent —
applying the same tail twice leaves the store byte-for-byte equivalent
to applying it once (last-wins fold semantics of the columnar ingest
path).
"""

from __future__ import annotations

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import EdgeOp
from repro.errors import ConfigurationError, WALCorruptionError
from repro.storage.checkpoint import load_store, save_store
from repro.storage.wal import ShardWAL


def _random_batch(rng: random.Random, n: int, nsrc=40, ndst=100, netype=2):
    src = [rng.randrange(nsrc) for _ in range(n)]
    dst = [rng.randrange(ndst) for _ in range(n)]
    weight = [round(rng.random() * 4 + 0.01, 4) for _ in range(n)]
    etype = [rng.randrange(netype) for _ in range(n)]
    op = [
        rng.choices(
            [OP_INSERT, OP_UPDATE, OP_DELETE], weights=[6, 2, 2]
        )[0]
        for _ in range(n)
    ]
    return EdgeBatch(src, dst, weight, etype, op)


def _adjacency(store: DynamicGraphStore) -> dict:
    out = {}
    for etype in store.etypes():
        for src in store.sources(etype):
            out[(etype, src)] = dict(store.neighbors(src, etype))
    return out


def _assert_adjacency_equal(a: dict, b: dict) -> None:
    assert a == b


class TestFormatRoundtrip:
    def test_append_replay_roundtrip(self):
        rng = random.Random(3)
        wal = ShardWAL(shard_id=7)
        batches = [_random_batch(rng, n) for n in (1, 17, 230)]
        for b in batches:
            assert wal.append_batch(b) > 0
        replayed = list(wal.replay())
        assert len(replayed) == 3
        for orig, back in zip(batches, replayed):
            np.testing.assert_array_equal(orig.src, back.src)
            np.testing.assert_array_equal(orig.dst, back.dst)
            np.testing.assert_array_equal(orig.weight, back.weight)
            np.testing.assert_array_equal(orig.etype, back.etype)
            np.testing.assert_array_equal(orig.op, back.op)
        assert wal.num_records() == 3
        assert not wal.torn_tail_seen

    def test_empty_batch_appends_nothing(self):
        wal = ShardWAL()
        assert wal.append_batch(EdgeBatch([], [])) == 0
        assert wal.append_ops([]) == 0
        assert wal.num_records() == 0

    def test_append_ops_matches_columnar(self):
        wal = ShardWAL()
        ops = [EdgeOp.insert(1, 2, 0.5), EdgeOp.delete(3, 4, etype=1)]
        wal.append_ops(ops)
        (batch,) = wal.replay()
        assert batch.src.tolist() == [1, 3]
        assert batch.dst.tolist() == [2, 4]
        assert batch.op.tolist() == [OP_INSERT, OP_DELETE]
        assert batch.etype.tolist() == [0, 1]

    def test_truncate_clears(self):
        rng = random.Random(5)
        wal = ShardWAL()
        wal.append_batch(_random_batch(rng, 40))
        wal.truncate()
        assert wal.num_records() == 0
        wal.append_batch(_random_batch(rng, 4))
        assert wal.num_records() == 1

    def test_file_backed_survives_reopen(self, tmp_path):
        rng = random.Random(9)
        path = str(tmp_path / "shard0.wal")
        wal = ShardWAL(path, shard_id=0)
        wal.append_batch(_random_batch(rng, 25))
        wal.append_batch(_random_batch(rng, 12))
        reopened = ShardWAL(path, shard_id=0)
        assert reopened.num_records() == 2

    def test_shard_id_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "shard3.wal")
        wal = ShardWAL(path, shard_id=3)
        wal.append_batch(_random_batch(random.Random(0), 5))
        with pytest.raises(ConfigurationError):
            ShardWAL(path, shard_id=4)

    def test_garbage_header_refused(self, tmp_path):
        path = str(tmp_path / "junk.wal")
        with open(path, "wb") as f:
            f.write(b"definitely not a wal")
        with pytest.raises(ConfigurationError):
            ShardWAL(path, shard_id=0)


class TestTornTailAndCorruption:
    def _wal_with_records(self, k=3, n=50):
        rng = random.Random(21)
        wal = ShardWAL(shard_id=1)
        for _ in range(k):
            wal.append_batch(_random_batch(rng, n))
        return wal

    def test_torn_tail_tolerated(self):
        wal = self._wal_with_records(3)
        data = wal._buf.getvalue()
        torn = ShardWAL(shard_id=1)
        torn._buf = io.BytesIO(data[:-17])  # cut the last record short
        replayed = list(torn.replay())
        assert len(replayed) == 2
        assert torn.torn_tail_seen

    def test_torn_mid_header_tolerated(self):
        wal = self._wal_with_records(1, n=10)
        data = wal._buf.getvalue()
        torn = ShardWAL(shard_id=1)
        torn._buf = io.BytesIO(data + data[16:20])  # header fragment
        assert len(list(torn.replay())) == 1
        assert torn.torn_tail_seen

    def test_mid_file_corruption_raises(self):
        wal = self._wal_with_records(3, n=40)
        data = bytearray(wal._buf.getvalue())
        data[40] ^= 0xFF  # flip a byte inside the first record's payload
        bad = ShardWAL(shard_id=1)
        bad._buf = io.BytesIO(bytes(data))
        with pytest.raises(WALCorruptionError):
            list(bad.replay())


class TestReplayRecovery:
    def test_checkpoint_plus_tail_equals_direct(self):
        """checkpoint + WAL-tail replay reconstructs the live store."""
        rng = random.Random(77)
        config = SamtreeConfig(capacity=8)
        live = DynamicGraphStore(config)
        wal = ShardWAL(shard_id=0)
        checkpoint = None
        for step in range(8):
            batch = _random_batch(rng, 120)
            wal.append_batch(batch)
            live.apply_edge_batch(batch)
            if step == 3:  # mid-stream checkpoint truncates the log
                buf = io.BytesIO()
                save_store(live, buf)
                checkpoint = buf.getvalue()
                wal.truncate()
        recovered = load_store(io.BytesIO(checkpoint))
        for batch in wal.replay():
            recovered.apply_edge_batch(batch)
        _assert_adjacency_equal(_adjacency(live), _adjacency(recovered))
        assert recovered.num_edges == live.num_edges
        recovered.check_invariants()


# ---------------------------------------------------------------------------
# Satellite: WAL replay idempotence (property-based)
# ---------------------------------------------------------------------------

_op_st = st.tuples(
    st.integers(min_value=0, max_value=12),  # src
    st.integers(min_value=0, max_value=30),  # dst
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    st.integers(min_value=0, max_value=1),  # etype
    st.sampled_from([OP_INSERT, OP_UPDATE, OP_DELETE]),
)
_batch_st = st.lists(_op_st, min_size=1, max_size=40)
_log_st = st.lists(_batch_st, min_size=1, max_size=5)


def _to_batch(rows):
    src, dst, w, et, op = zip(*rows)
    return EdgeBatch(list(src), list(dst), list(w), list(et), list(op))


@settings(max_examples=60, deadline=None)
@given(_log_st, st.integers(min_value=0, max_value=2**31 - 1))
def test_wal_replay_is_idempotent(log, seed):
    """Replaying the same WAL tail twice over a checkpoint yields a
    store identical to replaying it once (last-wins fold semantics)."""
    rng = random.Random(seed)
    config = SamtreeConfig(capacity=4)
    base = DynamicGraphStore(config)
    base.apply_edge_batch(_random_batch(rng, 60, nsrc=13, ndst=31))
    buf = io.BytesIO()
    save_store(base, buf)
    checkpoint = buf.getvalue()

    wal = ShardWAL(shard_id=0)
    for rows in log:
        wal.append_batch(_to_batch(rows))

    once = load_store(io.BytesIO(checkpoint))
    for batch in wal.replay():
        once.apply_edge_batch(batch)

    twice = load_store(io.BytesIO(checkpoint))
    for _ in range(2):
        for batch in wal.replay():
            twice.apply_edge_batch(batch)

    _assert_adjacency_equal(_adjacency(once), _adjacency(twice))
    assert once.num_edges == twice.num_edges
    once.check_invariants()
    twice.check_invariants()
