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
import os
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ingest import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    EdgeBatch,
    check_row,
)
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError, WALCorruptionError
from repro.storage.checkpoint import load_store, save_store
from repro.storage.wal import ShardWAL
from tests.conftest import python_calls


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
        assert len(list(wal.replay())) == 3
        assert not wal.torn_tail_seen

    def test_empty_batch_appends_nothing(self):
        wal = ShardWAL()
        assert wal.append_batch(EdgeBatch([], [])) == 0
        assert len(list(wal.replay())) == 0

    def test_truncate_clears(self):
        rng = random.Random(5)
        wal = ShardWAL()
        wal.append_batch(_random_batch(rng, 40))
        wal.truncate()
        assert len(list(wal.replay())) == 0
        wal.append_batch(_random_batch(rng, 4))
        assert len(list(wal.replay())) == 1

    def test_file_backed_survives_reopen(self, tmp_path):
        rng = random.Random(9)
        path = str(tmp_path / "shard0.wal")
        wal = ShardWAL(path, shard_id=0)
        wal.append_batch(_random_batch(rng, 25))
        wal.append_batch(_random_batch(rng, 12))
        reopened = ShardWAL(path, shard_id=0)
        assert len(list(reopened.replay())) == 2

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


class TestTornTailIsCutOff:
    """A replay that ends at a torn tail leaves a log the next append
    can extend: the fragment is gone before anything lands behind it."""

    def _torn(self, wal: ShardWAL, cut: int) -> None:
        if wal.path is None:
            wal._buf = io.BytesIO(wal._buf.getvalue()[:-cut])
        else:
            os.truncate(wal.path, os.path.getsize(wal.path) - cut)

    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_appends_after_a_torn_tail_survive(self, backing, tmp_path):
        rng = random.Random(4)
        path = str(tmp_path / "s.wal") if backing == "file" else None
        wal = ShardWAL(path, shard_id=2)
        first = [_random_batch(rng, 6) for _ in range(2)]
        for b in first:
            wal.append_batch(b)
        whole = wal.nbytes
        self._torn(wal, 5)
        assert len(list(wal.replay())) == 1 and wal.torn_tail_seen
        # The fragment is gone, and the size the handle reports is real.
        assert wal.nbytes == wal.bytes_appended < whole - 5
        later = [_random_batch(rng, 3) for _ in range(2)]
        for b in later:
            wal.append_batch(b)
        got = list(wal.replay())  # raised WALCorruptionError before
        assert not wal.torn_tail_seen
        assert [b.dst.tolist() for b in got] == [
            b.dst.tolist() for b in [first[0], *later]
        ]
        assert wal.nbytes == wal.bytes_appended

    def test_server_recovers_twice_across_a_torn_tail(self, tmp_path):
        from repro.distributed import LocalCluster

        cluster = LocalCluster(
            num_servers=1, durable=True, wal_dir=str(tmp_path)
        )
        client, server = cluster.client, cluster.servers[0]
        client.add_edge(1, 2, 0.5)
        client.add_edge(1, 3, 0.25)
        self._torn(server.wal, 5)  # the crash tore the second write
        cluster.crash(0)
        assert cluster.recover(0) == 1
        client.add_edge(1, 4, 2.0)  # acknowledged after the recovery
        cluster.crash(0)
        assert cluster.recover(0) == 2
        assert dict(client.neighbors(1)) == {2: 0.5, 4: 2.0}


class TestOneHandle:
    """File-backed appends go through one open handle, and everyone
    else looking at the path still sees every byte."""

    def test_appends_are_visible_without_close(self, tmp_path):
        path = str(tmp_path / "s.wal")
        wal = ShardWAL(path, shard_id=0)
        handle = wal._file
        for i in range(3):
            wal.append_op(OP_INSERT, i, i + 1, 1.0, 0)
            assert os.path.getsize(path) == wal.bytes_appended == wal.nbytes
            assert len(wal._read_all()) == wal.nbytes
        assert wal._file is handle  # not reopened per record
        assert len(list(ShardWAL(path, shard_id=0).replay())) == 3

    def test_two_logs_on_one_path_interleave(self, tmp_path):
        path = str(tmp_path / "s.wal")
        a = ShardWAL(path, shard_id=0)
        a.append_op(OP_INSERT, 1, 2, 1.0, 0)
        b = ShardWAL(path, shard_id=0)
        assert b.bytes_appended == a.bytes_appended
        b.append_op(OP_INSERT, 3, 4, 1.0, 0)
        a.append_op(OP_INSERT, 5, 6, 1.0, 0)
        assert [r.src.tolist() for r in a.replay()] == [[1], [3], [5]]
        assert [r.src.tolist() for r in b.replay()] == [[1], [3], [5]]
        b.truncate()  # a's handle appends at the new end, not its old one
        a.append_op(OP_INSERT, 7, 8, 1.0, 0)
        assert [r.src.tolist() for r in b.replay()] == [[7]]

    def test_truncate_then_append_on_the_same_handle(self, tmp_path):
        path = str(tmp_path / "s.wal")
        wal = ShardWAL(path, shard_id=0)
        wal.append_batch(_random_batch(random.Random(1), 30))
        wal.truncate()
        assert wal.nbytes == wal.bytes_appended == os.path.getsize(path)
        wal.append_op(OP_INSERT, 1, 2, 1.0, 0)
        assert len(list(wal.replay())) == 1
        assert wal.nbytes == wal.bytes_appended == os.path.getsize(path)

    def test_close_releases_the_handle_and_keeps_the_log(self, tmp_path):
        path = str(tmp_path / "s.wal")
        wal = ShardWAL(path, shard_id=0)
        wal.append_op(OP_INSERT, 1, 2, 1.0, 0)
        wal.close()
        wal.close()
        assert wal._file.closed
        assert len(list(ShardWAL(path, shard_id=0).replay())) == 1
        ShardWAL().close()  # a memory-backed log has nothing to release


class TestSizeAccounting:
    def test_memory_nbytes_does_not_copy_the_log(self):
        wal = ShardWAL()
        wal.append_batch(_random_batch(random.Random(2), 50))

        class NoCopy(io.BytesIO):
            def getvalue(self):
                raise AssertionError("nbytes copied the whole log")

        size = len(wal._buf.getvalue())
        wal._buf = NoCopy(wal._buf.getvalue())
        assert wal.nbytes == size == wal.bytes_appended

    @pytest.mark.parametrize("backing", ["memory", "file"])
    def test_bytes_appended_is_the_real_size(self, backing, tmp_path):
        rng = random.Random(6)
        path = str(tmp_path / "s.wal") if backing == "file" else None
        wal = ShardWAL(path, shard_id=1)
        assert wal.bytes_appended == wal.nbytes
        wal.append_batch(_random_batch(rng, 20))
        wal.truncate()
        assert wal.bytes_appended == wal.nbytes
        wal.append_batch(_random_batch(rng, 7))
        assert wal.bytes_appended == wal.nbytes
        if path is not None:
            reopened = ShardWAL(path, shard_id=1)
            assert reopened.bytes_appended == wal.nbytes == reopened.nbytes


# ---------------------------------------------------------------------------
# The scalar record: a one-op append is a one-row batch, byte for byte
# ---------------------------------------------------------------------------
_INT16 = (-(2**15), 2**15 - 1)
_id_st = st.integers(-3, 2**63 + 2) | st.sampled_from([0, 2**63 - 1, 2**63])
_weight_st = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, float("nan"), float("inf"), float("-inf"), -1.0]
)
_etype_st = st.integers(_INT16[0] - 2, _INT16[1] + 2) | st.sampled_from(_INT16)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([OP_INSERT, OP_UPDATE, OP_DELETE]) | st.integers(0, 255),
    _id_st, _id_st, _weight_st, _etype_st,
)
# Each field is checked once, in the batch's order: the ids, then the
# relation, then the op code, then the weight.
@example(OP_INSERT, -1, 2, -1.0, 2**15)
@example(OP_INSERT, 1, 2**63, -1.0, 2**15)
@example(OP_UPDATE, 1, 2, float("nan"), 2**15)
@example(3, 1, 2, float("nan"), 0)
def test_scalar_record_is_a_one_row_batch(code, src, dst, weight, etype):
    """``append_op`` writes a one-row :class:`EdgeBatch` record's bytes,
    raises the batch's exception type on every row the batch refuses,
    and appends nothing when it does."""
    def attempt(append):
        wal = ShardWAL(shard_id=9)
        wal.append_op(OP_INSERT, 1, 1, 1.0, 0)  # something to keep
        before = wal._read_all()
        try:
            append(wal)
        except Exception as exc:
            assert wal._read_all() == before
            assert wal.bytes_appended == len(before)
            assert wal.records_appended == 1
            return type(exc)
        return wal._read_all()

    scalar = attempt(lambda wal: wal.append_op(code, src, dst, weight, etype))
    columnar = attempt(lambda wal: wal.append_batch(
        EdgeBatch([src], [dst], [weight], [etype], [code])
    ))
    if isinstance(scalar, bytes) and isinstance(columnar, bytes):
        assert scalar == columnar
    else:
        assert scalar is columnar


def test_check_row_checks_each_field_once():
    """``check_row`` is one frame plus one ``check_id`` per id: the
    source is not checked a second time as part of its key."""
    assert python_calls(lambda: check_row(1, 2, 1.0, OP_INSERT, 3)) == 4


class TestGoldenLog:
    """``data/wal_v1_pr20.wal`` was written by the commit before the
    scalar record packer and the open handle (one-op, multi-op and
    columnar records): it replays here, and writing the same operations
    here gives the same bytes — so logs move both ways."""

    PATH = os.path.join(os.path.dirname(__file__), "data", "wal_v1_pr20.wal")
    RECORDS = [
        ([1], [2], [0.5], [0], [OP_INSERT]),
        ([2**40], [7], [1.25], [3], [OP_UPDATE]),
        ([9], [4], [0.0], [-1], [OP_DELETE]),
        ([3, 3, 6], [4, 5, 7], [2.0, 0.0, 0.0], [0, 0, 1],
         [OP_INSERT, OP_DELETE, OP_UPDATE]),
        ([10, 11], [12, 13], [0.25, 4.0], [0, 2], [OP_INSERT, OP_UPDATE]),
    ]

    def test_replays(self, tmp_path):
        copy = str(tmp_path / "golden.wal")  # replay may cut a torn tail
        with open(self.PATH, "rb") as f, open(copy, "wb") as g:
            g.write(f.read())
        wal = ShardWAL(copy, shard_id=5)
        got = [
            tuple(c.tolist() for c in (b.src, b.dst, b.weight, b.etype, b.op))
            for b in wal.replay()
        ]
        assert got == [tuple(r) for r in self.RECORDS]
        assert not wal.torn_tail_seen

    def test_rewritten_byte_for_byte(self, tmp_path):
        wal = ShardWAL(str(tmp_path / "new.wal"), shard_id=5)
        wal.append_op(OP_INSERT, 1, 2, 0.5, 0)
        wal.append_op(OP_UPDATE, 2**40, 7, 1.25, 3)
        wal.append_op(OP_DELETE, 9, 4, 0.0, -1)
        wal.append_batch(EdgeBatch(
            [3, 3, 6], [4, 5, 7], [2.0, 0.0, 0.0], [0, 0, 1],
            [OP_INSERT, OP_DELETE, OP_UPDATE],
        ))
        wal.append_batch(
            EdgeBatch([10, 11], [12, 13], [0.25, 4.0], [0, 2], [0, 1])
        )
        with open(self.PATH, "rb") as f:
            assert wal._read_all() == f.read()


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
