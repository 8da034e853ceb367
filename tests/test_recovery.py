"""Recovery through the columnar path: checkpoint load in chunks, the
WAL tail concatenated into batches, and the shard's own store options.

The contracts pinned here:

* ``load_store`` builds every tree through the store's bulk path
  (``samtree.build_roots``), a bounded chunk of records per batch, into
  the store it is given;
* ``GraphServer.recover`` applies the WAL tail as a few concatenated
  batches and lands on exactly the store record-by-record replay lands
  on (float ``==``), counting records, not batches;
* a recovered shard keeps the options its ``store_factory`` sets.
"""

from __future__ import annotations

import io
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ingest import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    EdgeBatch,
    chunked,
)
from repro.core.samtree import SamtreeConfig
from repro.core.snapshot import ReadImage
from repro.core.topology import DynamicGraphStore
from repro.core.types import EdgeOp, OpKind
from repro.distributed import LocalCluster
from repro.distributed.server import GraphServer
from repro.errors import ConfigurationError
from repro.storage import checkpoint
from repro.storage.checkpoint import LOAD_CHUNK_EDGES, load_store, save_store
from repro.storage.wal import ShardWAL

from tests.conftest import stores_equal

CONFIG = SamtreeConfig(capacity=4)
_KINDS = {OP_INSERT: OpKind.INSERT, OP_UPDATE: OpKind.UPDATE,
          OP_DELETE: OpKind.DELETE}


def _image(store) -> bytes:
    buf = io.BytesIO()
    save_store(store, buf)
    return buf.getvalue()


def _random_store(seed: int, edges: int = 300) -> DynamicGraphStore:
    rng = random.Random(seed)
    store = DynamicGraphStore(CONFIG)
    store.apply_edge_batch(EdgeBatch(
        [rng.randrange(40) for _ in range(edges)],
        [rng.randrange(90) for _ in range(edges)],
        [rng.random() * 3 for _ in range(edges)],
        [rng.randrange(2) for _ in range(edges)],
    ))
    return store


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------
def test_chunked_runs_are_bounded_and_in_order():
    sizes = [3, 3, 3, 10, 1, 1, 9, 2]
    runs = list(chunked(sizes, lambda n: n, 9))
    assert runs == [[3, 3, 3], [10], [1, 1], [9], [2]]
    assert list(chunked([], len, 4)) == []
    assert LOAD_CHUNK_EDGES == 1 << 16


def test_concat_is_the_rows_back_to_back():
    a = EdgeBatch([1, 2], [3, 4], [0.5, 0.25], [0, 1], [OP_INSERT, OP_DELETE])
    b = EdgeBatch([5], [6], [2.0], [1], [OP_UPDATE])
    both = EdgeBatch.concat([a, b])
    assert both.src.tolist() == [1, 2, 5]
    assert both.dst.tolist() == [3, 4, 6]
    assert both.weight.tolist() == [0.5, 0.25, 2.0]
    assert both.etype.tolist() == [0, 1, 1]
    assert both.op.tolist() == [OP_INSERT, OP_DELETE, OP_UPDATE]
    assert [c.dtype for c in (both.src, both.weight, both.etype, both.op)] == [
        np.int64, np.float64, np.int16, np.uint8,
    ]


# ---------------------------------------------------------------------------
# load_store
# ---------------------------------------------------------------------------
class TestChunkedLoad:
    @pytest.mark.parametrize("bound", [1, 7, 50, LOAD_CHUNK_EDGES])
    def test_every_tree_is_bulk_built_whatever_the_chunk(self, bound):
        original = _random_store(1)
        with mock.patch.object(checkpoint, "LOAD_CHUNK_EDGES", bound):
            loaded = load_store(io.BytesIO(_image(original)))
        assert stores_equal(original, loaded)
        assert loaded.num_edges == original.num_edges
        loaded.check_invariants()
        stats = loaded.ingest_stats
        assert stats.trees_created == original.num_sources
        assert stats.trees_incremental == stats.trees_rebuilt == 0

    def test_chunks_hold_whole_records_up_to_the_bound(self):
        original = _random_store(2)
        sizes = []
        apply = DynamicGraphStore.apply_edge_batch

        def spy(self, batch, *args):
            sizes.append(len(batch))
            return apply(self, batch, *args)

        with mock.patch.object(checkpoint, "LOAD_CHUNK_EDGES", 25), \
                mock.patch.object(DynamicGraphStore, "apply_edge_batch", spy):
            load_store(io.BytesIO(_image(original)))
        assert sum(sizes) == original.num_edges and len(sizes) > 3
        degrees = [
            original.degree(src, etype)
            for etype, src in sorted(original.directory.keys())
        ]
        assert all(n <= 25 for n in sizes) or max(degrees) > 25
        # Greedy: a chunk closed only because the next record did not fit.
        at = 0
        for n in sizes[:-1]:
            taken = 0
            while taken < n:
                taken += degrees[at]
                at += 1
            assert taken == n and n + degrees[at] > 25

    def test_builds_into_the_store_it_is_given(self):
        original = _random_store(3)
        target = DynamicGraphStore(CONFIG, snapshot_cache=None)
        assert load_store(io.BytesIO(_image(original)), target) is target
        assert target.snapshot_cache is None
        assert stores_equal(original, target)

    @pytest.mark.parametrize("config", [
        SamtreeConfig(capacity=8),
        SamtreeConfig(capacity=4, alpha=1),
        SamtreeConfig(capacity=4, compress=False),
    ])
    def test_refuses_a_store_of_another_config(self, config):
        target = DynamicGraphStore(config)
        with pytest.raises(ConfigurationError, match="cannot load"):
            load_store(io.BytesIO(_image(_random_store(4))), target)
        assert target.num_edges == 0 and target.num_sources == 0


# ---------------------------------------------------------------------------
# recover: the shard's store options survive
# ---------------------------------------------------------------------------
def _small_image_store():
    return DynamicGraphStore(
        CONFIG, snapshot_cache=ReadImage(capacity_bytes=1 << 16)
    )


def _descent_only_store():
    return DynamicGraphStore(CONFIG, snapshot_cache=None)


def _options(store):
    cache = store.snapshot_cache
    return None if cache is None else cache.capacity_bytes


@pytest.mark.parametrize(
    "factory", [_small_image_store, _descent_only_store]
)
class TestRecoverKeepsStoreOptions:
    def _cluster(self, factory, **kwargs):
        cluster = LocalCluster(
            num_servers=2, store_factory=factory, durable=True, **kwargs
        )
        rng = random.Random(8)
        for _ in range(60):
            cluster.client.add_edge(
                rng.randrange(20), rng.randrange(50), rng.random() + 0.1
            )
        return cluster

    def test_from_checkpoint_and_tail(self, factory):
        cluster = self._cluster(factory)
        want = _options(factory())
        cluster.checkpoint_all()
        cluster.client.add_edge(3, 99, 1.5)  # a tail behind the checkpoint
        before = {
            s: dict(cluster.client.neighbors(s)) for s in range(20)
        }
        for shard in range(2):
            cluster.crash(shard)
            cluster.recover(shard)
            store = cluster.servers[shard].store
            assert _options(store) == want
            assert store.config == CONFIG
            store.check_invariants()
        assert before == {
            s: dict(cluster.client.neighbors(s)) for s in range(20)
        }

    def test_from_a_peer(self, factory):
        cluster = self._cluster(factory, replication_factor=2)
        cluster.crash(0, replica=1)
        cluster.client.add_edge(4, 77, 0.75)  # missed while down
        cluster.recover(0, replica=1, sync=True)
        backup, primary = cluster.replica_groups[0][1], cluster.servers[0]
        assert _options(backup.store) == _options(factory())
        assert stores_equal(primary.store, backup.store)


def test_recover_refuses_a_factory_that_disagrees_with_the_checkpoint():
    server = GraphServer(
        0, store=DynamicGraphStore(SamtreeConfig(capacity=8)),
        config=CONFIG, wal=ShardWAL(),
    )
    server.apply_ops([EdgeOp.insert(1, 2, 1.0)])
    server.checkpoint()
    server.crash()
    with pytest.raises(ConfigurationError, match="cannot load"):
        server.recover()


# ---------------------------------------------------------------------------
# recover: a concatenated tail == record-by-record replay
# ---------------------------------------------------------------------------
_row_st = st.tuples(
    st.integers(0, 9),  # src
    st.integers(0, 20),  # dst
    st.floats(0.0, 8.0, allow_nan=False),
    st.integers(0, 1),  # etype
    st.sampled_from([OP_INSERT, OP_UPDATE, OP_DELETE]),
)
#: A logged record: a scalar op (one row), an op list or a columnar batch.
_record_st = st.one_of(
    st.lists(_row_st, min_size=1, max_size=1),
    st.lists(_row_st, min_size=1, max_size=12),
)
_tail_st = st.lists(_record_st, min_size=0, max_size=14)


def _batch_of(rows) -> EdgeBatch:
    return EdgeBatch(*(list(col) for col in zip(*rows)))


@settings(max_examples=120, deadline=None)
@given(_tail_st, st.integers(0, 2**16), st.sampled_from([1, 5, 16, 1 << 16]),
       st.booleans())
def test_concatenated_tail_equals_record_by_record(tail, seed, bound, base):
    server = GraphServer(0, config=CONFIG, wal=ShardWAL())
    if base:  # a checkpoint under the tail, or a tail from empty
        server.ingest_batch(_batch_of([
            (random.Random(seed + i).randrange(10), i % 21, 1.0 + i, i % 2,
             OP_INSERT)
            for i in range(40)
        ]))
        server.checkpoint()
    reference = (
        load_store(io.BytesIO(server._checkpoint_topology))
        if base else DynamicGraphStore(CONFIG)
    )
    for k, rows in enumerate(tail):
        if len(rows) == 1 or k % 2:  # through the scalar endpoint
            server.apply_ops([
                EdgeOp(_KINDS[o], s, d, w, e) for s, d, w, e, o in rows
            ])
        else:
            server.ingest_batch(_batch_of(rows))
        reference.apply_edge_batch(_batch_of(rows))  # one call per record
    assert stores_equal(reference, server.store)
    server.crash()
    applied = []
    apply = DynamicGraphStore.apply_edge_batch

    def spy(self, batch, *args):
        applied.append(len(batch))
        return apply(self, batch, *args)

    with mock.patch("repro.distributed.server.LOAD_CHUNK_EDGES", bound), \
            mock.patch.object(DynamicGraphStore, "apply_edge_batch", spy):
        assert server.recover() == len(tail)  # records, not batches
    assert server.stats.wal_records_replayed == len(tail)
    assert stores_equal(reference, server.store)
    assert server.store.num_edges == reference.num_edges
    server.store.check_invariants()
    rows = sum(len(r) for r in tail)
    replayed = applied[-len(list(chunked(tail, len, bound))):] if tail else []
    assert sum(replayed) == rows
    if bound >= rows and tail:
        assert len(replayed) == 1  # the whole tail was one batch
