"""Exactness as a property: a weight read back equals the weight written.

The leaf keeps its weights in a column beside the Fenwick index, so every
reader — ``neighbors``, ``edge_weight``, the flattening paths, checkpoint,
WAL replay, hot copies, migration — returns the float that was stored,
bit for bit.  Every comparison here is ``==`` against a dict model; none
uses a tolerance.
"""

from __future__ import annotations

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fenwick import FSTable
from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.snapshot import flatten_tree
from repro.core.topology import DynamicGraphStore
from repro.distributed import LocalCluster
from repro.distributed.rebalance import Move, execute_plan
from repro.storage.checkpoint import load_store, save_store

WEIGHT = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)

table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), WEIGHT),
        st.tuples(st.just("update"), st.integers(0, 10**6), WEIGHT),
        st.tuples(st.just("add"), st.integers(0, 10**6), WEIGHT),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(st.just("from_array"), st.lists(WEIGHT, max_size=40)),
    ),
    max_size=120,
)


@given(table_ops)
@settings(max_examples=200, deadline=None)
def test_fstable_returns_what_was_written(ops):
    """Any sequence of append/update/add/delete and ``from_array``
    rebuilds leaves both readers equal to a plain list model, and the
    Fenwick index beside the column still sums the same weights."""
    table = FSTable()
    model = []
    for op in ops:
        kind = op[0]
        if kind == "append":
            table.append(op[1])
            model.append(op[1])
        elif kind == "from_array":
            table = FSTable.from_array(np.asarray(op[1], dtype=np.float64))
            model = list(op[1])
        elif not model:
            continue
        elif kind == "update":
            i = op[1] % len(model)
            assert table.update(i, op[2]) == model[i]
            model[i] = op[2]
        elif kind == "add":
            i = op[1] % len(model)
            table.add(i, op[2])
            model[i] = model[i] + op[2]
        else:  # swap-with-last delete
            i = op[1] % len(model)
            assert table.delete(i) == model[i]
            model[i] = model[-1]
            model.pop()
        assert table.to_weights() == model
        assert table.to_weight_array().tolist() == model
    assert [table.weight(i) for i in range(len(table))] == model
    assert table.total() == pytest.approx(sum(model), rel=1e-9, abs=1e-6)
    for i in range(len(model)):
        assert table.prefix_sum(i) == pytest.approx(
            sum(model[: i + 1]), rel=1e-9, abs=1e-6
        )


# ---------------------------------------------------------------------------
# store and cluster round-trips against a dict-of-dicts model
# ---------------------------------------------------------------------------
def _adjacency(store) -> dict:
    return {
        (etype, src): dict(store.neighbors(src, etype))
        for etype in store.etypes()
        for src in store.sources(etype)
    }


class _Churn:
    """A seeded write stream that also maintains the model it implies.

    Weights are raw ``random()`` products (full 53-bit mantissas — the
    values prefix-sum differencing cannot give back), capacity-4 trees
    split and merge constantly, and every write kind the store exposes
    is in the mix.
    """

    def __init__(self, seed: int, sources: int = 12, dsts: int = 60) -> None:
        self.rng = random.Random(seed)
        self.sources = sources
        self.dsts = dsts
        self.model: dict = {}

    def weight(self) -> float:
        return self.rng.random() * 10 ** self.rng.randrange(-3, 4)

    def record(self, etype, src, dst, op, w) -> None:
        adj = self.model.setdefault((etype, src), {})
        if op == OP_DELETE:
            adj.pop(dst, None)
        elif op == OP_INSERT or dst in adj:
            adj[dst] = w
        if not adj:
            del self.model[(etype, src)]

    def batch(self, n: int) -> EdgeBatch:
        rng = self.rng
        rows = [
            (
                rng.randrange(self.sources),
                rng.randrange(self.dsts),
                self.weight(),
                rng.randrange(2),
                rng.choices([OP_INSERT, OP_UPDATE, OP_DELETE], [5, 2, 3])[0],
            )
            for _ in range(n)
        ]
        for src, dst, w, etype, op in rows:
            self.record(etype, src, dst, op, w)
        return EdgeBatch(*(list(col) for col in zip(*rows)))

    def scalar_ops(self, target, n: int) -> None:
        """``n`` per-op writes against a store or a cluster client."""
        rng = self.rng
        for _ in range(n):
            src, dst = rng.randrange(self.sources), rng.randrange(self.dsts)
            etype, w = rng.randrange(2), self.weight()
            kind = rng.choice(["add", "update", "remove"])
            if kind == "add":
                target.add_edge(src, dst, w, etype)
                self.record(etype, src, dst, OP_INSERT, w)
            elif kind == "update":
                target.update_edge(src, dst, w, etype)
                self.record(etype, src, dst, OP_UPDATE, w)
            else:
                target.remove_edge(src, dst, etype)
                self.record(etype, src, dst, OP_DELETE, w)

    def owned_by(self, cluster: LocalCluster, shard: int) -> dict:
        return {
            key: adj
            for key, adj in self.model.items()
            if cluster.partitioner.shard_for(key[1]) == shard
        }


def test_store_interleaving_with_splits_and_merges():
    churn = _Churn(seed=1)
    store = DynamicGraphStore(SamtreeConfig(capacity=4, alpha=1))
    for round_ in range(12):
        churn.scalar_ops(store, 150)
        store.apply_edge_batch(churn.batch(200))  # incremental + rebuild
        # accumulate_edge and the PALM per-source batch
        for (etype, src), adj in list(churn.model.items())[:4]:
            dst = next(iter(adj))
            delta = churn.weight()
            store.accumulate_edge(src, dst, delta, etype)
            adj[dst] = adj[dst] + delta
            w = churn.weight()
            store.apply_source_batch(
                src, etype, [("insert", 10_000 + round_, w), ("delete", dst, 0.0)]
            )
            churn.record(etype, src, 10_000 + round_, OP_INSERT, w)
            churn.record(etype, src, dst, OP_DELETE, 0.0)
        assert _adjacency(store) == churn.model
    assert store.stats.leaf_splits and store.stats.merges
    assert store.ingest_stats.trees_rebuilt and store.ingest_stats.trees_incremental
    store.check_invariants()
    # Both read tiers are fed by flatten_tree: the image is the column.
    for (etype, src), adj in churn.model.items():
        ids, weights = flatten_tree(store.tree(src, etype))
        assert dict(zip(ids.tolist(), weights.tolist())) == adj


def test_save_load_roundtrip_is_exact():
    churn = _Churn(seed=2)
    store = DynamicGraphStore(SamtreeConfig(capacity=4))
    for _ in range(6):
        store.apply_edge_batch(churn.batch(300))
        churn.scalar_ops(store, 100)
    buf = io.BytesIO()
    save_store(store, buf)
    loaded = load_store(io.BytesIO(buf.getvalue()))
    assert _adjacency(loaded) == churn.model
    again = io.BytesIO()
    save_store(load_store(io.BytesIO(buf.getvalue())), again)
    assert _adjacency(load_store(io.BytesIO(again.getvalue()))) == churn.model


def _durable_cluster(**kw) -> LocalCluster:
    return LocalCluster(
        num_servers=3,
        config=SamtreeConfig(capacity=4),
        replication_factor=2,
        durable=True,
        **kw,
    )


def test_crash_recover_from_checkpoint_and_wal_tail_is_exact():
    churn = _Churn(seed=3)
    cluster = _durable_cluster()
    cluster.client.apply_edge_batch(churn.batch(600))
    cluster.checkpoint_all()
    cluster.client.apply_edge_batch(churn.batch(300))  # the WAL tail
    churn.scalar_ops(cluster.client, 150)
    for shard in range(3):
        cluster.crash(shard, replica=0)
        replayed = cluster.recover(shard, replica=0, sync=False)
        assert replayed > 0
        store = cluster.replica_groups[shard][0].store
        assert _adjacency(store) == churn.owned_by(cluster, shard)


def test_recover_by_peer_state_transfer_is_exact():
    churn = _Churn(seed=4)
    cluster = _durable_cluster()
    cluster.client.apply_edge_batch(churn.batch(500))
    for shard in range(3):
        cluster.crash(shard, replica=1)
    # Writes the backups miss while they are down.
    cluster.client.apply_edge_batch(churn.batch(400))
    churn.scalar_ops(cluster.client, 150)
    for shard in range(3):
        assert cluster.recover(shard, replica=1, sync=True) == 0
        primary, backup = cluster.replica_groups[shard]
        assert _adjacency(backup.store) == churn.owned_by(cluster, shard)
        assert _adjacency(primary.store) == _adjacency(backup.store)


def test_hot_copies_are_exact():
    churn = _Churn(seed=5, sources=6, dsts=200)
    cluster = LocalCluster(
        num_servers=3, config=SamtreeConfig(capacity=4), hot_set_capacity=8
    )
    cluster.client.apply_edge_batch(churn.batch(1500))
    gen = np.random.default_rng(0)
    for _ in range(10):
        cluster.client.sample_neighbors_many([0, 0, 0, 1, 1, 2], 2, gen)
    installed = cluster.replicate_hot(top_n=3, copies=2)
    assert installed
    for src, read_set in installed:
        assert len(read_set) == 3
        for shard in read_set:
            store = cluster.servers[shard].store
            for etype in (0, 1):
                assert dict(store.neighbors(src, etype)) == churn.model.get(
                    (etype, src), {}
                )


def test_migration_target_is_exact():
    churn = _Churn(seed=6, sources=8, dsts=300)
    cluster = LocalCluster(num_servers=3, config=SamtreeConfig(capacity=4))
    cluster.client.apply_edge_batch(churn.batch(2000))
    churn.scalar_ops(cluster.client, 200)
    moves = []
    for src in range(8):
        owner = cluster.partitioner.shard_for(src)
        moves.append(Move(src, owner, (owner + 1) % 3, load=1))
    execute_plan(cluster, moves, verify=True)
    for move in moves:
        target = cluster.servers[move.to_shard].store
        source = cluster.servers[move.from_shard].store
        for etype in (0, 1):
            want = churn.model.get((etype, move.src), {})
            assert dict(target.neighbors(move.src, etype)) == want
            assert source.neighbors(move.src, etype) == []
            for dst, w in list(want.items())[:5]:
                assert cluster.client.edge_weight(move.src, dst, etype) == w
