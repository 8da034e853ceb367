"""Tests for the distributed layer: partitioner, servers, client, cluster."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.platogl import PlatoGLStore
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.ingest import EdgeBatch
from repro.core.types import OP_DELETE, OP_INSERT
from repro.distributed import (
    GraphClient,
    GraphServer,
    HashBySourcePartitioner,
    LocalCluster,
    NetworkModel,
    splitmix64,
)
from repro.errors import ConfigurationError, InvalidWeightError, PartitionError


class TestPartitioner:
    def test_deterministic(self):
        p = HashBySourcePartitioner(8)
        assert p.shard_for(12345) == p.shard_for(12345)

    def test_range(self):
        p = HashBySourcePartitioner(5)
        assert all(0 <= p.shard_for(i) < 5 for i in range(1000))

    def test_roughly_balanced(self):
        p = HashBySourcePartitioner(4)
        counts = [0] * 4
        for i in range(8000):
            counts[p.shard_for(i)] += 1
        assert min(counts) > 1500

    def test_splitmix_mixes(self):
        outs = {splitmix64(i) & 0xFF for i in range(64)}
        assert len(outs) > 40  # consecutive inputs spread widely

    def test_validation(self):
        with pytest.raises(PartitionError):
            HashBySourcePartitioner(0)


class TestNetworkModel:
    def test_cost_accounting(self):
        net = NetworkModel(latency_seconds=1e-3, bandwidth_bytes_per_second=1e6)
        cost = net.send(1000)
        assert cost == pytest.approx(1e-3 + 1e-3)
        assert net.stats.messages == 1
        assert net.stats.payload_bytes == 1000
        net.stats.reset()
        assert net.stats.messages == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(latency_seconds=-1)
        with pytest.raises(ConfigurationError):
            NetworkModel(bandwidth_bytes_per_second=0)


class TestClientRouting:
    def make(self, shards=4, network=None):
        part = HashBySourcePartitioner(shards)
        servers = [GraphServer(i, config=SamtreeConfig(capacity=8)) for i in range(shards)]
        return GraphClient(servers, part, network), servers, part

    def test_shard_count_must_match(self):
        part = HashBySourcePartitioner(3)
        with pytest.raises(PartitionError):
            GraphClient([GraphServer(0)], part)

    def test_edges_land_on_owner_shard(self):
        client, servers, part = self.make()
        for src in range(40):
            client.add_edge(src, src + 1000, 1.0)
        for src in range(40):
            owner = part.shard_for(src)
            assert servers[owner].store.degree(src) == 1
            for i, s in enumerate(servers):
                if i != owner:
                    assert s.store.degree(src) == 0

    def test_store_api_via_client(self):
        client, _, _ = self.make()
        assert client.add_edge(1, 2, 0.5) is True
        assert client.edge_weight(1, 2) == pytest.approx(0.5)
        assert client.update_edge(1, 2, 0.9) is True
        assert client.degree(1) == 1
        assert client.edge_weight(1, 2) is not None
        assert client.remove_edge(1, 2) is True
        assert client.num_edges == 0

    def test_apply_batch_order_and_outcomes(self):
        client, _, _ = self.make()
        stats = client.apply_edge_batch(EdgeBatch(
            [1, 9, 1, 9, 9], [2, 2, 2, 2, 3], [1.0, 1.0, 2.0, 0.0, 0.0], 0,
            [OP_INSERT, OP_INSERT, OP_INSERT, OP_DELETE, OP_DELETE],
        ))
        # Net of the batch: 9 -> 2 comes and goes, 9 -> 3 never was.
        assert (stats.ops, stats.inserted, stats.removed) == (5, 1, 0)
        assert client.num_edges == 1
        assert client.edge_weight(1, 2) == 2.0  # the later insert wins

    def test_batch_sampling_preserves_order(self, rng):
        client, _, _ = self.make()
        for src in range(30):
            client.add_edge(src, src * 10, 1.0)
        srcs = [5, 17, 5, 29]
        rows = client.sample_neighbors_many(srcs, 3, rng).rows()
        assert rows[0] == [50, 50, 50]
        assert rows[1] == [170, 170, 170]
        assert rows[2] == [50, 50, 50]
        assert rows[3] == [290, 290, 290]

    def test_sources_union(self):
        client, _, _ = self.make()
        for src in range(25):
            client.add_edge(src, 1, 1.0)
        assert sorted(client.sources()) == list(range(25))
        assert client.num_sources == 25

    def test_network_accounting(self):
        net = NetworkModel()
        client, _, _ = self.make(network=net)
        client.apply_edge_batch(EdgeBatch.inserts(np.arange(100), np.zeros(100)))
        assert 1 <= net.stats.messages <= 4  # one message per shard
        client.sample_neighbors_many(list(range(100)), 5)
        assert net.stats.messages <= 8


class TestLocalCluster:
    def test_build_and_stats(self):
        cluster = LocalCluster(num_servers=4, config=SamtreeConfig(capacity=16))
        ids = np.arange(500)
        cluster.client.apply_edge_batch(EdgeBatch.inserts(ids % 50, ids))
        infos = cluster.shard_infos()
        assert len(infos) == 4
        assert sum(i.num_edges for i in infos) == 500
        assert cluster.total_nbytes() == sum(i.nbytes for i in infos)
        cluster.reset_stats()
        assert all(s.stats.ops_applied == 0 for s in cluster.servers)

    def test_a_refused_batch_writes_nothing(self, tmp_path):
        """A bad row refuses the whole batch at the client, before any
        shard's WAL or store is touched."""
        cluster = LocalCluster(num_servers=2, durable=True, wal_dir=str(tmp_path))
        client = cluster.client
        client.add_edge(5, 6, 0.5)
        adjacency = {s: client.neighbors(s) for s in range(1, 6)}
        logs = [server.wal._read_all() for server in cluster.servers]
        with pytest.raises(InvalidWeightError):
            client.apply_edge_batch([1, 2, 1], [2, 3, 4], [1.0, 1.0, -1.0])
        assert client.num_edges == 1
        assert {s: client.neighbors(s) for s in range(1, 6)} == adjacency
        assert [server.wal._read_all() for server in cluster.servers] == logs
        cluster.close()

    def test_close_releases_every_wal_handle(self, tmp_path):
        cluster = LocalCluster(
            num_servers=2, replication_factor=2, durable=True,
            wal_dir=str(tmp_path),
        )
        cluster.client.add_edge(5, 6, 0.5)
        handles = [s.wal._file for g in cluster.replica_groups for s in g]
        assert len(handles) == 4 and not any(h.closed for h in handles)
        cluster.close()
        cluster.close()  # idempotent
        assert all(h.closed for h in handles)
        LocalCluster(num_servers=2).close()  # no WAL: nothing to release

    def test_store_factory_runs_baselines(self):
        cluster = LocalCluster(num_servers=2, store_factory=PlatoGLStore)
        cluster.client.add_edge(1, 2, 1.0)
        assert cluster.client.num_edges == 1
        assert isinstance(cluster.servers[0].store, PlatoGLStore)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LocalCluster(num_servers=0)

    def test_distributed_equals_local(self):
        """The cluster and a single local store expose the same graph."""
        r = random.Random(5)
        local = DynamicGraphStore(SamtreeConfig(capacity=8))
        cluster = LocalCluster(num_servers=3, config=SamtreeConfig(capacity=8))
        for _ in range(1500):
            src, dst = r.randrange(40), r.randrange(200)
            if r.random() < 0.75:
                w = round(r.random(), 3)
                local.add_edge(src, dst, w)
                cluster.client.add_edge(src, dst, w)
            else:
                local.remove_edge(src, dst)
                cluster.client.remove_edge(src, dst)
        assert cluster.client.num_edges == local.num_edges
        for src in range(40):
            assert dict(cluster.client.neighbors(src)) == pytest.approx(
                dict(local.neighbors(src))
            )
