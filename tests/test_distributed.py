"""Tests for the distributed layer: partitioner, servers, client, cluster."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.platogl import PlatoGLStore
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import EdgeOp
from repro.distributed import (
    GraphClient,
    GraphServer,
    HashBySourcePartitioner,
    LocalCluster,
    NetworkModel,
    splitmix64,
)
from repro.errors import ConfigurationError, PartitionError


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
        ops = [
            EdgeOp.insert(1, 2, 1.0),
            EdgeOp.insert(9, 2, 1.0),
            EdgeOp.insert(1, 2, 2.0),
            EdgeOp.delete(9, 2),
            EdgeOp.delete(9, 3),
        ]
        outcomes = client.apply_batch(ops)
        assert outcomes == [True, True, False, True, False]
        assert client.num_edges == 1

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
        client.apply_batch([EdgeOp.insert(i, 0, 1.0) for i in range(100)])
        assert 1 <= net.stats.messages <= 4  # one message per shard
        client.sample_neighbors_many(list(range(100)), 5)
        assert net.stats.messages <= 8

    def test_attributes_across_shards(self):
        client, _, _ = self.make()
        client.register_attribute("feat", 3)
        for v in range(20):
            client.put_attribute("feat", v, [float(v)] * 3)
        out = client.gather_attributes("feat", [5, 99, 12])
        assert out.shape == (3, 3)
        assert out[0, 0] == 5.0
        assert out[1].tolist() == [0.0, 0.0, 0.0]
        assert out[2, 2] == 12.0
        assert client.gather_attributes("feat", []).shape == (0, 3)

    def test_gather_attributes_takes_a_frontier_array(self):
        """An int64 frontier (repeats, misses, every shard) goes in as it
        is: rows come back in input order, one message per owning shard."""
        net = NetworkModel()
        client, _, _ = self.make(network=net)
        client.register_attribute("feat", 2)
        for v in range(40):
            client.put_attribute("feat", v, [float(v), -float(v)])
        frontier = np.array([7, 31, 7, 500, 0, 12, 31, 39], dtype=np.int64)
        before = net.stats.messages
        out = client.gather_attributes("feat", frontier)
        owners = {client.partitioner.shard_for(int(v)) for v in frontier}
        assert net.stats.messages - before == len(owners)
        expected = [[float(v), -float(v)] if v < 40 else [0.0, 0.0]
                    for v in frontier.tolist()]
        assert out.tolist() == expected
        assert client.gather_attributes(
            "feat", (int(v) for v in frontier)
        ).tolist() == expected
        assert client.gather_attributes(
            "feat", np.empty(0, dtype=np.int64)
        ).shape == (0, 2)


class TestLocalCluster:
    def test_build_and_stats(self):
        cluster = LocalCluster(num_servers=4, config=SamtreeConfig(capacity=16))
        ops = [EdgeOp.insert(i % 50, i, 1.0) for i in range(500)]
        cluster.client.apply_batch(ops)
        infos = cluster.shard_infos()
        assert len(infos) == 4
        assert sum(i.num_edges for i in infos) == 500
        assert cluster.total_nbytes() == sum(i.nbytes for i in infos)
        cluster.reset_stats()
        assert all(s.stats.ops_applied == 0 for s in cluster.servers)

    def test_store_factory_runs_baselines(self):
        cluster = LocalCluster(num_servers=2, store_factory=PlatoGLStore)
        cluster.client.add_edge(1, 2, 1.0)
        assert cluster.client.num_edges == 1
        assert isinstance(cluster.servers[0].store, PlatoGLStore)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LocalCluster(num_servers=0)
        with pytest.raises(ConfigurationError):
            LocalCluster(num_servers=2, partitioner=HashBySourcePartitioner(3))

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
