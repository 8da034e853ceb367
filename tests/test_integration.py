"""Integration tests: the full stack wired together the way the paper's
production deployment runs it — distributed heterogeneous storage, PALM
batch updates, operator-layer sampling, and GNN training on a graph that
keeps changing underneath the trainer.
"""

from __future__ import annotations

import random

import numpy as np

from repro.concurrency.palm import PalmExecutor
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.ingest import EdgeBatch
from repro.core.types import OP_DELETE, OP_INSERT
from repro.datasets.presets import wechat_scaled
from repro.datasets.stream import EdgeStream
from repro.distributed import LocalCluster, NetworkModel
from repro.gnn.models import GraphSAGE
from repro.gnn.samplers import sample_blocks, sample_metapath, sample_seed_nodes
from repro.gnn.training import Trainer
from repro.storage.attributes import AttributeStore
from tests.conftest import live_edges


def test_wechat_pipeline_end_to_end():
    """Build the 4-relation WeChat-scaled graph with PALM batches, run
    meta-path sampling over it, and verify invariants afterwards."""
    data = wechat_scaled(scale=4_000_000)
    store = DynamicGraphStore(SamtreeConfig(capacity=32))
    executor = PalmExecutor(store, num_threads=4)
    stream = EdgeStream(data, seed=0)
    for batch in stream.build_batches(2048):
        executor.apply_batch(batch)
    assert store.num_edges == len(live_edges(stream))
    store.check_invariants()
    # Four forward relations plus their bi-directed reversed twins.
    assert set(store.etypes()) == {0, 1, 2, 3, 8, 9, 10, 11}

    # Meta-path User→Live→Live (the recommendation pattern).
    rng = random.Random(1)
    user_live = data.relation("User-Live")
    seeds = [int(user_live.src[i]) for i in range(8)]
    levels = sample_metapath(store, seeds, [(0, 5), (2, 3)], rng)
    assert levels[1].shape == (40,)
    assert levels[2].shape == (120,)

    # Churn through the executor, then re-validate.
    for batch in stream.churn_batches(512, 4, mix=(0.4, 0.4, 0.2)):
        executor.apply_batch(batch)
    assert store.num_edges == len(live_edges(stream))
    store.check_invariants()


def test_training_on_distributed_cluster():
    """The trainer runs unmodified against the routing client."""
    rng = random.Random(2)
    nprng = np.random.default_rng(2)
    cluster = LocalCluster(
        num_servers=3,
        config=SamtreeConfig(capacity=16),
        network=NetworkModel(),
    )
    client = cluster.client
    n, dim = 120, 6
    feats = AttributeStore()
    feats.register("feat", dim)
    labels = {}
    for v in range(n):
        c = v % 2
        labels[v] = c
        feats.put("feat", v, nprng.normal(2.0 * c - 1.0, 1.0, dim).astype(np.float32))
    edges = 0
    while edges < n * 6:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and a % 2 == b % 2:
            client.add_edge(a, b, 1.0)
            edges += 1
    seeds = [v for v in range(n) if client.degree(v) > 0]
    y = [labels[v] for v in seeds]
    model = GraphSAGE(dim, 12, 2, num_layers=2, rng=nprng)
    trainer = Trainer(client, feats, model, fanouts=[4, 4], rng=rng)
    for epoch in range(5):
        trainer.train_epoch(seeds, y, batch_size=24, epoch=epoch)
    assert trainer.evaluate(seeds, y) > 0.85
    # The cluster routed real traffic.
    assert cluster.network.stats.messages > 0
    assert sum(s.stats.sample_requests for s in cluster.servers) > 0


def test_concurrent_updates_visible_to_sampler():
    """Figure 1's core premise: samples reflect the latest graph state."""
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    executor = PalmExecutor(store, num_threads=2)
    executor.apply_batch(EdgeBatch.inserts([1], [100]))
    rng = random.Random(3)
    assert set(store.sample_neighbors(1, 20, rng)) == {100}
    # A batch rewires vertex 1 entirely.
    executor.apply_batch(EdgeBatch(
        [1] * 6, [100] + [200 + i for i in range(5)], 1.0, 0,
        [OP_DELETE] + [OP_INSERT] * 5,
    ))
    out = set(store.sample_neighbors(1, 200, rng))
    assert 100 not in out
    assert out <= {200, 201, 202, 203, 204}


def test_seed_sampling_feeds_block_sampling():
    store = DynamicGraphStore(SamtreeConfig(capacity=16))
    r = random.Random(4)
    for _ in range(2000):
        store.add_edge(r.randrange(50), r.randrange(500), r.random() + 0.1)
    seeds = sample_seed_nodes(store, 16, r)
    blocks = sample_blocks(store, seeds.tolist(), [5, 5], r)
    assert blocks.levels[0].shape == (16,)
    assert blocks.levels[2].shape == (400,)


def test_store_survives_adversarial_interleaving():
    """Insert/delete storms targeting one hub vertex with a tiny capacity
    force deep split/merge churn."""
    store = DynamicGraphStore(SamtreeConfig(capacity=4, alpha=1))
    r = random.Random(5)
    live = set()
    for round_no in range(30):
        dsts, weights, ops = [], [], []
        for _ in range(200):
            dst = r.randrange(300)
            dsts.append(dst)
            if r.random() < 0.55:
                weights.append(r.random() + 0.01)
                ops.append(OP_INSERT)
                live.add(dst)
            else:
                weights.append(0.0)
                ops.append(OP_DELETE)
                live.discard(dst)
        PalmExecutor(store, num_threads=2).apply_batch(
            EdgeBatch([7] * len(dsts), dsts, weights, 0, ops)
        )
        if round_no % 10 == 9:
            store.check_invariants()
    assert store.degree(7) == len(live)
    assert {dst for dst, _ in store.neighbors(7)} == live
