"""Cross-cutting matrix tests: GraphSAGE trains end to end, on local and
distributed stores, homogeneous and heterogeneous graphs."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.distributed import LocalCluster
from repro.gnn.models import GraphSAGE
from repro.gnn.samplers import sample_blocks, sample_metapath
from repro.gnn.training import Trainer
from repro.storage.attributes import AttributeStore


def make_problem(n=120, dim=6, seed=0, store=None):
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    store = store if store is not None else DynamicGraphStore(
        SamtreeConfig(capacity=16)
    )
    feats = AttributeStore()
    feats.register("feat", dim)
    labels = {}
    for v in range(n):
        c = v % 2
        labels[v] = c
        feats.put("feat", v, nprng.normal(2.0 * c - 1.0, 1.2, dim).astype(np.float32))
    edges = 0
    while edges < n * 6:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and a % 2 == b % 2:
            store.add_edge(a, b, 1.0)
            edges += 1
    seeds = [v for v in range(n) if store.degree(v) > 0]
    return store, feats, seeds, [labels[v] for v in seeds]


def test_graphsage_learns(nprng):
    store, feats, seeds, labels = make_problem(seed=11)
    model = GraphSAGE(6, 16, 2, num_layers=2, rng=nprng)
    trainer = Trainer(
        store, feats, model, fanouts=[4, 4], lr=0.01, rng=random.Random(1)
    )
    for epoch in range(6):
        trainer.train_epoch(seeds, labels, batch_size=32, epoch=epoch)
    assert trainer.evaluate(seeds, labels) > 0.85


@pytest.mark.parametrize("depth,fanouts", [(1, [6]), (3, [4, 3, 2])])
def test_non_default_depths(depth, fanouts, nprng):
    store, feats, seeds, labels = make_problem(seed=12)
    model = GraphSAGE(6, 12, 2, num_layers=depth, rng=nprng)
    trainer = Trainer(
        store, feats, model, fanouts=fanouts, lr=0.01, rng=random.Random(2)
    )
    for epoch in range(6):
        trainer.train_epoch(seeds, labels, batch_size=32, epoch=epoch)
    assert trainer.evaluate(seeds, labels) > 0.8


def test_training_against_cluster_client(nprng):
    cluster = LocalCluster(num_servers=3, config=SamtreeConfig(capacity=16))
    store, feats, seeds, labels = make_problem(seed=13, store=cluster.client)
    model = GraphSAGE(6, 12, 2, num_layers=2, rng=nprng)
    trainer = Trainer(
        cluster.client, feats, model, fanouts=[4, 4], lr=0.01,
        rng=random.Random(3),
    )
    for epoch in range(6):
        trainer.train_epoch(seeds, labels, batch_size=32, epoch=epoch)
    assert trainer.evaluate(seeds, labels) > 0.8


def test_heterogeneous_metapath_blocks_feed_model(nprng, rng):
    """Meta-path levels slot directly into a model forward."""
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    feats = AttributeStore()
    feats.register("feat", 4)
    nr = np.random.default_rng(0)
    # users 0..9 -> (etype 0) items 100..119 -> (etype 1) tags 200..209
    for u in range(10):
        feats.put("feat", u, nr.normal(size=4).astype(np.float32))
        for it in rng.sample(range(100, 120), 4):
            store.add_edge(u, it, 1.0, etype=0)
    for it in range(100, 120):
        feats.put("feat", it, nr.normal(size=4).astype(np.float32))
        for tag in rng.sample(range(200, 210), 3):
            store.add_edge(it, tag, 1.0, etype=1)
    for tag in range(200, 210):
        feats.put("feat", tag, nr.normal(size=4).astype(np.float32))

    levels = sample_metapath(store, list(range(10)), [(0, 3), (1, 2)], rng)
    model = GraphSAGE(4, 8, 3, num_layers=2, rng=nprng)
    feats_levels = [feats.gather("feat", lvl.tolist()) for lvl in levels]
    logits = model.forward(feats_levels, [3, 2])
    assert logits.shape == (10, 3)


def test_blocks_from_all_store_kinds(rng):
    """sample_blocks is store-agnostic (protocol check)."""
    from repro.baselines import AliGraphStore, PlatoGLStore, StaticCSRStore

    for store in (
        DynamicGraphStore(),
        PlatoGLStore(),
        AliGraphStore(),
        StaticCSRStore(),
    ):
        for s in range(4):
            for d in range(3):
                store.add_edge(s, 10 + d, 1.0)
        blocks = sample_blocks(store, [0, 1], [2, 2], rng)
        assert blocks.levels[2].shape == (8,)
