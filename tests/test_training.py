"""Tests for the trainer and Adam optimiser (end-to-end learning)."""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError, ShapeError
from repro.gnn.models import GraphSAGE
from repro.gnn.training import Adam, Trainer
from repro.storage.attributes import AttributeStore


def two_cluster_problem(n=160, dim=8, seed=0):
    """Two feature clusters with intra-cluster edges: trivially separable
    by a GNN that aggregates sampled neighborhoods."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    store = DynamicGraphStore(SamtreeConfig(capacity=16))
    feats = AttributeStore()
    feats.register("feat", dim)
    labels = {}
    for v in range(n):
        c = v % 2
        labels[v] = c
        mu = 1.5 if c == 0 else -1.5
        feats.put("feat", v, nprng.normal(mu, 1.0, dim).astype(np.float32))
    edges = 0
    while edges < n * 8:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and a % 2 == b % 2:
            store.add_edge(a, b, 1.0)
            edges += 1
    seeds = [v for v in range(n) if store.degree(v) > 0]
    return store, feats, seeds, [labels[v] for v in seeds]


class TestAdam:
    def test_decreases_quadratic(self, nprng):
        model = GraphSAGE(2, 4, 2, num_layers=1, rng=nprng)
        adam = Adam(model, lr=0.05)
        # Drive one parameter towards a target by synthetic gradients.
        target = np.zeros_like(model.layers[0].params["W_self"])
        for _ in range(200):
            model.zero_grads()
            model.layers[0].grads["W_self"] += (
                model.layers[0].params["W_self"] - target
            )
            adam.step()
        assert np.abs(model.layers[0].params["W_self"]).max() < 0.05

    def test_flat_moments_step_as_a_per_parameter_loop(self, nprng):
        """The flat moment pair against the textbook loop (one ``m`` /
        ``v`` per parameter), bit for bit over many steps."""
        model = GraphSAGE(6, 8, 3, num_layers=2, rng=nprng)
        reference = copy.deepcopy(model)
        adam = Adam(model, lr=0.02)
        b1, b2, eps = adam.beta1, adam.beta2, adam.eps
        moments = {
            name: (np.zeros_like(p), np.zeros_like(p))
            for name, p, _ in reference.parameters()
        }
        for t in range(1, 301):
            for each in (model, reference):
                each.zero_grads()
            for (_, p, g), (_, _, ref_g) in zip(
                model.parameters(), reference.parameters()
            ):
                g += nprng.normal(size=p.shape).astype(np.float32)
                ref_g += g
            adam.step()
            for name, param, grad in reference.parameters():
                m, v = moments[name]
                m *= b1
                m += (1 - b1) * grad
                v *= b2
                v += (1 - b2) * grad * grad
                update = (m / (1.0 - b1 ** t)) / (
                    np.sqrt(v / (1.0 - b2 ** t)) + eps
                )
                param -= adam.lr * update
        for (name, a, _), (_, b, _) in zip(
            model.parameters(), reference.parameters()
        ):
            assert a.dtype == np.float32 and np.array_equal(a, b), name

    def test_lr_validation(self, nprng):
        model = GraphSAGE(2, 4, 2, num_layers=1, rng=nprng)
        with pytest.raises(ConfigurationError):
            Adam(model, lr=0.0)


class TestTrainer:
    def test_fanouts_must_match_depth(self, nprng):
        store, feats, _, _ = two_cluster_problem(40)
        model = GraphSAGE(8, 8, 2, num_layers=2, rng=nprng)
        with pytest.raises(ConfigurationError):
            Trainer(store, feats, model, fanouts=[5])

    def test_label_shape_check(self, nprng):
        store, feats, seeds, labels = two_cluster_problem(40)
        model = GraphSAGE(8, 8, 2, num_layers=2, rng=nprng)
        trainer = Trainer(store, feats, model, fanouts=[3, 3])
        with pytest.raises(ShapeError):
            trainer.train_step(seeds[:4], labels[:3])

    def test_learns_two_clusters(self, nprng):
        store, feats, seeds, labels = two_cluster_problem()
        model = GraphSAGE(8, 16, 2, num_layers=2, rng=nprng)
        trainer = Trainer(
            store, feats, model, fanouts=[5, 5], lr=0.01,
            rng=random.Random(1),
        )
        before = trainer.evaluate(seeds, labels)
        result = None
        for epoch in range(6):
            result = trainer.train_epoch(seeds, labels, batch_size=32, epoch=epoch)
        after = trainer.evaluate(seeds, labels)
        assert after > max(0.9, before)
        assert result is not None and result.num_batches > 0
        assert result.loss < 0.5

    def test_training_tracks_dynamic_graph(self, nprng):
        """New edges become visible to the very next mini-batch — the
        dynamic-training property the system exists for."""
        store, feats, seeds, labels = two_cluster_problem(80)
        model = GraphSAGE(8, 16, 2, num_layers=2, rng=nprng)
        trainer = Trainer(store, feats, model, fanouts=[4, 4], rng=random.Random(2))
        trainer.train_epoch(seeds, labels, batch_size=16)
        # Insert a brand-new vertex wired into cluster 0 and classify it.
        new_v = 10_000
        feats.put("feat", new_v, np.full(8, 1.5, dtype=np.float32))
        for dst in [v for v in seeds if v % 2 == 0][:6]:
            store.add_edge(new_v, dst, 1.0)
        logits = trainer.forward_batch([new_v])
        assert logits.shape == (1, 2)

    def test_feature_put_between_steps_is_seen(self):
        """A feature overwrite reaches the very next step's gather: of
        two identical runs, the one whose features are zeroed after step
        one takes a different step two, on all-zero inputs."""
        def run(zero_features):
            store, feats, seeds, labels = two_cluster_problem(80)
            model = GraphSAGE(
                8, 16, 2, num_layers=2, rng=np.random.default_rng(5)
            )
            trainer = Trainer(
                store, feats, model, fanouts=[4, 4], rng=random.Random(2)
            )
            first = trainer.train_step(seeds[:16], labels[:16])
            if zero_features:
                feats.put_many(
                    "feat", list(range(80)), np.zeros((80, 8), np.float32)
                )
            second = trainer.train_step(seeds[16:32], labels[16:32])
            return first, second, trainer.forward_batch(seeds[:16])

        first, second, logits = run(zero_features=False)
        first_z, second_z, logits_z = run(zero_features=True)
        assert first_z == first
        assert second_z != second
        assert np.ptp(logits, axis=0).max() > 0.0
        assert np.ptp(logits_z, axis=0).max() == 0.0

    def test_evaluate_empty(self, nprng):
        store, feats, _, _ = two_cluster_problem(40)
        model = GraphSAGE(8, 8, 2, num_layers=2, rng=nprng)
        trainer = Trainer(store, feats, model, fanouts=[2, 2])
        assert trainer.evaluate([], []) == 0.0
