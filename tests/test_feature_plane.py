"""The path from a sampled frontier to seed logits: block gathers, the
layer tape, and the bottom layer's skipped input gradient."""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from repro.gnn.inference import embed_vertices
from repro.gnn.models import GAT, GCN, GraphSAGE
from repro.gnn.ops import softmax_cross_entropy
from repro.gnn.samplers import sample_blocks
from repro.gnn.training import Trainer

from tests.test_model_matrix import make_problem

FANOUTS = [3, 2]


def _grads(model):
    return {name: grad.copy() for name, _, grad in model.parameters()}


class TestGatherLevels:
    def test_equals_one_gather_per_level(self, rng):
        store, feats, seeds, _ = make_problem(seed=3)
        feats.delete("feat", seeds[0])  # a missing id inside the block
        blocks = sample_blocks(store, seeds[:16], FANOUTS, rng)
        got = feats.gather_levels("feat", blocks.levels)
        assert [g.shape for g in got] == [(16, 6), (48, 6), (96, 6)]
        for level, matrix in zip(blocks.levels, got):
            assert matrix.dtype == np.float32
            assert np.array_equal(matrix, feats.gather("feat", level))

    def test_single_and_empty_levels(self):
        _, feats, _, _ = make_problem(n=20, seed=3)
        (only,) = feats.gather_levels("feat", [np.array([1, 2, 999])])
        assert np.array_equal(only, feats.gather("feat", [1, 2, 999]))
        empty = np.zeros(0, dtype=np.int64)
        got = feats.gather_levels("feat", [empty, empty])
        assert [g.shape for g in got] == [(0, 6), (0, 6)]


class TestLayerTape:
    """A forward that is never differentiated must not pile up on the
    layers' tape (each entry pins a ``(B, F, D)`` neighbor tensor)."""

    #: Entries of one 2-layer forward: layer 0 at two depths, layer 1 at one.
    ONE_FORWARD = [2, 1]

    def _tape(self, model):
        return [len(layer._cache) for layer in model.layers]

    def test_inference_paths_leave_one_forward_at_most(self, nprng):
        store, feats, seeds, labels = make_problem(seed=5)
        model = GraphSAGE(6, 8, 2, num_layers=2, rng=nprng)
        trainer = Trainer(store, feats, model, FANOUTS, rng=random.Random(1))
        for _ in range(5):
            trainer.evaluate(seeds[:50], labels[:50], batch_size=10)
            assert self._tape(model) == self.ONE_FORWARD
        trainer.forward_batch(seeds[:8])
        assert self._tape(model) == self.ONE_FORWARD

        embed_vertices(
            store, feats, model, seeds[:30], FANOUTS, batch_size=7, rng=3
        )
        assert self._tape(model) == self.ONE_FORWARD

        trainer.train_step(seeds[:10], labels[:10])
        assert self._tape(model) == [0, 0]

    def test_train_step_after_inference_matches_a_fresh_model(self, nprng):
        store, feats, seeds, labels = make_problem(seed=5)
        used = GraphSAGE(6, 8, 2, num_layers=2, rng=nprng)
        fresh = copy.deepcopy(used)
        warm = Trainer(store, feats, used, FANOUTS, rng=random.Random(1))
        warm.evaluate(seeds[:40], labels[:40], batch_size=10)
        embed_vertices(store, feats, used, seeds[:20], FANOUTS, rng=3)

        for model in (used, fresh):
            step = Trainer(store, feats, model, FANOUTS, rng=random.Random(9))
            step.train_step(seeds[:12], labels[:12])
        for name, grad in _grads(used).items():
            assert np.array_equal(grad, _grads(fresh)[name]), name
        for (_, a, _), (_, b, _) in zip(used.parameters(), fresh.parameters()):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("model_cls", [GraphSAGE, GCN, GAT])
def test_skipping_the_bottom_input_half_keeps_parameter_gradients(
    model_cls, nprng
):
    """``SampledGNN.backward`` (bottom layer: parameter half only) against
    the full backward of every layer on the same tape, bit for bit."""
    model = model_cls(5, 7, 3, num_layers=2, rng=nprng)
    sizes = [4, 4 * FANOUTS[0], 4 * FANOUTS[0] * FANOUTS[1]]
    feats = [nprng.normal(size=(n, 5)).astype(np.float32) for n in sizes]
    labels = np.array([0, 1, 2, 0])

    _, grad = softmax_cross_entropy(model.forward(feats, FANOUTS), labels)
    tape = [list(layer._cache) for layer in model.layers]
    model.zero_grads()
    model.backward(grad)
    skipped = _grads(model)

    # The reference: every layer, the bottom one included, computes and
    # returns its input gradients.
    for layer, entries in zip(model.layers, tape):
        layer._cache[:] = entries
    model.zero_grads()
    top, bottom = model.layers[1], model.layers[0]
    grad_self, grad_neigh = top.backward(grad)
    flat = grad_neigh.reshape(-1, grad_neigh.shape[-1])
    for g, fanout in ((flat, FANOUTS[1]), (grad_self, FANOUTS[0])):
        to_self, to_neigh = bottom.backward(g)
        assert to_self.shape == (len(g), 5)
        assert to_neigh.shape == (len(g), fanout, 5)
    for name, grad_arr in _grads(model).items():
        assert np.array_equal(grad_arr, skipped[name]), name
    assert all(not layer._cache for layer in model.layers)
