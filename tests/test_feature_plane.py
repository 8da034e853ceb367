"""The path from a sampled frontier to seed logits: block gathers, the
bottom level's fused fan-out mean, the layer tape, and the bottom
layer's skipped input gradient."""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.gnn.inference import embed_vertices
from repro.gnn.models import GraphSAGE
from repro.gnn.ops import mean_aggregate, softmax_cross_entropy
from repro.gnn.samplers import sample_blocks
from repro.gnn.training import Trainer
from repro.storage.attributes import AttributeStore

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


def _field(stored=30, dim=5):
    """A ``feat`` field holding ids ``0 .. stored - 1``."""
    feats = AttributeStore()
    feats.register("feat", dim)
    values = np.random.default_rng(4).normal(size=(stored, dim))
    feats.put_many("feat", np.arange(stored), values.astype(np.float32))
    return feats


_FIELD = _field()


class TestGatherMean:
    @settings(max_examples=150, deadline=None)
    @given(
        fanout=st.integers(1, 12),
        ids=st.lists(st.integers(0, 39), max_size=60),
    )
    def test_equals_the_mean_of_the_gathered_rows(self, fanout, ids):
        """Ids 30..39 are missing (the zero row); ids repeat freely."""
        ids = np.asarray(ids[: len(ids) - len(ids) % fanout], dtype=np.int64)
        got = _FIELD.gather_mean("feat", ids, fanout)
        rows = _FIELD.gather("feat", ids).reshape(-1, fanout, 5)
        assert got.dtype == np.float32 and got.shape == (len(rows), 5)
        assert np.array_equal(got, mean_aggregate(rows))

    def test_an_empty_input_is_an_empty_matrix(self):
        empty = np.zeros(0, dtype=np.int64)
        assert _FIELD.gather_mean("feat", empty, 4).shape == (0, 5)

    @pytest.mark.parametrize("count,fanout", [(7, 2), (1, 3), (5, 0)])
    def test_a_partial_run_raises(self, count, fanout):
        with pytest.raises(ShapeError):
            _FIELD.gather_mean("feat", np.arange(count), fanout)


@pytest.mark.parametrize("fanouts", [[4], [3, 2], [3, 2, 4]])
def test_the_bottom_level_as_rows_or_as_its_mean_is_one_model(
    fanouts, nprng
):
    """``GraphSAGE.forward`` + ``backward`` over the bottom level's rows
    and over their fan-out mean: equal logits and gradients, bit for
    bit."""
    model = GraphSAGE(5, 7, 3, num_layers=len(fanouts), rng=nprng)
    sizes = [4]
    for fanout in fanouts:
        sizes.append(sizes[-1] * fanout)
    rows = [nprng.normal(size=(n, 5)).astype(np.float32) for n in sizes]
    bottom = rows[-1].reshape(sizes[-2], fanouts[-1], 5)
    labels = np.array([0, 1, 2, 0])
    results = []
    for feats in (rows, rows[:-1] + [mean_aggregate(bottom)]):
        logits = model.forward(feats, fanouts)
        _, grad = softmax_cross_entropy(logits, labels)
        model.zero_grads()
        model.backward(grad)
        results.append((logits, _grads(model)))
    (logits_rows, grads_rows), (logits_mean, grads_mean) = results
    assert np.array_equal(logits_rows, logits_mean)
    for name, grad in grads_rows.items():
        assert np.array_equal(grad, grads_mean[name]), name


def test_the_trainer_steps_as_it_would_on_the_rows(nprng):
    """Two copies of one trainer (the store shared, so it locks and is
    read alike), one fed the bottom level's rows and one its mean, end
    every step with the same loss and the same parameters."""
    store, feats, seeds, labels = make_problem(seed=6)
    model = GraphSAGE(6, 8, 2, num_layers=2, rng=nprng)
    fused, rows = (
        Trainer(store, feats, m, FANOUTS, rng=random.Random(4))
        for m in (model, copy.deepcopy(model))
    )
    rows._gather_phase = lambda blocks: rows.features.gather_levels(
        rows.feat_name, blocks.levels
    )
    for _ in range(3):
        loss_rows, _ = rows.train_step(seeds[:20], labels[:20])
        loss_fused, _ = fused.train_step(seeds[:20], labels[:20])
        assert loss_rows == loss_fused
    for (name, a, _), (_, b, _) in zip(
        rows.model.parameters(), fused.model.parameters()
    ):
        assert np.array_equal(a, b), name


def test_a_training_step_never_builds_the_bottom_level(nprng):
    """At the benchmark's shapes (256 seeds, fan-outs [10, 10]) the
    bottom level is 25 600 ids: neither the gathered features nor any
    array on the layers' tape may hold that many feature rows."""
    store, feats, seeds, labels = make_problem(seed=7)
    picks = np.random.default_rng(7).integers(0, len(seeds), 256)
    batch = np.asarray(seeds)[picks]
    batch_labels = np.asarray(labels)[picks]
    model = GraphSAGE(6, 8, 2, num_layers=2, rng=nprng)
    trainer = Trainer(store, feats, model, [10, 10], rng=random.Random(5))
    seen = []
    gather_phase, backward = trainer._gather_phase, model.backward

    def gather_and_keep(blocks):
        seen.extend(gather_phase(blocks))
        return seen[-3:]

    def keep_tape_then_backward(grad):
        for layer in model.layers:
            for entry in layer._cache:
                seen.extend(a for a in entry if isinstance(a, np.ndarray))
        backward(grad)

    trainer._gather_phase = gather_and_keep
    model.backward = keep_tape_then_backward
    trainer.train_step(batch, batch_labels)
    rows = [a.size // a.shape[-1] for a in seen]
    assert len(seen) > 3 and 2560 in rows
    assert 25600 not in rows, rows


class TestLayerTape:
    """A forward that is never differentiated must not pile up on the
    layers' tape (each entry pins the layer's inputs and output)."""

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


def test_skipping_the_bottom_input_half_keeps_parameter_gradients(nprng):
    """``GraphSAGE.backward`` (bottom layer: parameter half only) against
    the full backward of every layer on the same tape, bit for bit."""
    model = GraphSAGE(5, 7, 3, num_layers=2, rng=nprng)
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
