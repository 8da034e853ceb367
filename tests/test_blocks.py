"""Deduplicated blocks: a level of at least ``DEDUP_FROM`` draws above
the bottom holds each vertex once, with an inverse index.

* forward and backward on a deduplicated block equal forward and
  backward on its occurrence view (``levels``), 2- and 3-layer models;
* distinct levels hold no repeats, and ``levels`` is the distinct form
  expanded (occurrences of a vertex share one draw set);
* a block whose levels all sit below ``DEDUP_FROM`` is the one the
  sampler drew before deduplication existed (a pin);
* ``sample_blocks_partial`` keeps its ``UNAVAILABLE`` handling;
* each distinct vertex's draws keep its weighted distribution.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.distributed import LocalCluster
from repro.distributed.rpc import NetworkModel
from repro.errors import ShapeError
from repro.gnn import samplers
from repro.gnn.inference import embed_vertices
from repro.gnn.models import GraphSAGE
from repro.gnn.ops import softmax_cross_entropy
from repro.gnn.samplers import (
    DEDUP_FROM,
    sample_blocks,
    sample_blocks_partial,
)
from repro.gnn.training import Trainer
from repro.storage.attributes import AttributeStore

SOURCES, DIM = 300, 6


def _skewed_edges(rng: np.random.Generator):
    """Every source has an edge; low ids have many, so draws repeat."""
    degree = np.maximum(1, (SOURCES / np.arange(1, SOURCES + 1)).astype(np.int64))
    src = np.repeat(np.arange(SOURCES, dtype=np.int64), degree)
    return src, rng.integers(0, SOURCES, src.size), rng.random(src.size) + 0.5


def _store():
    rng = np.random.default_rng(0)
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    for s, d, w in zip(*(a.tolist() for a in _skewed_edges(rng))):
        store.add_edge(s, d, w)
    return store


def _features(rng: np.random.Generator) -> AttributeStore:
    features = AttributeStore()
    features.register("feat", DIM)
    features.put_many(
        "feat",
        list(range(SOURCES)),
        rng.standard_normal((SOURCES, DIM)).astype(np.float32),
    )
    return features


STORE = _store()
FEATURES = _features(np.random.default_rng(1))


def _pass(model, feats, fanouts, inverse, labels):
    logits = model.forward(feats, fanouts, inverse)
    _, grad = softmax_cross_entropy(logits, labels)
    model.zero_grads()
    model.backward(grad)
    return logits, {name: g.copy() for name, _, g in model.parameters()}


@pytest.mark.parametrize("fanouts", [[10, 4], [8, 5, 3]])
def test_a_deduplicated_pass_equals_its_occurrence_form(fanouts):
    blocks = sample_blocks(STORE, np.arange(64) % 40, fanouts, 3)
    assert any(inv is not None for inv in blocks.inverse)
    labels = np.arange(64) % 3
    model = GraphSAGE(DIM, 7, 3, len(fanouts), rng=np.random.default_rng(2))
    got = _pass(
        model,
        FEATURES.gather_levels("feat", blocks.nodes),
        blocks.fanouts,
        blocks.inverse,
        labels,
    )
    want = _pass(
        model,
        FEATURES.gather_levels("feat", blocks.levels),
        blocks.fanouts,
        None,
        labels,
    )
    np.testing.assert_allclose(got[0], want[0], rtol=1e-5, atol=1e-6)
    assert got[1].keys() == want[1].keys()
    for name, grad in got[1].items():
        np.testing.assert_allclose(
            grad, want[1][name], rtol=1e-4, atol=1e-6, err_msg=name
        )


def test_the_trainer_steps_as_it_would_on_the_occurrence_form():
    """The trainer's bottom level is a fan-out mean over the distinct
    form; against a copy fed the occurrence view, every step lands on
    the same loss and parameters (float32 tolerance)."""
    seeds = np.arange(64) % 50
    labels = seeds % 3
    models = [
        GraphSAGE(DIM, 8, 3, 2, rng=np.random.default_rng(4)) for _ in "ab"
    ]
    fused, occurrences = (
        Trainer(STORE, FEATURES, m, [10, 5], rng=random.Random(6))
        for m in models
    )

    def occurrence_blocks(store, seeds, fanouts, rng, etype, tracer=None):
        blocks = sample_blocks(store, seeds, fanouts, rng, etype, tracer)
        levels = blocks.levels
        return samplers.MiniBatchBlocks(
            levels, [None] * len(levels), blocks.fanouts
        )

    for step in range(3):
        loss, _ = fused.train_step(seeds, labels)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.gnn.training.sample_blocks", occurrence_blocks
            )
            loss_occ, _ = occurrences.train_step(seeds, labels)
        assert loss == pytest.approx(loss_occ, rel=1e-5), step
    for (name, a, _), (_, b, _) in zip(
        models[0].parameters(), models[1].parameters()
    ):
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6, err_msg=name)


def test_distinct_levels_hold_no_repeats_and_expand_to_levels():
    fanouts = [8, 5, 3]
    seeds = np.arange(100) % 30
    blocks = sample_blocks(STORE, seeds, fanouts, 9)
    nodes, inverse, levels = blocks.nodes, blocks.inverse, blocks.levels
    assert [i is not None for i in inverse] == [False, True, True, False]
    assert np.array_equal(nodes[0], seeds) and np.array_equal(levels[0], seeds)
    # ``at[r]``: the row of ``nodes[d]`` that occurrence ``r`` reads.
    at = list(range(len(seeds)))
    for d, fanout in enumerate(fanouts):
        inv = inverse[d + 1]
        flat = np.arange(len(nodes[d]) * fanout) if inv is None else inv
        assert len(flat) == len(nodes[d]) * fanout
        if inv is not None:
            assert np.array_equal(nodes[d + 1], np.unique(nodes[d + 1]))
            assert len(nodes[d + 1]) < len(inv)  # the graph makes repeats
        # Occurrence r of level d reads its row's one draw set.
        draws = nodes[d + 1][flat].reshape(len(nodes[d]), fanout)
        occurrences = levels[d + 1].reshape(len(levels[d]), fanout)
        assert len(occurrences) == len(at)
        for r, row in enumerate(occurrences.tolist()):
            assert row == draws[at[r]].tolist()
        at = [int(flat[a * fanout + j]) for a in at for j in range(fanout)]


def test_only_a_large_level_above_the_bottom_is_deduplicated():
    seeds = np.zeros(DEDUP_FROM // 4, np.int64)  # one vertex, repeated
    below = sample_blocks(STORE, seeds[:-1], [4, 1], 1)
    at = sample_blocks(STORE, seeds, [4, 1], 1)
    bottom = sample_blocks(STORE, seeds, [4], 1)
    assert below.inverse == [None, None, None]
    assert len(below.nodes[1]) == DEDUP_FROM - 4
    assert at.inverse[1] is not None and at.inverse[2] is None
    assert len(at.nodes[1]) <= len(STORE.neighbors(0))
    assert bottom.inverse == [None, None]
    assert len(bottom.nodes[1]) == DEDUP_FROM


def test_a_wrong_inverse_is_refused():
    blocks = sample_blocks(STORE, np.arange(64) % 40, [10, 4], 3)
    feats = FEATURES.gather_levels("feat", blocks.nodes)
    model = GraphSAGE(DIM, 7, 3, 2, rng=np.random.default_rng(2))
    with pytest.raises(ShapeError):
        model.forward(feats, blocks.fanouts, blocks.inverse[:2])
    with pytest.raises(ShapeError):  # the distinct rows read as flat
        model.forward(feats, blocks.fanouts)


def _pin_run() -> str:
    """Seeded blocks, logits and embeddings whose levels all sit below
    ``DEDUP_FROM`` (at most 48 draws): a digest of what they read."""
    rng = np.random.default_rng(8)
    src, dst, weight = _skewed_edges(rng)
    cluster = LocalCluster(num_servers=4, network=NetworkModel())
    client = cluster.client
    client.bulk_load(src, dst, weight)
    features = AttributeStore()
    features.register("feat", 8)
    features.put_many(
        "feat",
        list(range(SOURCES)),
        rng.standard_normal((SOURCES, 8)).astype(np.float32),
    )
    model = GraphSAGE(8, 8, 3, num_layers=2, rng=np.random.default_rng(1))
    trainer = Trainer(client, features, model, [3, 2], rng=random.Random(2))
    seeds = rng.integers(0, 40, 16)  # hub-heavy: many repeats
    digest = hashlib.sha256()
    for level in sample_blocks(client, seeds, [4, 3], 5).levels:
        digest.update(level.tobytes())
    blocks, _, _ = sample_blocks_partial(client, seeds[:8], [5, 5], 6)
    for level in blocks.levels:
        digest.update(level.tobytes())
    digest.update(trainer.forward_batch(seeds).tobytes())
    digest.update(
        embed_vertices(
            client, features, model, seeds, [3, 2], batch_size=16, rng=7
        ).tobytes()
    )
    cluster.freeze_all()
    digest.update(trainer.forward_batch(seeds).tobytes())
    cluster.close()
    return digest.hexdigest()


def test_a_block_below_the_threshold_is_drawn_as_before():
    """Recorded before blocks were deduplicated; it moves only if the
    small-frontier path (every serving flush) does."""
    assert _pin_run() == (
        "5c7cda6501e426aabc077f2bb0f674f4bbf8a9817cb83c0f10943cf56a9369a7"
    )


def test_partial_blocks_keep_unavailable_handling_when_deduplicated():
    rng = np.random.default_rng(3)
    src, dst, weight = _skewed_edges(rng)
    cluster = LocalCluster(
        num_servers=4, replication_factor=2, degraded_reads=True
    )
    client = cluster.client
    client.bulk_load(src, dst, weight)
    dead = 1
    cluster.crash_shard(dead)
    frontier = np.arange(120) % 60
    down = [client.partitioner.shard_for(int(s)) == dead for s in frontier]
    assert any(down) and not all(down)

    blocks, served_idx, unavailable_idx = sample_blocks_partial(
        client, frontier, [5, 4], 2
    )
    assert unavailable_idx == [i for i, d in enumerate(down) if d]
    assert served_idx == [i for i, d in enumerate(down) if not d]
    assert blocks.nodes[0].tolist() == frontier[served_idx].tolist()
    assert blocks.inverse[1] is not None and blocks.inverse[2] is None
    levels = blocks.levels
    assert [len(lv) for lv in levels] == [
        len(served_idx), 5 * len(served_idx), 20 * len(served_idx)
    ]
    # A served seed draws its neighbors; a level-1 vertex on the dead
    # shard is padded with itself below it.
    adjacency = {}
    for s, d in zip(src.tolist(), dst.tolist()):
        adjacency.setdefault(s, set()).add(d)
    for seed, row in zip(levels[0].tolist(), levels[1].reshape(-1, 5).tolist()):
        assert set(row) <= adjacency[seed]
    for v, row in zip(blocks.nodes[1].tolist(), blocks.nodes[2].reshape(-1, 4).tolist()):
        if client.partitioner.shard_for(v) == dead:
            assert row == [v] * 4
        else:
            assert set(row) <= adjacency[v]
    cluster.close()


def test_a_distinct_vertex_draws_its_weighted_distribution():
    """Hop 2 of a deduplicated block, pooled over many blocks: a
    vertex's draws follow its edge weights (chi-square)."""
    draws = {}
    gen = np.random.default_rng(11)
    for _ in range(40):
        blocks = sample_blocks(STORE, np.zeros(32, np.int64), [8, 6], gen)
        assert blocks.inverse[1] is not None
        rows = blocks.nodes[2].reshape(-1, 6).tolist()
        for v, row in zip(blocks.nodes[1].tolist(), rows):
            draws.setdefault(v, []).extend(row)
    v = max(
        (v for v in draws if STORE.degree(v) >= 3),
        key=lambda v: len(draws[v]),
    )
    weights = dict(STORE.tree(v).items())
    support = sorted(weights)
    observed = np.asarray([draws[v].count(d) for d in support], float)
    assert observed.sum() == len(draws[v]) > 100
    expected = np.asarray([weights[d] for d in support], float)
    expected *= len(draws[v]) / expected.sum()
    assert scipy_stats.chisquare(observed, expected).pvalue > 0.01
