"""Tests for embedding inference, top-k retrieval, and random walks."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError, ShapeError
from repro.gnn.inference import embed_vertices, topk_similar
from repro.gnn.models import GAT, GraphSAGE
from repro.gnn.walks import (
    metapath_walks,
    node2vec_walks,
    random_walks,
    walk_cooccurrence,
)
from repro.storage.attributes import AttributeStore


@pytest.fixture
def small_graph():
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    feats = AttributeStore()
    feats.register("feat", 4)
    nprng = np.random.default_rng(0)
    for v in range(40):
        feats.put("feat", v, nprng.normal(size=4).astype(np.float32))
    rng = random.Random(0)
    for _ in range(300):
        a, b = rng.randrange(40), rng.randrange(40)
        if a != b:
            store.add_edge(a, b, rng.random() + 0.1)
    return store, feats


class TestInference:
    def test_shapes_and_normalisation(self, small_graph, rng, nprng):
        store, feats = small_graph
        encoder = GraphSAGE(4, 8, 6, num_layers=2, rng=nprng)
        emb = embed_vertices(
            store, feats, encoder, list(range(40)), [3, 3], rng=rng,
            batch_size=16,
        )
        assert emb.shape == (40, 6)
        assert emb.dtype == np.float32
        norms = np.linalg.norm(emb, axis=1)
        nonzero = norms > 0
        assert np.allclose(norms[nonzero], 1.0, atol=1e-5)

    def test_no_normalize(self, small_graph, rng, nprng):
        store, feats = small_graph
        encoder = GraphSAGE(4, 8, 6, num_layers=2, rng=nprng)
        emb = embed_vertices(
            store, feats, encoder, [0, 1], [2, 2], rng=rng, normalize=False
        )
        assert emb.shape == (2, 6)

    def test_tape_bounded_to_one_forward(self, small_graph, rng, nprng):
        """Three mini-batches leave the last forward's entries, not three
        forwards' (layer 0 runs at two depths, layer 1 at one)."""
        store, feats = small_graph
        encoder = GraphSAGE(4, 8, 6, num_layers=2, rng=nprng)
        embed_vertices(
            store, feats, encoder, list(range(10)), [2, 2], rng=rng,
            batch_size=4,
        )
        assert [len(layer._cache) for layer in encoder.layers] == [2, 1]

    def test_empty_vertex_list(self, small_graph, rng, nprng):
        store, feats = small_graph
        encoder = GraphSAGE(4, 8, 6, num_layers=2, rng=nprng)
        assert embed_vertices(store, feats, encoder, [], [2, 2], rng=rng).shape == (0, 6)

    def test_gat_encoder_works(self, small_graph, rng, nprng):
        store, feats = small_graph
        encoder = GAT(4, 8, 6, num_layers=2, rng=nprng)
        emb = embed_vertices(store, feats, encoder, [0, 1, 2], [3, 3], rng=rng)
        assert emb.shape == (3, 6)

    def test_validation(self, small_graph, rng, nprng):
        store, feats = small_graph
        encoder = GraphSAGE(4, 8, 6, num_layers=2, rng=nprng)
        with pytest.raises(ConfigurationError):
            embed_vertices(store, feats, encoder, [0], [2], rng=rng)
        with pytest.raises(ConfigurationError):
            embed_vertices(store, feats, encoder, [0], [2, 2], batch_size=0)


class TestTopK:
    def test_orders_by_score(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
        out = topk_similar(emb, np.array([1.0, 0.0]), 2)
        assert [i for i, _ in out] == [0, 2]
        assert out[0][1] == pytest.approx(1.0)

    def test_exclude(self):
        emb = np.eye(3)
        out = topk_similar(emb, emb[1], 2, exclude=1)
        assert 1 not in [i for i, _ in out]

    def test_k_clamped(self):
        emb = np.eye(2)
        assert len(topk_similar(emb, emb[0], 10)) == 2

    def test_validation(self):
        with pytest.raises(ShapeError):
            topk_similar(np.eye(3), np.zeros(2), 1)
        with pytest.raises(ConfigurationError):
            topk_similar(np.eye(3), np.zeros(3), 0)


class TestRandomWalks:
    def test_walks_follow_edges(self, small_graph, rng):
        store, _ = small_graph
        walks = random_walks(store, [0, 1, 2], length=10, rng=rng)
        assert len(walks) == 3
        for walk in walks:
            for a, b in zip(walk, walk[1:]):
                assert store.has_edge(a, b) or a == b

    def test_sink_stops_walk(self, rng):
        store = DynamicGraphStore()
        store.add_edge(1, 2, 1.0)  # 2 is a sink
        walks = random_walks(store, [1], length=5, rng=rng)
        assert walks[0] == [1, 2]

    def test_restart(self, rng):
        store = DynamicGraphStore()
        store.add_edge(1, 2, 1.0)
        store.add_edge(2, 3, 1.0)
        store.add_edge(3, 1, 1.0)
        walks = random_walks(store, [1], length=200, rng=rng, restart_prob=0.5)
        assert walks[0].count(1) > 40  # frequent teleports home

    def test_validation(self, rng):
        store = DynamicGraphStore()
        with pytest.raises(ConfigurationError):
            random_walks(store, [1], length=-1, rng=rng)
        with pytest.raises(ConfigurationError):
            random_walks(store, [1], 1, rng=rng, restart_prob=1.0)


class TestNode2Vec:
    def make_triangle_plus_tail(self):
        store = DynamicGraphStore()
        # triangle 1-2-3 (bi-directed) plus a tail 3->4
        for a, b in [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1), (3, 4)]:
            store.add_edge(a, b, 1.0)
        return store

    def test_low_p_returns_often(self, rng):
        store = self.make_triangle_plus_tail()
        walks = node2vec_walks(store, [1] * 50, length=6, p=0.05, q=1.0, rng=rng)
        returns = sum(
            sum(1 for i in range(2, len(w)) if w[i] == w[i - 2])
            for w in walks
        )
        walks_q = node2vec_walks(store, [1] * 50, length=6, p=20.0, q=1.0, rng=rng)
        returns_q = sum(
            sum(1 for i in range(2, len(w)) if w[i] == w[i - 2])
            for w in walks_q
        )
        assert returns > returns_q

    def test_edges_respected(self, rng):
        store = self.make_triangle_plus_tail()
        for walk in node2vec_walks(store, [1, 2, 3], 8, 0.5, 2.0, rng=rng):
            for a, b in zip(walk, walk[1:]):
                assert store.has_edge(a, b)

    def test_validation(self, rng):
        store = self.make_triangle_plus_tail()
        with pytest.raises(ConfigurationError):
            node2vec_walks(store, [1], 3, p=0.0, rng=rng)
        with pytest.raises(ConfigurationError):
            node2vec_walks(store, [1], -2, rng=rng)


class TestMetapathWalks:
    def test_schema_followed(self, rng):
        store = DynamicGraphStore()
        store.add_edge(1, 10, 1.0, etype=0)   # user -> live
        store.add_edge(10, 11, 1.0, etype=2)  # live -> live
        store.add_edge(11, 2, 1.0, etype=8)   # live -> user (reverse)
        walks = metapath_walks(store, [1], schema=[0, 2, 8], rng=rng)
        assert walks[0] == [1, 10, 11, 2]

    def test_stops_when_type_missing(self, rng):
        store = DynamicGraphStore()
        store.add_edge(1, 10, 1.0, etype=0)
        walks = metapath_walks(store, [1], schema=[0, 2], repetitions=3, rng=rng)
        assert walks[0] == [1, 10]

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            metapath_walks(DynamicGraphStore(), [1], schema=[], rng=rng)
        with pytest.raises(ConfigurationError):
            metapath_walks(DynamicGraphStore(), [1], schema=[0], repetitions=0, rng=rng)


class TestCooccurrence:
    def test_window_pairs(self):
        pairs = walk_cooccurrence([[1, 2, 3]], window=1)
        assert pairs == {
            (1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1,
        }

    def test_window_two(self):
        pairs = walk_cooccurrence([[1, 2, 3]], window=2)
        assert pairs[(1, 3)] == 1 and pairs[(3, 1)] == 1

    def test_counts_accumulate_across_walks(self):
        pairs = walk_cooccurrence([[1, 2], [1, 2]], window=1)
        assert pairs[(1, 2)] == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            walk_cooccurrence([[1, 2]], window=0)
