"""Tests for embedding inference and random walks."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError
from repro.gnn.inference import embed_vertices
from repro.gnn.models import GAT, GraphSAGE
from repro.gnn.walks import random_walks, walk_cooccurrence
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


class TestRandomWalks:
    def test_walks_follow_edges(self, small_graph, rng):
        store, _ = small_graph
        walks = random_walks(store, [0, 1, 2], length=10, rng=rng)
        assert len(walks) == 3
        for walk in walks:
            for a, b in zip(walk, walk[1:]):
                assert store.edge_weight(a, b) is not None or a == b

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
