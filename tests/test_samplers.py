"""Tests for the operator layer's three sampling methods (paper §III)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.platogl import PlatoGLStore
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.errors import ConfigurationError
from repro.gnn.samplers import (
    MiniBatchBlocks,
    sample_blocks,
    sample_metapath,
    sample_neighbor_matrix,
    sample_seed_nodes,
    sample_subgraph,
)


@pytest.fixture
def chain_store():
    """0 → {1..5} → {10x..10x+4}: a two-hop layered graph."""
    store = DynamicGraphStore(SamtreeConfig(capacity=8))
    for mid in range(1, 6):
        store.add_edge(0, mid, 1.0)
        for leaf in range(5):
            store.add_edge(mid, mid * 10 + leaf, 1.0)
    return store


class TestSeedSampling:
    def test_uses_store_vertex_sampler(self, chain_store, rng):
        seeds = sample_seed_nodes(chain_store, 50, rng)
        assert seeds.shape == (50,)
        assert set(seeds.tolist()) <= set(chain_store.sources())

    def test_fallback_for_plain_stores(self, rng):
        store = PlatoGLStore()
        for s in range(5):
            store.add_edge(s, 100, 1.0)
        seeds = sample_seed_nodes(store, 20, rng)
        assert set(seeds.tolist()) <= set(range(5))

    def test_empty_store(self, rng):
        assert sample_seed_nodes(DynamicGraphStore(), 5, rng).shape == (0,)
        assert sample_seed_nodes(PlatoGLStore(), 5, rng).shape == (0,)

    @pytest.mark.parametrize("empty", [True, False])
    def test_negative_k_is_refused(self, chain_store, rng, empty):
        """Node sampling keeps the one ``k < 0`` contract of every other
        sampler, on the store's sampler, the fallback and an empty store."""
        stores = (
            [DynamicGraphStore(), PlatoGLStore()] if empty
            else [chain_store, PlatoGLStore()]
        )
        stores[1].add_edge(1, 2, 1.0)
        for store in stores:
            with pytest.raises(ConfigurationError):
                sample_seed_nodes(store, -2, rng)
        with pytest.raises(ConfigurationError):
            stores[0].sample_vertices(-2, rng)


class TestNeighborMatrix:
    def test_shape_and_membership(self, chain_store, rng):
        out = sample_neighbor_matrix(chain_store, [1, 2, 3], 7, rng)
        assert out.shape == (3, 7)
        assert out.dtype == np.int64
        for row, src in zip(out, [1, 2, 3]):
            assert set(row.tolist()) <= {src * 10 + i for i in range(5)}

    def test_self_padding_for_leaf_vertices(self, chain_store, rng):
        out = sample_neighbor_matrix(chain_store, [10, 0], 4, rng)
        assert out[0].tolist() == [10, 10, 10, 10]  # no out-edges → self
        assert set(out[1].tolist()) <= {1, 2, 3, 4, 5}

    def test_fanout_validation(self, chain_store):
        with pytest.raises(ConfigurationError):
            sample_neighbor_matrix(chain_store, [0], 0)

    def test_weighted_bias(self, rng):
        store = DynamicGraphStore()
        store.add_edge(1, 2, 1.0)
        store.add_edge(1, 3, 9.0)
        out = sample_neighbor_matrix(store, [1] * 100, 50, rng)
        frac = (out == 3).mean()
        assert frac == pytest.approx(0.9, abs=0.03)


class TestBlocks:
    def test_levels_telescope(self, chain_store, rng):
        blocks = sample_blocks(chain_store, [0, 0], [3, 2], rng)
        assert isinstance(blocks, MiniBatchBlocks)
        assert blocks.batch_size == 2
        assert len(blocks.fanouts) == 2
        assert [lvl.shape[0] for lvl in blocks.levels] == [2, 6, 12]

    def test_level_membership(self, chain_store, rng):
        blocks = sample_blocks(chain_store, [0], [4, 4], rng)
        assert set(blocks.levels[1].tolist()) <= {1, 2, 3, 4, 5}
        mids = set(blocks.levels[1].tolist())
        leaves = set(blocks.levels[2].tolist())
        valid = {m * 10 + i for m in mids for i in range(5)}
        assert leaves <= valid


class TestSubgraph:
    def test_contains_seed_and_edges(self, chain_store, rng):
        nodes, edges = sample_subgraph(chain_store, 0, [3, 3], rng)
        assert 0 in nodes
        assert edges
        for src, dst in edges:
            assert src in nodes and dst in nodes
            assert chain_store.edge_weight(src, dst) is not None

    def test_terminates_on_sinks(self, chain_store, rng):
        nodes, edges = sample_subgraph(chain_store, 10, [5, 5], rng)
        assert nodes == {10}
        assert edges == []

    def test_two_hops_reach_leaves(self, chain_store, rng):
        nodes, _ = sample_subgraph(chain_store, 0, [5, 5], rng)
        assert any(n >= 10 for n in nodes)


class TestMetapath:
    def test_heterogeneous_walk(self, rng):
        store = DynamicGraphStore()
        # User --(etype 0)--> Live --(etype 2)--> Live
        store.add_edge(1, 100, 1.0, etype=0)
        store.add_edge(100, 200, 1.0, etype=2)
        store.add_edge(100, 201, 1.0, etype=2)
        levels = sample_metapath(store, [1], [(0, 3), (2, 2)], rng)
        assert levels[0].tolist() == [1]
        assert set(levels[1].tolist()) == {100}
        assert set(levels[2].tolist()) <= {200, 201}
        assert levels[2].shape == (6,)

    def test_wrong_etype_pads_self(self, rng):
        store = DynamicGraphStore()
        store.add_edge(1, 100, 1.0, etype=0)
        levels = sample_metapath(store, [1], [(9, 2)], rng)
        assert levels[1].tolist() == [1, 1]
