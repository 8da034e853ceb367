"""Tests for the PlatoD2GL dynamic graph store (paper §IV-B)."""

from __future__ import annotations

import random

import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import EdgeOp, OpKind


@pytest.fixture
def store() -> DynamicGraphStore:
    return DynamicGraphStore(SamtreeConfig(capacity=8))


class TestUpdates:
    def test_add_edge(self, store):
        assert store.add_edge(1, 2, 0.5) is True
        assert store.add_edge(1, 2, 0.7) is False  # overwrite
        assert store.edge_weight(1, 2) == pytest.approx(0.7)
        assert store.num_edges == 1
        assert store.num_sources == 1

    def test_accumulate_edge(self, store):
        store.accumulate_edge(1, 2, 1.0)
        store.accumulate_edge(1, 2, 2.0)
        assert store.edge_weight(1, 2) == pytest.approx(3.0)
        assert store.num_edges == 1

    def test_update_edge_requires_existence(self, store):
        assert store.update_edge(1, 2, 1.0) is False
        store.add_edge(1, 2, 1.0)
        assert store.update_edge(1, 2, 9.0) is True
        assert store.edge_weight(1, 2) == pytest.approx(9.0)

    def test_remove_edge(self, store):
        store.add_edge(1, 2)
        assert store.remove_edge(1, 2) is True
        assert store.remove_edge(1, 2) is False
        assert store.num_edges == 0
        # Sources with no out-edges hold no storage (paper Example 1).
        assert store.num_sources == 0

    def test_apply_dispatch(self, store):
        assert store.apply(EdgeOp.insert(1, 2, 1.0)) is True
        assert store.apply(EdgeOp.update(1, 2, 3.0)) is True
        assert store.apply(EdgeOp.delete(1, 2)) is True
        assert store.apply(EdgeOp(OpKind.DELETE, 1, 2)) is False


class TestHeterogeneous:
    def test_relations_are_isolated(self, store):
        store.add_edge(1, 2, 1.0, etype=0)
        store.add_edge(1, 3, 2.0, etype=1)
        assert store.degree(1, etype=0) == 1
        assert store.degree(1, etype=1) == 1
        assert store.edge_weight(1, 2, etype=1) is None
        assert store.etypes() == [0, 1]
        assert sorted(store.sources(etype=1)) == [1]

    def test_same_pair_different_relations(self, store):
        store.add_edge(1, 2, 1.0, etype=0)
        store.add_edge(1, 2, 5.0, etype=3)
        assert store.edge_weight(1, 2, etype=0) == pytest.approx(1.0)
        assert store.edge_weight(1, 2, etype=3) == pytest.approx(5.0)
        assert store.num_edges == 2


class TestQueries:
    def test_neighbors(self, store):
        store.add_edge(1, 2, 0.1)
        store.add_edge(1, 3, 0.4)
        assert dict(store.neighbors(1)) == pytest.approx({2: 0.1, 3: 0.4})
        assert store.neighbors(99) == []

    def test_degree_and_total_weight(self, store):
        for i in range(20):
            store.add_edge(7, i, 0.5)
        assert store.degree(7) == 20
        assert store.total_weight(7) == pytest.approx(10.0)
        assert store.degree(8) == 0
        assert store.total_weight(8) == 0.0


class TestSampling:
    def test_sample_neighbors(self, store):
        store.add_edge(1, 10, 1.0)
        store.add_edge(1, 20, 9.0)
        out = store.sample_neighbors(1, 5000, random.Random(0))
        assert len(out) == 5000
        assert out.count(20) / 5000 == pytest.approx(0.9, abs=0.02)

    def test_sample_missing_source_is_empty(self, store):
        assert store.sample_neighbors(42, 10) == []

    def test_sample_uniform(self, store):
        store.add_edge(1, 10, 100.0)
        store.add_edge(1, 20, 0.1)
        out = store.sample_neighbors_uniform(1, 4000, random.Random(1))
        assert out.count(10) / 4000 == pytest.approx(0.5, abs=0.03)

    def test_sample_batch_shape(self, store):
        for s in range(5):
            store.add_edge(s, 100 + s, 1.0)
        rows = store.sample_neighbors_many(range(5), 3, random.Random(2)).rows()
        assert [len(r) for r in rows] == [3] * 5

    def test_sample_vertices_degree_weighted(self, store):
        for i in range(30):
            store.add_edge(1, i, 1.0)  # degree 30
        store.add_edge(2, 99, 1.0)  # degree 1
        out = store.sample_vertices(5000, random.Random(3))
        assert out.count(1) / 5000 == pytest.approx(30 / 31, abs=0.02)

    def test_sample_vertices_empty(self, store):
        assert store.sample_vertices(5) == []


class TestLifecycle:
    def test_random_churn_invariants(self, store):
        r = random.Random(4)
        ref = {}
        for _ in range(4000):
            src, dst = r.randrange(15), r.randrange(100)
            roll = r.random()
            if roll < 0.6:
                w = round(r.random(), 4)
                store.add_edge(src, dst, w)
                ref[(src, dst)] = w
            elif ref:
                key = r.choice(list(ref))
                store.remove_edge(*key)
                del ref[key]
        store.check_invariants()
        assert store.num_edges == len(ref)
        for (src, dst), w in ref.items():
            assert store.edge_weight(src, dst) == pytest.approx(w)

    def test_tree_accessor(self, store):
        assert store.tree(1) is None
        store.add_edge(1, 2)
        assert store.tree(1) is not None
        assert store.tree(1).degree == 1

    def test_nbytes_monotone(self, store):
        sizes = [store.nbytes()]
        for i in range(200):
            store.add_edge(i % 10, i, 1.0)
            if i % 50 == 49:
                sizes.append(store.nbytes())
        assert sizes == sorted(sizes)

    def test_shared_stats_across_trees(self, store):
        for s in range(5):
            for d in range(20):
                store.add_edge(s, d, 1.0)
        assert store.stats.leaf_ops == 100
        assert store.stats.leaf_splits > 0
