"""Tests for the PlatoD2GL dynamic graph store (paper §IV-B)."""

from __future__ import annotations

import random

import pytest

from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import OP_DELETE, OP_INSERT, OP_UPDATE


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
        assert store.write_op(OP_INSERT, 1, 2, 1.0, 0) is True
        assert store.write_op(OP_UPDATE, 1, 2, 3.0, 0) is True
        assert store.neighbors(1) == [(2, 3.0)]
        assert store.write_op(OP_DELETE, 1, 2, 0.0, 0) is True
        assert store.write_op(OP_DELETE, 1, 2, 0.0, 0) is False


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


class TestIterationOrder:
    """Iteration reads the directory's columns in ascending ``(etype,
    src)`` order, so it is a function of the edge set alone — not of
    where hashing placed the keys, which depends on how the store was
    built and churned."""

    @staticmethod
    def _copies():
        import io

        import numpy as np

        from repro.storage.checkpoint import load_store, save_store

        rng = np.random.default_rng(7)
        src = rng.integers(0, 5_000, 6_000)
        dst = rng.integers(0, 5_000, 6_000)
        etype = rng.integers(0, 3, 6_000).astype(np.int16)
        weight = rng.random(6_000) + 0.5
        loaded = DynamicGraphStore(SamtreeConfig(capacity=4))
        loaded.bulk_load(src, dst, weight, etype)
        looped = DynamicGraphStore(SamtreeConfig(capacity=4))
        for s, d, w, e in zip(src.tolist(), dst.tolist(), weight.tolist(),
                              etype.tolist()):
            looped.add_edge(s, d, w, e)
        for store in (loaded, looped):  # churn: sources leave, some return
            for s in range(0, 5_000, 3):
                for e in range(3):
                    for d, _ in store.neighbors(s, e):
                        store.remove_edge(s, d, e)
            for s in range(0, 5_000, 9):
                store.add_edge(s, 1, 1.0, 1)
        buf = io.BytesIO()
        save_store(loaded, buf)
        buf.seek(0)
        return loaded, looped, load_store(buf)

    def test_copies_iterate_and_sample_alike(self):
        copies = self._copies()
        # Hashing placed the keys differently in the three copies.
        slots = [c.directory._src.tolist() for c in copies]
        assert slots[0] != slots[1] and slots[0] != slots[2]
        for etype in range(3):
            sources = [list(c.sources(etype)) for c in copies]
            assert sources[0] == sorted(sources[0]) and sources[0]
            assert sources[1] == sources[0] and sources[2] == sources[0]
            for seed in range(5):
                seeds = [
                    c.sample_vertices(10, random.Random(seed), etype)
                    for c in copies
                ]
                assert seeds[1] == seeds[0] and seeds[2] == seeds[0]
        assert [c.etypes() for c in copies] == [[0, 1, 2]] * 3
        keys = [[key for key, _ in c.iter_trees()] for c in copies]
        assert keys[0] == sorted(keys[0]) and keys[1] == keys[2] == keys[0]

    def test_sample_vertices_weights_by_degree_in_one_gather(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=4))
        store.add_edge(5, 1)
        store.add_edge(5, 2)
        for d in range(12):  # promoted: a samtree's degree
            store.add_edge(2, d)
        draws = store.sample_vertices(7000, random.Random(1))
        assert set(draws) == {2, 5}
        assert 5.0 < draws.count(2) / draws.count(5) < 7.2
