"""Tests for the PlatoGL and AliGraph baseline reimplementations."""

from __future__ import annotations

import random

import pytest

from repro.baselines.aligraph import AliasTable, AliGraphStore
from repro.baselines.platogl import PlatoGLStore
from repro.core.memory import (
    ALIGRAPH_BUILD_PEAK_FACTOR,
    ALIGRAPH_DUPLICATION_FACTOR,
    ID_BYTES,
    WEIGHT_BYTES,
)
from repro.errors import ConfigurationError, EmptyStructureError


class TestPlatoGL:
    def test_block_overflow_creates_new_block(self):
        store = PlatoGLStore(block_size=4)
        for i in range(10):
            store.add_edge(1, i, 1.0)
        assert store.degree(1) == 10
        # 10 neighbors at block size 4 → 3 blocks behind the KV store.
        head = store._head(1, 0)
        assert head.num_blocks == 3

    def test_overwrite_semantics(self):
        store = PlatoGLStore(block_size=4)
        assert store.add_edge(1, 2, 1.0) is True
        assert store.add_edge(1, 2, 5.0) is False
        assert store.edge_weight(1, 2) == pytest.approx(5.0)

    def test_update_and_delete_across_blocks(self):
        store = PlatoGLStore(block_size=3)
        for i in range(9):
            store.add_edge(1, i, float(i + 1))
        assert store.update_edge(1, 7, 99.0) is True
        assert store.edge_weight(1, 7) == pytest.approx(99.0)
        assert store.remove_edge(1, 4) is True
        assert store.edge_weight(1, 4) is None
        assert store.degree(1) == 8
        assert store.update_edge(1, 4, 1.0) is False
        assert store.remove_edge(1, 4) is False

    def test_empty_source_cleanup(self):
        store = PlatoGLStore(block_size=2)
        for i in range(5):
            store.add_edge(3, i)
        for i in range(5):
            store.remove_edge(3, i)
        assert store.num_sources == 0
        assert store.num_edges == 0
        assert store.neighbors(3) == []

    def test_its_distribution_across_blocks(self):
        store = PlatoGLStore(block_size=3)  # force multiple blocks
        weights = {i: float(i % 4 + 1) for i in range(12)}
        for dst, w in weights.items():
            store.add_edge(1, dst, w)
        total = sum(weights.values())
        r = random.Random(0)
        out = store.sample_neighbors(1, 40000, r)
        for klass in range(4):
            expect = sum(w for d, w in weights.items() if d % 4 == klass) / total
            got = sum(1 for d in out if d % 4 == klass) / len(out)
            assert got == pytest.approx(expect, abs=0.02)

    def test_sampling_missing_source(self):
        assert PlatoGLStore().sample_neighbors(9, 5) == []

    def test_zero_weight_source_raises(self):
        store = PlatoGLStore()
        store.add_edge(1, 2, 0.0)
        with pytest.raises(EmptyStructureError):
            store.sample_neighbors(1, 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlatoGLStore(block_size=0)

    def test_heterogeneous(self):
        store = PlatoGLStore(block_size=4)
        store.add_edge(1, 2, 1.0, etype=0)
        store.add_edge(1, 2, 2.0, etype=1)
        assert store.edge_weight(1, 2, etype=0) == pytest.approx(1.0)
        assert store.edge_weight(1, 2, etype=1) == pytest.approx(2.0)
        assert sorted(store.sources(etype=1)) == [1]

    def test_preallocated_block_accounting(self):
        """A partially filled block pays its full capacity (Table IV's
        mechanism for PlatoGL's footprint at low density)."""
        sparse = PlatoGLStore(block_size=128)
        sparse.add_edge(1, 2, 1.0)
        dense = PlatoGLStore(block_size=128)
        for i in range(128):
            dense.add_edge(1, i, 1.0)
        # Same block count → the 1-edge source pays most of the dense
        # source's footprint (only the CSTable scales with fill).
        assert sparse.nbytes() >= 0.6 * dense.nbytes()


class TestAliasTable:
    def test_distribution(self):
        table = AliasTable([1.0, 3.0, 6.0])
        r = random.Random(1)
        counts = [0, 0, 0]
        for _ in range(30000):
            counts[table.sample(r)] += 1
        assert counts[0] / 30000 == pytest.approx(0.1, abs=0.02)
        assert counts[2] / 30000 == pytest.approx(0.6, abs=0.02)

    def test_zero_weights_uniform(self):
        table = AliasTable([0.0, 0.0])
        r = random.Random(2)
        assert {table.sample(r) for _ in range(50)} == {0, 1}

    def test_empty_raises(self):
        with pytest.raises(EmptyStructureError):
            AliasTable([]).sample()

    def test_single_element(self):
        assert AliasTable([5.0]).sample(random.Random(3)) == 0


class TestAliGraph:
    def test_crud(self):
        store = AliGraphStore()
        assert store.add_edge(1, 2, 1.0) is True
        assert store.add_edge(1, 2, 3.0) is False
        assert store.edge_weight(1, 2) == pytest.approx(3.0)
        assert store.update_edge(1, 2, 4.0) is True
        assert store.update_edge(1, 9, 4.0) is False
        assert store.remove_edge(1, 2) is True
        assert store.remove_edge(1, 2) is False
        assert store.num_sources == 0

    def test_alias_rebuilt_on_update(self):
        store = AliGraphStore()
        store.add_edge(1, 10, 1.0)
        store.add_edge(1, 20, 1.0)
        store.update_edge(1, 20, 99.0)
        out = store.sample_neighbors(1, 2000, random.Random(4))
        assert out.count(20) / 2000 > 0.95

    def test_swap_delete_keeps_index_consistent(self):
        store = AliGraphStore()
        for i in range(10):
            store.add_edge(1, i, float(i + 1))
        store.remove_edge(1, 0)  # last element swaps into slot 0
        assert store.edge_weight(1, 9) == pytest.approx(10.0)
        assert store.degree(1) == 9
        assert dict(store.neighbors(1)) == pytest.approx(
            {i: float(i + 1) for i in range(1, 10)}
        )

    def test_peak_exceeds_steady(self):
        store = AliGraphStore()
        for i in range(100):
            store.add_edge(i % 5, i, 1.0)
        assert store.peak_nbytes() == int(
            store.nbytes() * ALIGRAPH_BUILD_PEAK_FACTOR
        )
        assert store.peak_nbytes() > store.nbytes()

    def test_duplication_factor_in_accounting(self):
        store = AliGraphStore()
        for i in range(1000):
            store.add_edge(1, i, 1.0)
        per_edge = store.nbytes() / 1000
        floor = ALIGRAPH_DUPLICATION_FACTOR * (ID_BYTES + WEIGHT_BYTES)
        assert per_edge > floor
