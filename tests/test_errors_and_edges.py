"""Exception-hierarchy guarantees and cross-module edge cases."""

from __future__ import annotations

import random

import pytest

import repro
from repro.baselines.platogl import PlatoGLStore
from repro.concurrency.palm import PalmExecutor
from repro.core.compression import MAX_ID
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.temporal import TemporalGraphStore
from repro.core.topology import DynamicGraphStore
from repro.core.types import EdgeOp
from repro.errors import (
    ConfigurationError,
    EmptyStructureError,
    IndexOutOfRangeError,
    InvalidWeightError,
    InvariantViolationError,
    PartitionError,
    ReproError,
    ShapeError,
    VertexNotFoundError,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            EmptyStructureError,
            IndexOutOfRangeError,
            InvalidWeightError,
            VertexNotFoundError,
                    InvariantViolationError,
            PartitionError,
            ShapeError,
            ConfigurationError,
        ):
            assert issubclass(exc, ReproError)

    def test_stdlib_compatibility(self):
        """Each error is also catchable via the natural builtin."""
        assert issubclass(EmptyStructureError, IndexError)
        assert issubclass(IndexOutOfRangeError, IndexError)
        assert issubclass(InvalidWeightError, ValueError)
        assert issubclass(VertexNotFoundError, KeyError)
        assert issubclass(InvariantViolationError, AssertionError)
        assert issubclass(ShapeError, ValueError)

    def test_one_except_clause_covers_the_library(self):
        try:
            Samtree(SamtreeConfig(capacity=1))
        except ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("expected a ReproError")

    def test_package_exports_version(self):
        assert repro.__version__


class TestExtremeIDs:
    def test_max_id_roundtrip(self):
        tree = Samtree(SamtreeConfig(capacity=4))
        tree.insert(MAX_ID, 1.0)
        tree.insert(0, 2.0)
        tree.insert(MAX_ID - 1, 3.0)
        assert tree.get_weight(MAX_ID) == pytest.approx(1.0)
        assert tree.get_weight(0) == pytest.approx(2.0)
        tree.check_invariants()

    def test_max_id_splits(self):
        tree = Samtree(SamtreeConfig(capacity=4))
        for i in range(50):
            tree.insert(MAX_ID - i, 1.0)
        tree.check_invariants()
        assert tree.degree == 50

    def test_store_with_full_64bit_ids(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=4))
        ids = [0, 1, 2**32, 2**40 + 7, MAX_ID]
        for i, v in enumerate(ids):
            store.add_edge(v, ids[(i + 1) % len(ids)], 1.0)
        assert store.num_edges == len(ids)
        store.check_invariants()


class TestZeroWeightRegimes:
    def test_all_zero_tree_operations(self, rng):
        tree = Samtree(SamtreeConfig(capacity=4))
        for v in range(20):
            tree.insert(v, 0.0)
        tree.check_invariants()
        assert tree.total_weight == 0.0
        assert tree.sample(rng) in range(20)
        out = tree.sample_many(10, rng)
        assert all(v in range(20) for v in out)

    def test_mixed_zero_and_positive(self, rng):
        tree = Samtree(SamtreeConfig(capacity=4))
        tree.insert(1, 0.0)
        tree.insert(2, 5.0)
        draws = tree.sample_many(500, rng)
        assert set(draws) == {2}

    def test_delete_zero_weight(self):
        tree = Samtree(SamtreeConfig(capacity=4))
        tree.insert(1, 0.0)
        assert tree.delete(1) is True
        assert tree.degree == 0


class TestConfigBoundaries:
    def test_minimum_capacity(self):
        tree = Samtree(SamtreeConfig(capacity=4))
        for v in range(100):
            tree.insert(v, 1.0)
        tree.check_invariants()

    def test_alpha_exceeding_capacity(self):
        """Huge slack degrades gracefully (min fill floors at 1)."""
        config = SamtreeConfig(capacity=4, alpha=1000)
        assert config.leaf_min_fill == 1
        tree = Samtree(config)
        for v in range(60):
            tree.insert(v, 1.0)
        for v in range(0, 60, 2):
            tree.delete(v)
        tree.check_invariants()

    def test_config_is_frozen(self):
        config = SamtreeConfig()
        with pytest.raises(Exception):
            config.capacity = 8  # type: ignore[misc]


class TestWrapperCompositions:
    def test_palm_over_instrumented_store(self, rng):
        """The executor falls back to per-op application on a store
        without the ``apply_source_batch`` hook and still applies
        every op."""
        store = PlatoGLStore()
        executor = PalmExecutor(store, num_threads=2)
        assert executor.tree_batching is False
        ops = [EdgeOp.insert(i % 5, i, 1.0) for i in range(100)]
        result = executor.apply_batch(ops)
        assert all(result.outcomes)
        assert store.num_edges == 100

    def test_palm_over_temporal_store(self):
        temporal = TemporalGraphStore(window=10)
        executor = PalmExecutor(temporal, num_threads=2)
        executor.apply_batch([EdgeOp.insert(1, i, 1.0) for i in range(5)])
        assert temporal.num_edges == 5
        temporal.advance(10)
        assert temporal.num_edges == 0

    def test_temporal_over_instrumented(self):
        """The window inserts into and expires from the store it wraps."""
        inner = DynamicGraphStore()
        temporal = TemporalGraphStore(window=5, store=inner)
        temporal.observe(0, 1, 2, 1.0)
        assert inner.edge_weight(1, 2) == 1.0
        temporal.advance(5)
        assert inner.num_edges == 0


class TestSamtreeDeepStructures:
    def test_three_level_deletion_cascade(self):
        """Deleting from a 3-level tree merges all the way to the root."""
        tree = Samtree(SamtreeConfig(capacity=4))
        n = 400
        for v in range(n):
            tree.insert(v, 1.0)
        assert tree.height >= 4
        r = random.Random(0)
        order = list(range(n))
        r.shuffle(order)
        for i, v in enumerate(order):
            tree.delete(v)
            if i % 97 == 0:
                tree.check_invariants()
        assert tree.degree == 0
        assert tree.height == 1

    def test_alternating_insert_delete_stays_balanced(self):
        tree = Samtree(SamtreeConfig(capacity=8))
        r = random.Random(1)
        live = set()
        for step in range(6000):
            v = r.randrange(512)
            if v in live and r.random() < 0.5:
                tree.delete(v)
                live.discard(v)
            else:
                tree.insert(v, 1.0)
                live.add(v)
        tree.check_invariants()
        # Height bounded by log_{c/2}(n) + 1 with plenty of slack.
        assert tree.height <= 5
        assert set(tree.neighbors()) == live
