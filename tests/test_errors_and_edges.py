"""Exception-hierarchy guarantees and cross-module edge cases."""

from __future__ import annotations

import random

import pytest

import repro
from repro.baselines import AliGraphStore, PlatoGLStore, StaticCSRStore
from repro.core.compression import MAX_ID
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.topology import DynamicGraphStore
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
from repro.gnn.samplers import sample_subgraph


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
        """A samtree holds 64-bit ids; the store's domain is the int64
        half its columns, WAL and checkpoints hold: it takes ids up to
        ``2**63 - 1`` and refuses the rest."""
        store = DynamicGraphStore(SamtreeConfig(capacity=4))
        ids = [0, 1, 2**32, 2**40 + 7, 2**63 - 1]
        for i, v in enumerate(ids):
            store.add_edge(v, ids[(i + 1) % len(ids)], 1.0)
        assert store.num_edges == len(ids)
        for src, dst in ((MAX_ID, 1), (1, MAX_ID)):
            with pytest.raises(InvalidWeightError):
                store.add_edge(src, dst, 1.0)
        assert store.num_edges == len(ids)
        store.check_invariants()


@pytest.mark.parametrize("src", [1, 99], ids=["present", "absent"])
@pytest.mark.parametrize(
    "make", [PlatoGLStore, StaticCSRStore, AliGraphStore],
    ids=["platogl", "static_csr", "aligraph"],
)
def test_a_baseline_refuses_a_negative_sample_count(make, src):
    """The baselines keep the store's contract for ``k < 0``: a scalar
    draw raises whether the source is present or not, so a subgraph at
    a negative fan-out is an error, not an empty sample."""
    store = make()
    for dst in range(3):
        store.add_edge(1, dst, 1.0)
    with pytest.raises(ConfigurationError, match="sample count"):
        store.sample_neighbors(src, -1, 0)
    with pytest.raises(ConfigurationError, match="sample count"):
        sample_subgraph(store, src, [-1])
    assert store.sample_neighbors(src, 0, 0) == []


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
