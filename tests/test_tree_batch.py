"""Tests for intra-tree batch updates (paper Appendix B rounds)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency.palm import PalmExecutor
from repro.core.ingest import EdgeBatch
from repro.core.samtree import Samtree, SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import OP_DELETE, OP_INSERT, OP_UPDATE
from tests.conftest import tree_batch


def sequential_apply(tree: Samtree, ops):
    outcomes = []
    for code, vid, w in ops:
        if code == OP_INSERT:
            outcomes.append(tree.insert(vid, w))
        elif code == OP_UPDATE:
            present = vid in tree
            if present:
                tree.insert(vid, w)
            outcomes.append(present)
        else:
            outcomes.append(tree.delete(vid))
    return outcomes


class TestBasics:
    def test_empty_batch(self):
        tree = Samtree(SamtreeConfig(capacity=4))
        assert tree_batch(tree, []) == []

    def test_outcome_semantics(self):
        tree = Samtree(SamtreeConfig(capacity=4))
        out = tree_batch(
            tree,
            [
                (OP_INSERT, 1, 1.0),   # new -> True
                (OP_INSERT, 1, 2.0),   # overwrite -> False
                (OP_UPDATE, 2, 1.0),   # missing -> False
                (OP_UPDATE, 1, 3.0),   # present -> True
                (OP_DELETE, 1, 0.0),   # present -> True
                (OP_DELETE, 1, 0.0),   # gone -> False
            ]
        )
        assert out == [True, False, False, True, True, False]
        assert tree.degree == 0

    def test_mass_insert_multi_split(self):
        """One batch can force a leaf to split several times."""
        tree = Samtree(SamtreeConfig(capacity=4))
        ops = [(OP_INSERT, v, 1.0) for v in range(200)]
        out = tree_batch(tree, ops)
        assert all(out)
        tree.check_invariants()
        assert tree.degree == 200
        assert tree.height >= 3

    def test_mass_delete_collapses(self):
        tree = Samtree(SamtreeConfig(capacity=4))
        tree_batch(tree, [(OP_INSERT, v, 1.0) for v in range(200)])
        out = tree_batch(tree, [(OP_DELETE, v, 0.0) for v in range(200)])
        assert all(out)
        tree.check_invariants()
        assert tree.degree == 0
        assert tree.height == 1

    def test_mixed_batch_on_preloaded_tree(self):
        tree = Samtree(SamtreeConfig(capacity=8))
        for v in range(100):
            tree.insert(v, 1.0)
        tree_batch(
            tree,
            [(OP_DELETE, v, 0.0) for v in range(0, 100, 2)]
            + [(OP_INSERT, 1000 + v, 2.0) for v in range(30)]
            + [(OP_UPDATE, 1, 9.0, )]
        )
        tree.check_invariants()
        assert tree.degree == 50 + 30
        assert tree.get_weight(1) == pytest.approx(9.0)
        assert tree.get_weight(0) is None


class TestDecorativeKeyRegression:
    """A node's keys[0] is decorative (routing clamps to child 0), so a
    child-0 split must not place its exact pivot after the inherited
    decorative key.  Regression for a separator-ordering corruption found
    by adversarial fuzzing (round 8 of seed 5)."""

    def test_adversarial_rounds_stay_consistent(self):
        rng = random.Random(5)
        tree = Samtree(SamtreeConfig(capacity=4, alpha=1))
        live = {}
        for _ in range(20):
            ops = []
            for _ in range(200):
                dst = rng.randrange(300)
                if rng.random() < 0.55:
                    w = rng.random() + 0.01
                    ops.append((OP_INSERT, dst, w))
                    live[dst] = w
                else:
                    ops.append((OP_DELETE, dst, 0.0))
                    live.pop(dst, None)
            tree_batch(tree, ops)
            tree.check_invariants()
        assert tree.to_dict().keys() == live.keys()

    def test_decorative_root_key_then_batch_split(self):
        """Force the exact shape: collapse leaves a root whose keys[0]
        exceeds child 0's minimum, then a batch splits child 0."""
        tree = Samtree(SamtreeConfig(capacity=4))
        # Build height 3, then delete the left side so the root collapses
        # to a former right-half node (its keys[0] is an old pivot).
        for v in range(0, 120, 2):
            tree.insert(v, 1.0)
        for v in range(0, 60, 2):
            tree.delete(v)
        # Insert values below the (possibly decorative) smallest key via
        # one batch large enough to split child 0 repeatedly.
        tree_batch(tree, [(OP_INSERT, v, 1.0) for v in range(1, 59, 2)])
        tree.check_invariants()
        expected = set(range(60, 120, 2)) | set(range(1, 59, 2))
        assert set(tree.neighbors()) == expected


ops_st = st.lists(
    st.tuples(
        st.sampled_from([OP_INSERT, OP_INSERT, OP_UPDATE, OP_DELETE]),
        st.integers(min_value=0, max_value=250),
        st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=300,
)


@given(ops_st, st.sampled_from([4, 8, 16]), st.integers(min_value=0, max_value=3))
@settings(max_examples=100, deadline=None)
def test_batch_equals_sequential(ops, capacity, alpha):
    """A tree batch ≡ sequential op application (outcomes + final state)."""
    seq = Samtree(SamtreeConfig(capacity=capacity, alpha=alpha))
    bat = Samtree(SamtreeConfig(capacity=capacity, alpha=alpha))
    out_b = tree_batch(bat, ops)
    out_s = sequential_apply(seq, ops)
    assert out_b == out_s
    bat.check_invariants()
    bd, sd = bat.to_dict(), seq.to_dict()
    assert bd.keys() == sd.keys()
    for k in sd:
        assert bd[k] == pytest.approx(sd[k])


@given(ops_st)
@settings(max_examples=50, deadline=None)
def test_batch_on_preloaded_tree(ops):
    seq = Samtree(SamtreeConfig(capacity=8))
    bat = Samtree(SamtreeConfig(capacity=8))
    for v in range(0, 250, 3):
        seq.insert(v, 0.5)
        bat.insert(v, 0.5)
    assert tree_batch(bat, ops) == sequential_apply(seq, ops)
    bat.check_invariants()
    assert bat.to_dict().keys() == seq.to_dict().keys()


class TestStoreIntegration:
    def test_apply_source_batch_counters(self):
        store = DynamicGraphStore(SamtreeConfig(capacity=8))
        out = store.apply_source_batch(
            5, 0, [1, 2, 1], [OP_INSERT, OP_INSERT, OP_DELETE], [1.0, 1.0, 0.0]
        )
        assert out == [True, True, True]
        assert store.num_edges == 1
        assert store.degree(5) == 1

    def test_apply_source_batch_no_tree_creation_for_updates(self):
        store = DynamicGraphStore()
        out = store.apply_source_batch(
            5, 0, [1, 2], [OP_UPDATE, OP_DELETE], [1.0, 0.0]
        )
        assert out == [False, False]
        assert store.num_sources == 0

    def test_apply_source_batch_drops_empty_tree(self):
        store = DynamicGraphStore()
        store.add_edge(5, 1, 1.0)
        store.apply_source_batch(5, 0, [1], [OP_DELETE], [0.0])
        assert store.num_sources == 0
        assert store.num_edges == 0

    def test_palm_backends_agree(self):
        """PALM's per-tree rounds against the per-op reference."""
        rng = random.Random(1)
        n = 3000
        src = [rng.randrange(15) for _ in range(n)]
        dst = [rng.randrange(200) for _ in range(n)]
        op = [OP_INSERT if rng.random() < 0.7 else OP_DELETE for _ in range(n)]
        weight = [round(rng.random(), 4) for _ in range(n)]
        batched = DynamicGraphStore(SamtreeConfig(capacity=8))
        per_op = DynamicGraphStore(SamtreeConfig(capacity=8))
        result = PalmExecutor(batched, 4).apply_batch(
            EdgeBatch(src, dst, weight, 0, op)
        )
        want = [
            per_op.write_op(c, s, d, w, 0)
            for s, d, w, c in zip(src, dst, weight, op)
        ]
        assert result.outcomes == want
        assert batched.num_edges == per_op.num_edges
        batched.check_invariants()
        for s in range(15):
            assert dict(batched.neighbors(s)) == dict(per_op.neighbors(s))
