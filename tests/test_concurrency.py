"""Tests for the PALM-style batch latch-free executor (paper §VI-B)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency.batch import group_batch, partition_groups, sort_batch
from repro.concurrency.palm import PalmExecutor
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import EdgeOp
from repro.errors import ConfigurationError


class TestBatching:
    def test_sort_is_stable_per_key(self):
        ops = [
            EdgeOp.insert(2, 1, 1.0),
            EdgeOp.insert(1, 5, 1.0),
            EdgeOp.delete(1, 5),
            EdgeOp.insert(1, 6, 1.0),
        ]
        ordered = sort_batch(ops)
        assert [op.src for op in ordered] == [1, 1, 1, 2]
        # Same-source ops keep submission order: insert → delete → insert.
        same = [op for op in ordered if op.src == 1]
        assert same == ops[1:]

    def test_group_batch(self):
        ops = [
            EdgeOp.insert(1, 2, 1.0),
            EdgeOp.insert(2, 3, 1.0),
            EdgeOp.insert(1, 4, 1.0),
            EdgeOp.insert(1, 2, 2.0, etype=5),
        ]
        groups = group_batch(ops)
        keys = [g.key for g in groups]
        assert keys == [(0, 1), (0, 2), (5, 1)]
        assert len(groups[0]) == 2

    def test_partition_balances_loads(self):
        ops = []
        for src in range(10):
            ops.extend(EdgeOp.insert(src, d, 1.0) for d in range(src + 1))
        groups = group_batch(ops)
        assignments = partition_groups(groups, 3)
        loads = [sum(len(g) for g in a) for a in assignments]
        assert sum(loads) == len(ops)
        assert max(loads) - min(loads) <= max(len(g) for g in groups)

    def test_partition_never_splits_groups(self):
        ops = [EdgeOp.insert(1, d, 1.0) for d in range(100)]
        assignments = partition_groups(group_batch(ops), 8)
        non_empty = [a for a in assignments if a]
        assert len(non_empty) == 1  # one tree → one thread

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError):
            partition_groups([], 0)

    def test_partition_empty(self):
        assert partition_groups([], 4) == [[], [], [], []]


class TestPalmExecutor:
    def _ops(self, seed, n=1500):
        r = random.Random(seed)
        ops = []
        for _ in range(n):
            src, dst = r.randrange(25), r.randrange(120)
            if r.random() < 0.7:
                ops.append(EdgeOp.insert(src, dst, round(r.random(), 3)))
            else:
                ops.append(EdgeOp.delete(src, dst))
        return ops

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    @pytest.mark.parametrize("simulate", [False, True])
    def test_matches_sequential(self, threads, simulate):
        ops = self._ops(42)
        seq = DynamicGraphStore(SamtreeConfig(capacity=8))
        for op in ops:
            seq.apply(op)
        par = DynamicGraphStore(SamtreeConfig(capacity=8))
        executor = PalmExecutor(par, num_threads=threads, simulate=simulate)
        result = executor.apply_batch(ops)
        assert result.num_ops == len(ops)
        assert par.num_edges == seq.num_edges
        for src in range(25):
            assert dict(par.neighbors(src)) == pytest.approx(
                dict(seq.neighbors(src))
            )
        par.check_invariants()

    def test_outcomes_in_submission_order(self):
        store = DynamicGraphStore()
        executor = PalmExecutor(store, num_threads=2)
        ops = [
            EdgeOp.insert(1, 2, 1.0),
            EdgeOp.insert(1, 2, 2.0),  # duplicate → False
            EdgeOp.delete(1, 3),       # missing → False
            EdgeOp.insert(2, 9, 1.0),
        ]
        result = executor.apply_batch(ops)
        assert result.outcomes == [True, False, False, True]

    def test_simulate_reports_thread_times(self):
        store = DynamicGraphStore()
        executor = PalmExecutor(
            store, num_threads=4, simulate=True, sync_overhead=0.001
        )
        result = executor.apply_batch(self._ops(7, n=400))
        assert len(result.thread_times) == 4
        assert result.makespan >= max(result.thread_times)
        assert result.makespan >= 0.001

    def test_makespan_improves_with_threads(self):
        """The partitioned critical path shrinks as threads grow — the
        trend of paper Figure 11(c)."""
        ops = self._ops(3, n=4000)
        times = {}
        for threads in (1, 8):
            store = DynamicGraphStore(SamtreeConfig(capacity=64))
            executor = PalmExecutor(store, num_threads=threads, simulate=True)
            times[threads] = executor.apply_batch(ops).makespan
        assert times[8] < times[1]

    def test_dirty_bits_survive_thread_races(self):
        """The read image's dirty mark runs on the worker threads (a dict
        read and a flag store per op): no written row may stay clean, or
        the batched read below would serve a pre-batch adjacency."""
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(3):
                store = DynamicGraphStore(SamtreeConfig(capacity=16))
                r = random.Random(trial)
                for src in range(64):
                    store.add_edge(src, 500, 1.0)
                frontier = list(range(64))
                store.sample_neighbors_many(frontier, 2, rng=0)  # image all rows
                ops = []
                for _ in range(4000):
                    src, dst = r.randrange(64), r.randrange(200)
                    if r.random() < 0.7:
                        ops.append(EdgeOp.insert(src, dst, 1.0 + dst))
                    else:
                        ops.append(EdgeOp.delete(src, dst))
                PalmExecutor(store, num_threads=8).apply_batch(ops)
                written = {op.src for op in ops}
                cache = store.snapshot_cache
                assert not any((0, src) in cache for src in written)
                block = store.sample_neighbors_many(frontier, 8, rng=1)
                for src, row in zip(frontier, block.ids.tolist()):
                    assert set(row) <= {d for d, _ in store.neighbors(src)}
                store.check_invariants()
        finally:
            sys.setswitchinterval(interval)

    def test_edge_counter_survives_thread_races(self):
        """Regression: `_num_edges += d` from concurrent worker threads
        must not lose updates (the counter is lock-protected)."""
        for trial in range(4):
            store = DynamicGraphStore(SamtreeConfig(capacity=16))
            r = random.Random(trial)
            ops = []
            ref = set()
            for _ in range(8000):
                src, dst = r.randrange(64), r.randrange(200)
                if r.random() < 0.7:
                    ops.append(EdgeOp.insert(src, dst, 1.0))
                    ref.add((src, dst))
                else:
                    ops.append(EdgeOp.delete(src, dst))
                    ref.discard((src, dst))
            PalmExecutor(store, num_threads=8).apply_batch(ops)
            assert store.num_edges == len(ref)
            store.check_invariants()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PalmExecutor(DynamicGraphStore(), num_threads=0)

    def test_empty_batch(self):
        executor = PalmExecutor(DynamicGraphStore(), num_threads=4)
        result = executor.apply_batch([])
        assert result.num_ops == 0
        assert result.outcomes == []


@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=10),
            st.integers(min_value=0, max_value=40),
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        ),
        min_size=1,
        max_size=150,
    ),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_property_batch_equals_sequential(raw_ops, threads):
    ops = [
        EdgeOp.insert(src, dst, w) if is_insert else EdgeOp.delete(src, dst)
        for is_insert, src, dst, w in raw_ops
    ]
    seq = DynamicGraphStore(SamtreeConfig(capacity=4))
    for op in ops:
        seq.apply(op)
    par = DynamicGraphStore(SamtreeConfig(capacity=4))
    PalmExecutor(par, num_threads=threads).apply_batch(ops)
    assert par.num_edges == seq.num_edges
    for src in {op.src for op in ops}:
        assert dict(par.neighbors(src)) == pytest.approx(
            dict(seq.neighbors(src))
        )
