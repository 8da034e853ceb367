"""Tests for the PALM-style batch latch-free executor (paper §VI-B)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency.palm import PalmExecutor, partition_groups
from repro.core.ingest import EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import OP_DELETE, OP_INSERT, OP_UPDATE
from repro.errors import ConfigurationError, InvalidWeightError
from tests.conftest import stores_equal


def _batch(rows) -> EdgeBatch:
    """An ``EdgeBatch`` of ``(code, src, dst, weight[, etype])`` rows."""
    rows = [row + (0,) * (5 - len(row)) for row in rows]
    code, src, dst, weight, etype = (list(col) for col in zip(*rows))
    return EdgeBatch(src, dst, weight, etype, code)


def _replay(store, batch: EdgeBatch):
    """The per-op reference: every row through ``write_op``, in order."""
    return [
        store.write_op(c, s, d, w, e)
        for c, s, d, w, e in zip(
            batch.op.tolist(), batch.src.tolist(), batch.dst.tolist(),
            batch.weight.tolist(), batch.etype.tolist(),
        )
    ]


def _adjacency(store):
    return {
        (et, src): dict(store.neighbors(src, et))
        for et in (0, 5)
        for src in store.sources(et)
    }


class TestBatching:
    def test_sort_is_stable_per_key(self):
        """The sort by source is stable: insert → delete → insert of one
        edge in one batch leaves the last insert."""
        store = DynamicGraphStore()
        result = PalmExecutor(store, num_threads=2).apply_batch(_batch([
            (OP_INSERT, 2, 1, 1.0),
            (OP_INSERT, 1, 5, 1.0),
            (OP_DELETE, 1, 5, 0.0),
            (OP_INSERT, 1, 5, 3.0),
        ]))
        assert result.outcomes == [True, True, True, True]
        assert store.neighbors(1) == [(5, 3.0)]

    def test_group_batch(self):
        result = PalmExecutor(DynamicGraphStore(), 3).apply_batch(_batch([
            (OP_INSERT, 1, 2, 1.0),
            (OP_INSERT, 2, 3, 1.0),
            (OP_INSERT, 1, 4, 1.0),
            (OP_INSERT, 1, 2, 2.0, 5),
        ]))
        assert result.num_groups == 3  # (0, 1), (0, 2), (5, 1)

    def test_partition_balances_loads(self):
        lengths = list(range(1, 11))
        assignments = partition_groups(lengths, 3)
        loads = [sum(lengths[g] for g in a) for a in assignments]
        assert sum(loads) == sum(lengths)
        assert max(loads) - min(loads) <= max(lengths)
        assert sorted(g for a in assignments for g in a) == list(range(10))

    def test_partition_never_splits_groups(self):
        assignments = partition_groups([100], 8)
        non_empty = [a for a in assignments if a]
        assert non_empty == [[0]]  # one tree → one thread

    def test_partition_validation(self):
        with pytest.raises(ConfigurationError):
            partition_groups([], 0)

    def test_partition_empty(self):
        assert partition_groups([], 4) == [[], [], [], []]


class TestPalmExecutor:
    def _ops(self, seed, n=1500) -> EdgeBatch:
        r = random.Random(seed)
        rows = []
        for _ in range(n):
            src, dst = r.randrange(25), r.randrange(120)
            if r.random() < 0.7:
                rows.append((OP_INSERT, src, dst, round(r.random(), 3)))
            else:
                rows.append((OP_DELETE, src, dst, 0.0))
        return _batch(rows)

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    @pytest.mark.parametrize("simulate", [False, True])
    def test_matches_sequential(self, threads, simulate):
        batch = self._ops(42)
        seq = DynamicGraphStore(SamtreeConfig(capacity=8))
        want = _replay(seq, batch)
        par = DynamicGraphStore(SamtreeConfig(capacity=8))
        executor = PalmExecutor(par, num_threads=threads, simulate=simulate)
        result = executor.apply_batch(batch)
        assert result.num_ops == len(batch)
        assert result.outcomes == want
        assert par.num_edges == seq.num_edges
        assert stores_equal(par, seq)
        par.check_invariants()

    def test_outcomes_in_submission_order(self):
        store = DynamicGraphStore()
        executor = PalmExecutor(store, num_threads=2)
        result = executor.apply_batch(_batch([
            (OP_INSERT, 1, 2, 1.0),
            (OP_INSERT, 1, 2, 2.0),  # duplicate → False
            (OP_DELETE, 1, 3, 0.0),  # missing → False
            (OP_INSERT, 2, 9, 1.0),
        ]))
        assert result.outcomes == [True, False, False, True]

    def test_simulate_reports_thread_times(self):
        store = DynamicGraphStore()
        executor = PalmExecutor(store, num_threads=4, simulate=True)
        result = executor.apply_batch(self._ops(7, n=400))
        assert len(result.thread_times) == 4
        assert result.makespan == max(result.thread_times)

    def test_makespan_improves_with_threads(self):
        """The partitioned critical path shrinks as threads grow — the
        trend of paper Figure 11(c)."""
        batch = self._ops(3, n=4000)
        times = {}
        for threads in (1, 8):
            store = DynamicGraphStore(SamtreeConfig(capacity=64))
            executor = PalmExecutor(store, num_threads=threads, simulate=True)
            times[threads] = executor.apply_batch(batch).makespan
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
                rows = []
                for _ in range(4000):
                    src, dst = r.randrange(64), r.randrange(200)
                    if r.random() < 0.7:
                        rows.append((OP_INSERT, src, dst, 1.0 + dst))
                    else:
                        rows.append((OP_DELETE, src, dst, 0.0))
                batch = _batch(rows)
                PalmExecutor(store, num_threads=8).apply_batch(batch)
                cache = store.snapshot_cache
                for src in set(batch.src.tolist()):
                    assert (0, src) not in cache
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
            rows = []
            ref = set()
            for _ in range(8000):
                src, dst = r.randrange(64), r.randrange(200)
                if r.random() < 0.7:
                    rows.append((OP_INSERT, src, dst, 1.0))
                    ref.add((src, dst))
                else:
                    rows.append((OP_DELETE, src, dst, 0.0))
                    ref.discard((src, dst))
            PalmExecutor(store, num_threads=8).apply_batch(_batch(rows))
            assert store.num_edges == len(ref)
            store.check_invariants()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PalmExecutor(DynamicGraphStore(), num_threads=0)

    def test_empty_batch(self):
        for simulate in (False, True):
            executor = PalmExecutor(DynamicGraphStore(), 4, simulate=simulate)
            result = executor.apply_batch(EdgeBatch([], []))
            assert result.num_ops == 0
            assert result.num_groups == 0
            assert result.outcomes == []

    @pytest.mark.parametrize("simulate", [False, True])
    def test_a_refused_batch_writes_nothing(self, simulate):
        """A bad row anywhere refuses the whole batch before any tree is
        touched: the batch is checked once, when it is built."""
        store = DynamicGraphStore(SamtreeConfig(capacity=4))
        store.add_edge(1, 9, 0.5)
        before = _adjacency(store)
        executor = PalmExecutor(store, 1, simulate=simulate)
        with pytest.raises(InvalidWeightError):
            executor.apply_batch(EdgeBatch(
                [1, 1, 9], [2, 3, 4], [1.0, 1.0, float("nan")]
            ))
        assert store.num_edges == 1
        assert _adjacency(store) == before
        store.check_invariants()


_rows = st.lists(
    st.tuples(
        st.sampled_from([OP_INSERT, OP_INSERT, OP_UPDATE, OP_DELETE]),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=12),
        st.sampled_from([0.0, 0.25, 1.0, 2.5]),
        st.sampled_from([0, 5]),
    ),
    min_size=0,
    max_size=150,
)


@given(
    st.lists(_rows, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.sampled_from([4, 16]),
)
@settings(max_examples=80, deadline=None)
def test_property_batch_equals_sequential(
    batches, threads, simulate, capacity
):
    """Random mixed batches (small id ranges, so keys repeat within and
    across batches) through PALM leave what a sequential ``write_op``
    replay reports and what ``apply_edge_batch`` leaves on a twin."""
    config = SamtreeConfig(capacity=capacity)
    par, seq, bulk = (DynamicGraphStore(config) for _ in range(3))
    executor = PalmExecutor(par, num_threads=threads, simulate=simulate)
    for rows in batches:
        batch = _batch(rows) if rows else EdgeBatch([], [])
        want = _replay(seq, batch)
        assert executor.apply_batch(batch).outcomes == want
        bulk.apply_edge_batch(batch)
        assert par.num_edges == bulk.num_edges == seq.num_edges
        assert _adjacency(par) == _adjacency(bulk) == _adjacency(seq)
        par.check_invariants()

