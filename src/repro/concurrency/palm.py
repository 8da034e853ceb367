"""PALM-style batch latch-free concurrent updates (paper §VI-B, Fig. 12).

The paper adapts the PALM tree's multi-threaded scheme [27] to samtrees:
instead of latching every node on an update path, a *batch* of updates is

1. sorted by source-vertex ID,
2. partitioned across threads so each samtree is owned by exactly one
   thread (latch-free by construction — threads share no tree; the
   store's small sources are rows of one slab whose two arenas a
   relocation moves, so ``apply_source_batch`` on a row holds the slab's
   lock), and
3. applied bottom-up inside each tree: the leaf modifications first,
   then the CSTable refreshes propagate towards the root in rounds
   (which is what :meth:`~repro.core.samtree.Samtree.insert` already
   does per operation).

Two execution back-ends are provided:

``simulate=False``
    A real ``ThreadPoolExecutor`` applies per-thread group lists
    concurrently.  Because CPython's GIL serialises pure-Python CPU
    work, this back-end demonstrates *correctness* of the latch-free
    partitioning (no torn trees, deterministic results) but not speed-up.

``simulate=True``
    The deterministic **makespan model**: the same partitioning is
    executed serially while metering each thread's assigned work; the
    reported batch latency is ``max(per-thread time) + sync_overhead``.
    This is the quantity the paper's Figure 11(c) plots — the critical
    path of the partitioned batch — and is the documented substitution
    for the GIL (see DESIGN.md).  Both back-ends run byte-identical
    batching code.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.concurrency.batch import OpGroup, group_batch, partition_groups, sort_batch
from repro.core.topology import DynamicGraphStore
from repro.core.types import EdgeOp
from repro.errors import ConfigurationError

__all__ = ["BatchResult", "PalmExecutor"]


@dataclass
class BatchResult:
    """Outcome of one batch application."""

    num_ops: int
    num_groups: int
    num_threads: int
    #: Wall-clock (real mode) or modeled critical path (simulate mode),
    #: in seconds.
    elapsed: float
    #: Per-thread busy time in seconds (simulate mode; empty otherwise).
    thread_times: List[float] = field(default_factory=list)
    #: Results of the individual operations, in submission order.
    outcomes: List[bool] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Alias for ``elapsed`` emphasising the critical-path meaning."""
        return self.elapsed


class PalmExecutor:
    """Applies :class:`EdgeOp` batches to a :class:`DynamicGraphStore`
    with the paper's sort → partition → latch-free-apply scheme.

    Parameters
    ----------
    store:
        The samtree store to mutate.
    num_threads:
        Worker count (paper Figure 11c sweeps 1–32).
    simulate:
        Use the makespan model instead of real threads (see module docs).
    sync_overhead:
        Modeled per-batch synchronisation cost in seconds added by the
        simulate back-end (barrier + redistribution, paper Fig. 12).
    """

    def __init__(
        self,
        store: DynamicGraphStore,
        num_threads: int = 4,
        simulate: bool = False,
        sync_overhead: float = 0.0,
        tree_batching: bool = True,
    ) -> None:
        if num_threads < 1:
            raise ConfigurationError(
                f"num_threads must be >= 1, got {num_threads}"
            )
        self.store = store
        self.num_threads = num_threads
        self.simulate = simulate
        self.sync_overhead = float(sync_overhead)
        # Intra-tree bottom-up batching (paper Appendix B) when the store
        # supports it; falls back to per-op application otherwise.
        self.tree_batching = tree_batching and hasattr(
            store, "apply_source_batch"
        )

    # ------------------------------------------------------------------
    def apply_batch(self, ops: Sequence[EdgeOp]) -> BatchResult:
        """Apply one batch; returns per-batch timing and op outcomes."""
        ordered = sort_batch(ops)
        groups = group_batch(ordered)
        assignments = partition_groups(groups, self.num_threads)
        if self.simulate:
            return self._apply_simulated(ops, groups, assignments)
        return self._apply_threaded(ops, groups, assignments)

    # ------------------------------------------------------------------
    def _apply_group(self, group: OpGroup) -> List[bool]:
        store = self.store
        if self.tree_batching:
            tree_ops = [
                (op.kind.value, op.dst, op.weight) for op in group.ops
            ]
            return store.apply_source_batch(group.src, group.etype, tree_ops)
        return [store.apply(op) for op in group.ops]

    def _apply_threaded(
        self,
        ops: Sequence[EdgeOp],
        groups: List[OpGroup],
        assignments: List[List[OpGroup]],
    ) -> BatchResult:
        start = time.perf_counter()
        results: dict = {}

        def run(thread_groups: List[OpGroup]) -> None:
            for group in thread_groups:
                results[group.key] = self._apply_group(group)

        busy = [a for a in assignments if a]
        if len(busy) <= 1:
            for a in busy:
                run(a)
        else:
            with ThreadPoolExecutor(max_workers=len(busy)) as pool:
                list(pool.map(run, busy))
        elapsed = time.perf_counter() - start
        return BatchResult(
            num_ops=len(ops),
            num_groups=len(groups),
            num_threads=self.num_threads,
            elapsed=elapsed,
            outcomes=self._collect(ops, results),
        )

    def _apply_simulated(
        self,
        ops: Sequence[EdgeOp],
        groups: List[OpGroup],
        assignments: List[List[OpGroup]],
    ) -> BatchResult:
        results: dict = {}
        thread_times: List[float] = []
        for thread_groups in assignments:
            t0 = time.perf_counter()
            for group in thread_groups:
                results[group.key] = self._apply_group(group)
            thread_times.append(time.perf_counter() - t0)
        makespan = (max(thread_times) if thread_times else 0.0) + self.sync_overhead
        return BatchResult(
            num_ops=len(ops),
            num_groups=len(groups),
            num_threads=self.num_threads,
            elapsed=makespan,
            thread_times=thread_times,
            outcomes=self._collect(ops, results),
        )

    @staticmethod
    def _collect(ops: Sequence[EdgeOp], results: dict) -> List[bool]:
        """Re-assemble per-op outcomes in the original submission order."""
        cursors: dict = {}
        outcomes: List[bool] = []
        for op in ops:
            key = (op.etype, op.src)
            i = cursors.get(key, 0)
            outcomes.append(results[key][i])
            cursors[key] = i + 1
        return outcomes
