"""PALM-style batch latch-free concurrent updates (paper §VI-B, Fig. 12).

The paper adapts the PALM tree's multi-threaded scheme [27] to samtrees:
instead of latching every node on an update path, a *batch* of updates
(an :class:`~repro.core.ingest.EdgeBatch`) is

1. **sorted by source key** — one stable sort by ``(etype, src)``
   makes the updates to one samtree a contiguous group, in submission
   order (so ``insert(e); delete(e)`` in one batch still nets out to a
   deletion);
2. **partitioned across threads** with a greedy longest-processing-time
   assignment of whole groups (:func:`partition_groups`), so each
   samtree is owned by exactly one thread — latch-free by construction:
   threads share no tree; the store's small sources are rows of one slab
   whose two arenas a relocation moves, so ``apply_source_batch`` on a
   row holds the slab's lock — and per-thread op counts stay balanced
   even when a few hub vertices hold most of the batch;
3. **applied bottom-up inside each tree**: the leaf modifications
   first, then the CSTable refreshes propagate towards the root in
   rounds (:mod:`repro.core.tree_batch`).

Two execution back-ends are provided:

``simulate=False``
    A real ``ThreadPoolExecutor`` applies per-thread group lists
    concurrently.  Because CPython's GIL serialises pure-Python CPU
    work, this back-end demonstrates *correctness* of the latch-free
    partitioning (no torn trees, deterministic results) but not speed-up.

``simulate=True``
    The deterministic **makespan model**: the same partitioning is
    executed serially while metering each thread's assigned work; the
    reported batch latency is ``max(per-thread time)``.  This is the
    quantity the paper's Figure 11(c) plots — the critical path of the
    partitioned batch — and is the documented substitution for the GIL
    (see DESIGN.md).  Both back-ends run byte-identical batching code.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.ingest import EdgeBatch
from repro.core.topology import DynamicGraphStore
from repro.core.types import lexsort_rows
from repro.errors import ConfigurationError

__all__ = ["BatchResult", "PalmExecutor", "partition_groups"]


def partition_groups(
    lengths: Sequence[int], num_threads: int
) -> List[List[int]]:
    """Assign groups of ``lengths`` ops to ``num_threads`` threads,
    longest first onto the least-loaded thread (LPT greedy).

    Returns one list of group indices per thread (some possibly empty).
    A group is never split: a tree belongs to exactly one thread, which
    is the latch-free guarantee.
    """
    if num_threads < 1:
        raise ConfigurationError(
            f"num_threads must be >= 1, got {num_threads}"
        )
    assignments: List[List[int]] = [[] for _ in range(num_threads)]
    heap = [(0, t) for t in range(num_threads)]
    for g in sorted(range(len(lengths)), key=lambda i: -lengths[i]):
        load, t = heapq.heappop(heap)
        assignments[t].append(g)
        heapq.heappush(heap, (load + lengths[g], t))
    return assignments


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
    """Applies :class:`~repro.core.ingest.EdgeBatch` batches to a
    :class:`DynamicGraphStore` with the paper's sort → partition →
    latch-free-apply scheme.

    Parameters
    ----------
    store:
        The samtree store to mutate.
    num_threads:
        Worker count (paper Figure 11c sweeps 1–32).
    simulate:
        Use the makespan model instead of real threads (see module docs).
    """

    def __init__(
        self,
        store: DynamicGraphStore,
        num_threads: int = 4,
        simulate: bool = False,
    ) -> None:
        if num_threads < 1:
            raise ConfigurationError(
                f"num_threads must be >= 1, got {num_threads}"
            )
        self.store = store
        self.num_threads = num_threads
        self.simulate = simulate

    def apply_batch(self, batch: EdgeBatch) -> BatchResult:
        """Apply one batch; returns per-batch timing and the op outcomes
        in submission order.  The batch was validated when it was built,
        so a refused row never reaches the store."""
        order = lexsort_rows(batch.etype, batch.src)
        rows = batch.select(order)
        bounds = rows.tree_bounds().tolist()
        srcs, etypes = rows.src.tolist(), rows.etype.tolist()
        cols = (rows.dst.tolist(), rows.op.tolist(), rows.weight.tolist())
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
        assignments = partition_groups(lengths, self.num_threads)
        results: List[List[bool]] = [[]] * len(lengths)
        apply_source_batch = self.store.apply_source_batch

        def run(groups: List[int]) -> None:
            for g in groups:
                a, b = bounds[g], bounds[g + 1]
                results[g] = apply_source_batch(
                    srcs[a], etypes[a], *(col[a:b] for col in cols)
                )

        thread_times: List[float] = []
        if self.simulate:
            for groups in assignments:
                start = time.perf_counter()
                run(groups)
                thread_times.append(time.perf_counter() - start)
            elapsed = max(thread_times)
        else:
            start = time.perf_counter()
            busy = [groups for groups in assignments if groups]
            if len(busy) > 1:
                with ThreadPoolExecutor(max_workers=len(busy)) as pool:
                    list(pool.map(run, busy))
            else:
                for groups in busy:
                    run(groups)
            elapsed = time.perf_counter() - start
        # Scatter the outcomes, grouped in sorted order, back through it.
        outcomes = np.zeros(len(batch), dtype=bool)
        outcomes[order] = [done for group in results for done in group]
        return BatchResult(
            num_ops=len(batch),
            num_groups=len(lengths),
            num_threads=self.num_threads,
            elapsed=elapsed,
            thread_times=thread_times,
            outcomes=outcomes.tolist(),
        )
