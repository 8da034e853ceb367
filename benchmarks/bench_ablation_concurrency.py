"""Ablation: the PALM-style batch executor vs naive execution.

DESIGN.md calls out two ingredients of the concurrency scheme (paper
§VI-B) worth isolating:

* **partitioning** — assigning whole trees to threads (latch-free) vs a
  single worker: the makespan model quantifies the critical-path win;
* **batch sorting** — grouping a batch per source before applying it,
  which turns scattered directory probes into per-tree runs.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.bench.report import format_table
from repro.concurrency.palm import PalmExecutor, partition_groups
from repro.core.ingest import EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import GraphStoreAPI, lexsort_rows

try:
    from conftest import BENCH_DATASETS
except ImportError:
    from benchmarks.conftest import BENCH_DATASETS


def _ops(n=2**13, seed=0) -> EdgeBatch:
    r = random.Random(seed)
    src, dst, weight = [], [], []
    for _ in range(n):
        src.append(r.randrange(256))
        dst.append(r.randrange(4096))
        weight.append(r.random() + 0.01)
    return EdgeBatch.inserts(src, dst, weight)


def _by_source(batch: EdgeBatch) -> EdgeBatch:
    """The batch stably sorted by ``(etype, src)``: PALM stage 1."""
    return batch.select(lexsort_rows(batch.etype, batch.src))


@pytest.mark.parametrize("threads", [1, 8])
def test_partitioned_makespan(benchmark, threads):
    benchmark.group = "ablation-palm-partitioning"
    ops = _ops()
    store = DynamicGraphStore(SamtreeConfig())
    executor = PalmExecutor(store, num_threads=threads, simulate=True)
    result = benchmark.pedantic(
        lambda: executor.apply_batch(ops), rounds=3, iterations=1
    )
    benchmark.extra_info["makespan"] = result.makespan


@pytest.mark.parametrize("sorted_batch", [False, True], ids=["unsorted", "sorted"])
def test_batch_sorting(benchmark, sorted_batch):
    benchmark.group = "ablation-palm-sorting"
    ops = _ops()
    if sorted_batch:
        ops = _by_source(ops)
    store = DynamicGraphStore(SamtreeConfig())

    def run():
        GraphStoreAPI.apply_edge_batch(store, ops)

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_partition_balance_property():
    """LPT assignment keeps thread loads within one group of each other."""
    lengths = np.diff(_by_source(_ops()).tree_bounds()).tolist()
    for threads in (2, 4, 8):
        loads = [
            sum(lengths[g] for g in a)
            for a in partition_groups(lengths, threads)
        ]
        assert max(loads) - min(loads) <= max(lengths)


def main() -> str:
    ops = _ops(2**14)
    rows = []
    for threads in (1, 2, 4, 8, 16):
        store = DynamicGraphStore(SamtreeConfig())
        executor = PalmExecutor(store, num_threads=threads, simulate=True)
        result = executor.apply_batch(ops)
        rows.append(
            [
                threads,
                f"{result.makespan * 1e3:.2f}ms",
                f"{sum(result.thread_times) * 1e3:.2f}ms",
            ]
        )
    table1 = format_table(
        ["threads", "makespan", "total work"],
        rows,
        title="Ablation: PALM partitioned makespan (batch 2^14)",
    )

    rows2 = []
    for label, batch in (
        ("unsorted", _ops(2**14, seed=1)),
        ("sorted", _by_source(_ops(2**14, seed=1))),
    ):
        store = DynamicGraphStore(SamtreeConfig())
        start = time.perf_counter()
        GraphStoreAPI.apply_edge_batch(store, batch)
        rows2.append([label, f"{(time.perf_counter() - start) * 1e3:.2f}ms"])
    table2 = format_table(
        ["batch order", "apply time"],
        rows2,
        title="Ablation: batch sorting (same 2^14 ops)",
    )
    return table1 + "\n\n" + table2


if __name__ == "__main__":
    print(main())
