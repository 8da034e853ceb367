"""Figure 11: parameter sensitivity of PlatoD2GL on WeChat.

(a) insertion latency vs batch size — grows with batch size, stays low;
(b) insertion latency vs samtree node capacity — 2^8 is the sweet spot;
(c) concurrent-update latency vs thread count for batch ∈ {2^12..2^14}
    — decreases as threads grow (PALM executor, makespan model);
(d) insertion latency vs α-Split slackness — larger α, faster splits.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.report import format_series, format_table
from repro.bench.workloads import make_store
from repro.concurrency.palm import PalmExecutor
from repro.core.ingest import EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import GraphStoreAPI
from repro.datasets.stream import EdgeStream

try:
    from conftest import BENCH_DATASETS
except ImportError:
    from benchmarks.conftest import BENCH_DATASETS

CAPACITIES = [2**6, 2**7, 2**8, 2**9, 2**10]
ALPHAS = [0, 2, 8, 32, 128]
THREADS = [1, 2, 4, 8, 16]
BATCHES_11C = [2**12, 2**13, 2**14]


def _wechat():
    loader, scale = BENCH_DATASETS["WeChat"]
    return loader(scale=scale)


def _insert_time(data, capacity=256, alpha=0, batch_size=4096) -> float:
    """Mean seconds per insert batch for a full dynamic build."""
    store = make_store("PlatoD2GL", capacity=capacity, alpha=alpha)
    stream = EdgeStream(data)
    batches = list(stream.build_batches(batch_size))
    start = time.perf_counter()
    for batch in batches:
        GraphStoreAPI.apply_edge_batch(store, batch)
    return (time.perf_counter() - start) / len(batches)


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("batch_size", [2**10, 2**12, 2**14])
def test_11a_insert_by_batch_size(benchmark, datasets, batch_size):
    benchmark.group = "fig11a-insert-by-batch"
    data = datasets["WeChat"]
    store = make_store("PlatoD2GL")
    stream = EdgeStream(data)
    batches = iter(stream.build_batches(batch_size))

    def run():
        batch = next(batches, None)
        if batch is None:
            return
        GraphStoreAPI.apply_edge_batch(store, batch)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("capacity", [2**6, 2**8, 2**10])
def test_11b_insert_by_capacity(benchmark, datasets, capacity):
    benchmark.group = "fig11b-insert-by-capacity"
    data = datasets["WeChat"]
    benchmark.pedantic(
        lambda: _insert_time(data, capacity=capacity),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("threads", [1, 4, 16])
def test_11c_concurrent_by_threads(benchmark, datasets, threads):
    benchmark.group = "fig11c-concurrent-by-threads"
    data = datasets["WeChat"]
    stream = EdgeStream(data)
    ops = EdgeBatch.concat(list(stream.build_batches(2**12))).select(
        slice(0, 2**12)
    )
    store = DynamicGraphStore(SamtreeConfig())
    executor = PalmExecutor(store, num_threads=threads, simulate=True)
    result = benchmark.pedantic(
        lambda: executor.apply_batch(ops), rounds=3, iterations=1
    )
    benchmark.extra_info["makespan"] = result.makespan


@pytest.mark.parametrize("alpha", [0, 8, 128])
def test_11d_insert_by_alpha(benchmark, datasets, alpha):
    benchmark.group = "fig11d-insert-by-alpha"
    data = datasets["WeChat"]
    benchmark.pedantic(
        lambda: _insert_time(data, alpha=alpha), rounds=1, iterations=1
    )


def test_11c_makespan_decreases(datasets):
    """More threads → smaller modeled critical path (Fig 11c's trend)."""
    data = datasets["WeChat"]
    stream = EdgeStream(data)
    ops = EdgeBatch.concat(list(stream.build_batches(2**13))).select(
        slice(0, 2**13)
    )
    makespans = []
    for threads in (1, 8):
        store = DynamicGraphStore(SamtreeConfig())
        executor = PalmExecutor(store, num_threads=threads, simulate=True)
        makespans.append(executor.apply_batch(ops).makespan)
    assert makespans[1] < makespans[0]


# ---------------------------------------------------------------------------
# module-main: the full four-panel sweep
# ---------------------------------------------------------------------------
def main() -> str:
    data = _wechat()
    parts = []

    # (a) batch-size sweep
    batch_sizes = [2**10, 2**12, 2**14, 2**16]
    times = [
        _insert_time(data, batch_size=b) * 1e3 for b in batch_sizes
    ]
    parts.append(
        format_series(
            "batch",
            batch_sizes,
            {"PlatoD2GL": times},
            unit="ms",
            title="Figure 11(a): insert latency per batch vs batch size",
        )
    )

    # (b) capacity sweep
    cap_times = [
        _insert_time(data, capacity=c) * 1e3 for c in CAPACITIES
    ]
    parts.append(
        format_series(
            "capacity",
            CAPACITIES,
            {"PlatoD2GL": cap_times},
            unit="ms",
            title="Figure 11(b): insert latency per 4096-batch vs node "
            "capacity",
        )
    )

    # (c) thread sweep for three batch sizes (makespan model)
    stream = EdgeStream(data)
    all_ops = EdgeBatch.concat(list(stream.build_batches(2**14)))
    rows = []
    for batch_size in BATCHES_11C:
        ops = all_ops.select(slice(0, batch_size))
        row = [f"2^{batch_size.bit_length() - 1}"]
        for threads in THREADS:
            # Best of three runs: simulate-mode makespans are wall-clock
            # measurements and occasionally catch a GC pause.
            best = min(
                PalmExecutor(
                    DynamicGraphStore(SamtreeConfig()),
                    num_threads=threads,
                    simulate=True,
                )
                .apply_batch(ops)
                .makespan
                for _ in range(3)
            )
            row.append(f"{best * 1e3:.2f}ms")
        rows.append(row)
    parts.append(
        format_table(
            ["batch \\ threads"] + [str(t) for t in THREADS],
            rows,
            title="Figure 11(c): concurrent-update makespan vs threads",
        )
    )

    # (d) alpha sweep — end-to-end insert latency plus the split-latency
    # microbench that isolates α's effect (splits are <1 % of build ops,
    # so the end-to-end series is nearly flat at this scale).
    alpha_times = [_insert_time(data, alpha=a) * 1e3 for a in ALPHAS]
    split_times = [_split_time(a) * 1e6 for a in ALPHAS]
    parts.append(
        format_table(
            ["alpha", "insert/4096-batch", "leaf split (n=4096)"],
            [
                [a, f"{t:.3f}ms", f"{s:.1f}us"]
                for a, t, s in zip(ALPHAS, alpha_times, split_times)
            ],
            title="Figure 11(d): slackness α — insert latency and "
            "α-Split latency",
        )
    )
    return "\n\n".join(parts)


def _split_time(alpha: int, n: int = 4096, rounds: int = 300) -> float:
    """Mean seconds of one α-Split of an ``n``-element unordered leaf.

    The input arrays are identical for every α (fixed seed per round) so
    the sweep isolates the effect of the slackness alone.
    """
    import random as _random

    from repro.core.alpha_split import split_arrays

    inputs = []
    for round_no in range(16):
        r = _random.Random(round_no)  # same inputs for every alpha
        inputs.append(
            (r.sample(range(n * 10), n), [r.random() for _ in range(n)])
        )
    start = time.perf_counter()
    for i in range(rounds):
        ids, weights = inputs[i % len(inputs)]
        split_arrays(ids, weights, alpha)
    return (time.perf_counter() - start) / rounds


if __name__ == "__main__":
    print(main())
