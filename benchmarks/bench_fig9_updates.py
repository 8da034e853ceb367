"""Figure 9: dynamic-update time vs batch size on WeChat.

A built WeChat-scaled store receives churn batches (insert / in-place
update / delete mix) of growing size; the paper sweeps 2^10 … 2^16 and
reports PlatoD2GL up to 5.4× faster than PlatoGL, with both far below
AliGraph.  The figure's shape — latency grows with batch size, PlatoD2GL
lowest — is what this driver reproduces.
"""

from __future__ import annotations

import pytest

from repro.bench.report import format_series, speedup
from repro.bench.workloads import make_store, run_update_batches
from repro.core.types import GraphStoreAPI
from repro.datasets.stream import EdgeStream

try:
    from conftest import BENCH_DATASETS
except ImportError:
    from benchmarks.conftest import BENCH_DATASETS

#: Paper: 2^10 … 2^16; scaled for suite runtime (run_all --full widens).
BATCH_SIZES = [2**8, 2**10, 2**12]
SYSTEMS = ("AliGraph", "PlatoGL", "PlatoD2GL")
MIX = (0.4, 0.4, 0.2)


def _built(system):
    loader, scale = BENCH_DATASETS["WeChat"]
    data = loader(scale=scale)
    store = make_store(system)
    stream = EdgeStream(data)
    for batch in stream.build_batches(4096):
        GraphStoreAPI.apply_edge_batch(store, batch)
    return store, stream


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("system", SYSTEMS)
def test_dynamic_updates(benchmark, system, batch_size):
    benchmark.group = f"fig9-updates-batch{batch_size}"
    store, stream = _built(system)
    batches = list(stream.churn_batches(batch_size, 3, MIX))

    def run():
        for batch in batches:
            GraphStoreAPI.apply_edge_batch(store, batch)

    benchmark.pedantic(run, rounds=1, iterations=1)


def main(batch_sizes=None) -> str:
    batch_sizes = batch_sizes or [2**8, 2**10, 2**12, 2**14]
    series = {}
    for system in SYSTEMS:
        store, stream = _built(system)
        times = []
        for batch_size in batch_sizes:
            mean = run_update_batches(
                store, stream, batch_size, num_batches=3, mix=MIX
            )
            times.append(mean * 1e3)
        series[system] = times
    lines = [
        format_series(
            "batch",
            batch_sizes,
            series,
            unit="ms",
            title="Figure 9 (measured): dynamic-update latency per batch, "
            "WeChat-scaled",
        )
    ]
    ratios = [
        speedup(pg, d2)
        for pg, d2 in zip(series["PlatoGL"], series["PlatoD2GL"])
    ]
    lines.append(
        f"PlatoD2GL vs PlatoGL speedup across batch sizes: "
        + ", ".join(f"{r:.1f}x" for r in ratios)
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(main())
