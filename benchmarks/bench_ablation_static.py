"""Ablation: why dynamic storage is non-negotiable (paper §I).

The paper dismisses the static deep graph learning systems (Euler,
Plato, DistDGL, ByteGNN) because every topology change forces a full
re-partition/re-deploy.  This bench quantifies that cliff by running the
same interleaved update+sample workload against:

* the static CSR store (rebuild on first read after any write),
* AliGraph (per-vertex alias rebuilds),
* PlatoGL (per-source CSTable maintenance),
* PlatoD2GL (in-place O(log) maintenance).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.baselines.static_csr import StaticCSRStore
from repro.bench.report import format_table
from repro.bench.workloads import make_store
from repro.core.types import GraphStoreAPI
from repro.datasets.stream import EdgeStream

try:
    from conftest import BENCH_DATASETS
except ImportError:
    from benchmarks.conftest import BENCH_DATASETS

SYSTEMS = ("StaticCSR", "AliGraph", "PlatoGL", "PlatoD2GL")


def _make(system):
    if system == "StaticCSR":
        return StaticCSRStore()
    return make_store(system)


def _interleaved_workload(store, data, rounds=20, updates_per_round=16,
                          samples_per_round=16, seed=0):
    """Alternate small update bursts with sampling — the online regime
    where static rebuilds hurt the most.  Returns elapsed seconds."""
    stream = EdgeStream(data, seed=seed)
    for batch in stream.build_batches(8192):
        GraphStoreAPI.apply_edge_batch(store, batch)
    rng = random.Random(seed)
    sources = []
    for src in store.sources():
        sources.append(src)
        if len(sources) >= 64:
            break
    churn = stream.churn_batches(updates_per_round, rounds, (0.5, 0.3, 0.2))
    start = time.perf_counter()
    for batch in churn:
        GraphStoreAPI.apply_edge_batch(store, batch)
        for _ in range(samples_per_round):
            store.sample_neighbors(sources[rng.randrange(len(sources))], 10, rng)
    return time.perf_counter() - start


@pytest.mark.parametrize("system", SYSTEMS)
def test_interleaved_update_sample(benchmark, datasets, system):
    benchmark.group = "ablation-static-interleaved"
    data = datasets["OGBN"]
    store = _make(system)
    benchmark.pedantic(
        lambda: _interleaved_workload(store, data, rounds=5),
        rounds=1,
        iterations=1,
    )


def test_static_store_is_orders_slower(datasets):
    data = datasets["OGBN"]
    static = _interleaved_workload(_make("StaticCSR"), data, rounds=8)
    dynamic = _interleaved_workload(_make("PlatoD2GL"), data, rounds=8)
    assert static > 5 * dynamic


def main() -> str:
    loader, scale = BENCH_DATASETS["OGBN"]
    data = loader(scale=scale)
    rows = []
    base = None
    for system in SYSTEMS:
        elapsed = _interleaved_workload(_make(system), data)
        if system == "PlatoD2GL":
            base = elapsed
        rows.append([system, f"{elapsed * 1e3:.1f}ms"])
    for row in rows:
        ms = float(row[1][:-2])
        row.append(f"{ms / (base * 1e3):.1f}x" if base else "-")
    return format_table(
        ["System", "20 rounds of update+sample", "vs PlatoD2GL"],
        rows,
        title="Ablation: interleaved updates and sampling on OGBN-scaled "
        "(static systems pay a full rebuild per round)",
    )


if __name__ == "__main__":
    print(main())
