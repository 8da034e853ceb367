"""Benchmark harness: report formatting and shared workloads."""

from repro.bench.report import format_series, format_table, reduction_pct, speedup
from repro.bench.workloads import (
    CLUSTER_BUDGET_BYTES,
    STORE_NAMES,
    BuildResult,
    build_store,
    full_scale_bytes,
    make_store,
    neighbor_sampling_sweep,
    run_update_batches,
    sources_of,
    subgraph_sampling_sweep,
)

__all__ = [
    "format_series",
    "format_table",
    "reduction_pct",
    "speedup",
    "STORE_NAMES",
    "CLUSTER_BUDGET_BYTES",
    "BuildResult",
    "build_store",
    "full_scale_bytes",
    "make_store",
    "neighbor_sampling_sweep",
    "run_update_batches",
    "sources_of",
    "subgraph_sampling_sweep",
]
