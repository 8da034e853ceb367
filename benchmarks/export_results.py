"""Export machine-readable results for every table/figure.

``python benchmarks/export_results.py out.json`` re-runs the evaluation
workloads and writes one JSON document with a section per experiment —
the artifact a plotting notebook or CI regression tracker consumes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import BENCH_DATASETS, SYSTEMS

from repro.bench.workloads import (
    CLUSTER_BUDGET_BYTES,
    build_store,
    full_scale_bytes,
    make_store,
    neighbor_sampling_sweep,
    run_update_batches,
    sources_of,
    subgraph_sampling_sweep,
)
from repro.core.cstable import CSTable
from repro.core.fenwick import FSTable
from repro.core.types import GraphStoreAPI
from repro.datasets.stream import EdgeStream

import bench_table2_complexity


def export_table2() -> dict:
    sizes = [2**8, 2**10, 2**12]
    out = {}
    for op in ("insert", "update", "delete", "sample"):
        for name, cls in (("ITS", CSTable), ("FTS", FSTable)):
            out[f"{op}/{name}"] = {
                str(n): bench_table2_complexity.measure(cls, op, n, repeats=500)
                for n in sizes
            }
    return out


def export_fig8_table4() -> dict:
    out = {}
    for ds_name, (loader, scale) in BENCH_DATASETS.items():
        data = loader(scale=scale)
        rows = {}
        for system in SYSTEMS:
            store = make_store(system)
            result = build_store(
                store,
                data,
                batch_size=4096,
                enforce_cluster_budget_for=ds_name,
            )
            rows[system] = {
                "out_of_memory": result.out_of_memory,
                "build_seconds": result.seconds,
                "edges_per_second": result.ops_per_second,
                "full_scale_bytes": full_scale_bytes(store, data, ds_name),
            }
        out[ds_name] = rows
    out["cluster_budget_bytes"] = CLUSTER_BUDGET_BYTES
    return out


def export_fig9(batch_sizes=(2**8, 2**10, 2**12)) -> dict:
    loader, scale = BENCH_DATASETS["WeChat"]
    out = {}
    for system in ("AliGraph", "PlatoGL", "PlatoD2GL"):
        data = loader(scale=scale)
        store = make_store(system)
        stream = EdgeStream(data)
        for batch in stream.build_batches(4096):
            GraphStoreAPI.apply_edge_batch(store, batch)
        out[system] = {
            str(b): run_update_batches(store, stream, b, 3, (0.4, 0.4, 0.2))
            for b in batch_sizes
        }
    return out


def export_fig10(batch_sizes=(2**6, 2**8)) -> dict:
    out = {}
    for ds_name, (loader, scale) in BENCH_DATASETS.items():
        data = loader(scale=scale)
        rows = {}
        for system in SYSTEMS:
            store = make_store(system)
            result = build_store(
                store,
                data,
                batch_size=4096,
                enforce_cluster_budget_for=ds_name,
            )
            if result.out_of_memory:
                rows[system] = None
                continue
            sources = sources_of(store)
            rows[system] = {
                "neighbor": {
                    str(b): t
                    for b, t in neighbor_sampling_sweep(
                        store, sources, batch_sizes
                    ).items()
                },
                "subgraph": {
                    str(b): t
                    for b, t in subgraph_sampling_sweep(
                        store, sources, batch_sizes
                    ).items()
                },
            }
        out[ds_name] = rows
    return out


def export_table5() -> dict:
    import bench_table5_opdist

    loader, scale = BENCH_DATASETS["WeChat"]
    data = loader(scale=scale)
    out = {}
    for capacity in (64, 256, 1024):
        stats = bench_table5_opdist.build_with_capacity(capacity, data).stats
        out[str(capacity)] = stats.leaf_fraction
    return out


def export_obs() -> dict:
    """Registry snapshot + slow traces of a seeded cluster workload.

    Runs the same churn+sample shape as ``repro obs`` on a small
    :class:`LocalCluster` and embeds the full
    :class:`~repro.obs.registry.MetricsRegistry` snapshot plus the
    slowest trace roots, so the exported document carries the cluster's
    telemetry alongside the timing sections (DESIGN.md §11).
    """
    import random

    from repro.distributed.cluster import LocalCluster
    from repro.distributed.rpc import NetworkModel
    from repro.obs.trace import Tracer

    rng = random.Random(0)
    network = NetworkModel()
    tracer = Tracer(clock=network.now)
    cluster = LocalCluster(num_servers=4, network=network, tracer=tracer)
    n = 500
    srcs = [rng.randrange(n) for _ in range(2000)]
    dsts = [rng.randrange(n) for _ in range(2000)]
    cluster.client.bulk_load(srcs, dsts, 1.0)
    for _ in range(20):
        frontier = [rng.randrange(n) for _ in range(64)]
        cluster.client.sample_neighbors_many(frontier, 10, rng)
    return {
        "registry_snapshot": cluster.registry.snapshot().to_dict(),
        "top_slow_traces": [
            span.to_dict() for span in tracer.top_slow(3)
        ],
    }


SECTIONS = {
    "table2": export_table2,
    "fig8_table4": export_fig8_table4,
    "fig9": export_fig9,
    "fig10": export_fig10,
    "table5": export_table5,
    "obs": export_obs,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="JSON file to write")
    parser.add_argument(
        "--only", choices=sorted(SECTIONS), action="append",
        help="restrict to specific sections (repeatable)",
    )
    args = parser.parse_args(argv)
    document = {"generated_unix": time.time(), "sections": {}}
    for name, fn in SECTIONS.items():
        if args.only and name not in args.only:
            continue
        start = time.perf_counter()
        document["sections"][name] = fn()
        print(f"{name}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    Path(args.output).write_text(json.dumps(document, indent=2))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
