"""Hot-key-aware serving vs a skew-oblivious baseline under zipf traffic.

Production sampling traffic is power-law: a handful of hub vertices
absorb most requests, so the shard that owns the rank-1 key becomes the
cluster's makespan while the other shards idle.  The graph mirrors the
traffic: degree is rank-aligned power-law
(``repro.datasets.powerlaw_degrees``), so the hottest vertices are also
the highest-degree ones — their flattened rows exceed the per-shard
read-image budget and every read pays an O(degree) re-flatten on the
owning shard (the celebrity-vertex regime hot replicas exist for),
while the mid-tier fits only under eviction pressure.  Both
configurations run the same read image under the same byte budget.
This bench drives the same seeded
zipf request trace (``repro.datasets.RequestStream``) at skews
s in {0.6, 0.99, 1.4} through two cluster configurations:

* ``baseline`` — coalescing off, no hot-set tracker, no replicas: the
  pre-hot-aware serving stack;
* ``hot`` — the skew-aware layer: request coalescing, hot-set
  tracking, and mid-run hot-replica installation
  (``LocalCluster.replicate_hot``).

Reported per skew and configuration:

* wall-clock throughput (sources/s) and per-batch p50/p99 latency;
* **modeled cluster throughput** — total sources over the *makespan*
  ``max(per-shard busy seconds)``, the parallel-cluster figure the
  serving layer actually moves: replicas shrink the hottest shard's
  busy share, coalescing shrinks every shard's;
* read-image row hit rates (aggregate over shards);
* coalesce rate and hot/spread read counters.

Full-mode acceptance gates (the recorded claims):

* modeled speedup >= 2x at s=1.4 (hot vs baseline);
* <= 5% modeled regression at s=0.6, and <= 20% on the wall clock.
  Both configurations share one read image, so at low skew the wall
  ratio is the hot layer's own bookkeeping (tracker, coalescing sort,
  replica fan-out) run on one core against a baseline that no longer
  thrashes; the makespan is the figure replicas move.

Emits JSON (``--out``, default stdout); ``--smoke`` shrinks everything
for CI.  The checked-in record is ``BENCH_zipf_serving.json``, appended
to ``BENCH_HISTORY.jsonl`` via ``bench_history.py record``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

from repro.datasets.stream import RequestStream
from repro.datasets.synthetic import powerlaw_degrees
from repro.distributed.cluster import LocalCluster

SEED = 20240808
SKEWS = (0.6, 0.99, 1.4)

#: Destination IDs are drawn from a space much larger than the source
#: universe so hub adjacencies keep distinct neighbors (the samtree
#: merges duplicate (src, dst) edges by weight, which would silently
#: shrink the hubs this workload is about).
DST_SPACE = 1 << 22


def build_cluster(
    num_shards: int,
    num_sources: int,
    hub_degree: int,
    tail_degree: int,
    cache_bytes: int,
    hot: bool,
) -> LocalCluster:
    """One cluster + rank-aligned power-law graph: vertex ``r`` is both
    the rank-``r`` traffic key (``RequestStream(shuffle=False)``) and
    the rank-``r`` degree hub, so the hot head outgrows the read-image
    budget and the mid-tier contests it."""
    cluster = LocalCluster(
        num_servers=num_shards,
        hot_set_capacity=512 if hot else 0,
        coalesce=hot,
    )
    for server in cluster.servers:
        server.store.snapshot_cache.capacity_bytes = cache_bytes
    rng = np.random.default_rng(SEED)
    degrees = powerlaw_degrees(
        num_sources, hub_degree, min_degree=tail_degree
    )
    srcs = np.repeat(np.arange(num_sources, dtype=np.int64), degrees)
    dsts = rng.integers(0, DST_SPACE, srcs.size).astype(np.int64)
    cluster.client.bulk_load(srcs, dsts, 1.0)
    return cluster


def _reset_measurement(cluster: LocalCluster) -> None:
    cluster.client.serving_stats.reset()
    for server in cluster.servers:
        server.store.snapshot_cache.stats.reset()


def _cache_stats(cluster: LocalCluster) -> Dict[str, float]:
    hits = misses = 0
    for server in cluster.servers:
        stats = server.store.snapshot_cache.stats
        hits += stats.hits
        misses += stats.misses
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else 0.0,
    }


def run_config(
    skew: float,
    hot: bool,
    num_shards: int,
    num_sources: int,
    hub_degree: int,
    tail_degree: int,
    cache_bytes: int,
    batch_size: int,
    warm_batches: int,
    measure_batches: int,
    k: int,
) -> Dict:
    cluster = build_cluster(
        num_shards, num_sources, hub_degree, tail_degree, cache_bytes, hot
    )
    client = cluster.client
    # shuffle=False keeps traffic rank == degree rank (the correlated
    # celebrity workload build_cluster constructs).
    requests = RequestStream(
        num_sources, exponent=skew, seed=SEED + 1, shuffle=False
    )
    sample_rng = np.random.default_rng(SEED + 2)

    # Warm: trains the tracker and fills the read images.
    for _ in range(warm_batches):
        client.sample_neighbors_many(requests.batch(batch_size), k, sample_rng)
    replicas = 0
    if hot:
        installed = cluster.replicate_hot(
            top_n=8, copies=min(5, num_shards - 1), min_count=2
        )
        replicas = len(installed)
    # Steady state: the replica copies' caches start cold, so warm again
    # before measuring (both configs run the same total warm traffic).
    for _ in range(max(2, warm_batches // 2)):
        client.sample_neighbors_many(requests.batch(batch_size), k, sample_rng)

    _reset_measurement(cluster)
    latencies: List[float] = []
    wall = 0.0
    for _ in range(measure_batches):
        frontier = requests.batch(batch_size)
        start = time.perf_counter()
        client.sample_neighbors_many(frontier, k, sample_rng)
        dt = time.perf_counter() - start
        latencies.append(dt)
        wall += dt

    stats = client.serving_stats
    total_sources = batch_size * measure_batches
    makespan = max(stats.busy_by_shard.values()) if stats.busy_by_shard else wall
    lat_ms = np.asarray(latencies) * 1e3
    return {
        "config": "hot" if hot else "baseline",
        "skew": skew,
        "hot_replicas_installed": replicas,
        "wall_s": wall,
        "wall_sources_per_s": total_sources / wall,
        "modeled_makespan_s": makespan,
        "modeled_sources_per_s": total_sources / makespan,
        "busy_by_shard_s": {
            str(shard): busy
            for shard, busy in sorted(stats.busy_by_shard.items())
        },
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p99_ms": float(np.percentile(lat_ms, 99)),
        "coalesce_rate": stats.coalesce_rate,
        "hot_reads": stats.hot_reads,
        "spread_reads": stats.spread_reads,
        "cache": _cache_stats(cluster),
    }


def run_benchmark(
    num_shards: int,
    num_sources: int,
    hub_degree: int,
    tail_degree: int,
    cache_bytes: int,
    batch_size: int,
    warm_batches: int,
    measure_batches: int,
    k: int,
) -> Dict:
    results = {
        "config": {
            "num_shards": num_shards,
            "num_sources": num_sources,
            "hub_degree": hub_degree,
            "tail_degree": tail_degree,
            "cache_bytes": cache_bytes,
            "batch_size": batch_size,
            "warm_batches": warm_batches,
            "measure_batches": measure_batches,
            "k": k,
            "skews": list(SKEWS),
        },
        "skews": {},
    }
    for skew in SKEWS:
        base = run_config(
            skew, False, num_shards, num_sources, hub_degree, tail_degree,
            cache_bytes, batch_size, warm_batches, measure_batches, k,
        )
        hot = run_config(
            skew, True, num_shards, num_sources, hub_degree, tail_degree,
            cache_bytes, batch_size, warm_batches, measure_batches, k,
        )
        results["skews"][f"{skew:g}"] = {
            "baseline": base,
            "hot": hot,
            "modeled_speedup": (
                hot["modeled_sources_per_s"] / base["modeled_sources_per_s"]
            ),
            "wall_speedup": (
                hot["wall_sources_per_s"] / base["wall_sources_per_s"]
            ),
            "p99_speedup": base["latency_p99_ms"] / hot["latency_p99_ms"],
            "hit_rate_delta": (
                hot["cache"]["hit_rate"] - base["cache"]["hit_rate"]
            ),
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI: checks the machinery, not the numbers",
    )
    parser.add_argument(
        "--out", default=None, help="write JSON here (default: stdout)"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        results = run_benchmark(
            num_shards=4,
            num_sources=400,
            hub_degree=2000,
            tail_degree=8,
            cache_bytes=8 << 10,
            batch_size=64,
            warm_batches=4,
            measure_batches=8,
            k=5,
        )
    else:
        results = run_benchmark(
            num_shards=8,
            num_sources=4000,
            hub_degree=40000,
            tail_degree=16,
            cache_bytes=32 << 10,
            batch_size=256,
            warm_batches=40,
            measure_batches=120,
            k=10,
        )
    results["mode"] = "smoke" if args.smoke else "full"

    payload = json.dumps(results, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)

    failures: List[str] = []
    for label, entry in results["skews"].items():
        hot = entry["hot"]
        print(
            f"[bench_zipf_serving] s={label}: modeled "
            f"{entry['modeled_speedup']:.2f}x wall "
            f"{entry['wall_speedup']:.2f}x p99 {entry['p99_speedup']:.2f}x "
            f"hit-rate {entry['baseline']['cache']['hit_rate']:.2%} -> "
            f"{hot['cache']['hit_rate']:.2%} "
            f"coalesce {hot['coalesce_rate']:.2%}",
            file=sys.stderr,
        )
    high = results["skews"]["1.4"]
    if high["modeled_speedup"] < 2.0:
        failures.append(
            f"s=1.4: modeled speedup {high['modeled_speedup']:.2f}x "
            f"below the 2x acceptance bar"
        )
    low = results["skews"]["0.6"]
    if low["modeled_speedup"] < 0.95:
        failures.append(
            f"s=0.6: modeled regression {low['modeled_speedup']:.2f}x "
            f"(bound 0.95x)"
        )
    if low["wall_speedup"] < 0.8:
        failures.append(
            f"s=0.6: wall regression {low['wall_speedup']:.2f}x "
            f"(bound 0.8x)"
        )
    if not args.smoke and failures:
        for failure in failures:
            print(f"[bench_zipf_serving] FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
