"""Per-edge vs columnar bulk ingestion: the write-path engine's win.

Measures the scalar write path (one ``add_edge`` / ``update_edge`` /
``remove_edge`` call per operation, one descent per call) against the
columnar path (``bulk_load`` / ``apply_edge_batch``: one lexsort per
batch, bottom-up O(n) samtree builds, last-wins duplicate folding) on a
zipf-skewed synthetic edge list — a few hub sources own most of the
edges, the long tail owns small adjacencies, like a real power-law
graph.

Three phases:

* ``build``  — cold-start graph construction from an edge list.  The
  acceptance criterion targets >= 5x over the per-edge loop at >= 100k
  edges.
* ``update`` — steady-state dynamic churn: mixed insert/update/delete
  batches against an existing graph, per-op replay vs one
  ``apply_edge_batch`` call per batch.
* ``update_sparse`` — the same churn mix on the traffic the end-to-end
  workloads run (``benchmarks/e2e``): uniform sources over a graph of
  small vertices (slab rows), so a batch holds about one op per source,
  in 4 000-op (ingest) and 64-op (serving, per shard) batches.  The
  columnar path must reach the per-op loop on the 64-op batches (which
  run the scalar row op: too few groups for the round kernel) and twice
  it on the 4 000-op ones (the kernel) — also in ``--smoke``.

Emits JSON (``--out``, default stdout); ``--smoke`` shrinks everything
for CI.  The checked-in record is ``BENCH_bulk_ingest.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.ingest import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    EdgeBatch,
)
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore

SEED = 0xB0

#: (src, dst, weight) columns of a synthetic zipf-skewed edge list.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def make_edge_columns(
    num_edges: int, num_sources: int, seed: int = SEED
) -> Columns:
    """Zipf-skewed sources (a=1.6, clipped), uniform dsts, spread weights."""
    rng = np.random.default_rng(seed)
    src = np.minimum(
        rng.zipf(1.6, size=num_edges), num_sources
    ).astype(np.int64) - 1
    dst = rng.integers(
        num_sources, num_sources * 20, size=num_edges, dtype=np.int64
    )
    weight = rng.random(num_edges) * 4.0 + 0.25
    return src, dst, weight


def make_churn_batches(
    src: np.ndarray,
    dst: np.ndarray,
    num_batches: int,
    batch_size: int,
    seed: int = SEED + 1,
) -> List[EdgeBatch]:
    """Mixed churn referencing the built graph: 50% fresh inserts,
    30% weight updates of existing edges, 20% deletes."""
    rng = np.random.default_rng(seed)
    n_src_space = int(src.max()) + 1
    batches = []
    for b in range(num_batches):
        pick = rng.integers(0, src.size, size=batch_size)
        op = rng.choice(
            [OP_INSERT, OP_UPDATE, OP_DELETE],
            size=batch_size,
            p=[0.5, 0.3, 0.2],
        ).astype(np.uint8)
        b_src = src[pick].copy()
        b_dst = dst[pick].copy()
        # Fresh inserts go to a disjoint dst range so they are real
        # insertions, not upserts of existing edges.
        ins = op == OP_INSERT
        b_dst[ins] = rng.integers(
            n_src_space * 100 + b * batch_size,
            n_src_space * 100 + (b + 1) * batch_size,
            size=int(ins.sum()),
            dtype=np.int64,
        )
        w = rng.random(batch_size) * 3.0 + 0.1
        batches.append(EdgeBatch(b_src, b_dst, w, None, op))
    return batches


def make_sparse_workload(
    num_sources: int, degree: int, num_ops: int, seed: int = SEED + 2
) -> Tuple[Columns, EdgeBatch]:
    """A graph of ``num_sources`` one-leaf trees and ``num_ops`` of churn
    in the end-to-end mix: updates and deletes aim at existing edges,
    inserts pick a uniform source."""
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(num_sources, dtype=np.int64), degree)
    dst = rng.integers(0, num_sources, size=src.size, dtype=np.int64)
    weight = rng.integers(1, 64, src.size) / 8.0
    op = rng.choice(
        [OP_INSERT, OP_UPDATE, OP_DELETE], size=num_ops, p=[0.5, 0.3, 0.2]
    ).astype(np.uint8)
    pick = rng.integers(0, src.size, size=num_ops)
    c_src, c_dst = src[pick].copy(), dst[pick].copy()
    ins = op == OP_INSERT
    c_src[ins] = rng.integers(0, num_sources, int(ins.sum()))
    c_dst[ins] = rng.integers(0, num_sources, int(ins.sum()))
    churn = EdgeBatch(
        c_src, c_dst, rng.integers(1, 64, num_ops) / 8.0, None, op
    )
    return (src, dst, weight), churn


def _time(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_build(
    columns: Columns, config: SamtreeConfig, repeats: int
) -> Dict:
    src, dst, weight = columns
    src_l = src.tolist()
    dst_l = dst.tolist()
    w_l = weight.tolist()

    def per_edge() -> DynamicGraphStore:
        store = DynamicGraphStore(config)
        add = store.add_edge
        for s, d, w in zip(src_l, dst_l, w_l):
            add(s, d, w)
        return store

    def bulk() -> DynamicGraphStore:
        store = DynamicGraphStore(config)
        store.bulk_load(src, dst, weight)
        return store

    t_per_edge = _time(per_edge, repeats)
    t_bulk = _time(bulk, repeats)

    # Sanity: both builds describe the same graph.
    a, b = per_edge(), bulk()
    assert a.num_edges == b.num_edges, (a.num_edges, b.num_edges)

    n = src.size
    return {
        "per_edge_s": t_per_edge,
        "bulk_s": t_bulk,
        "per_edge_edges_per_s": n / t_per_edge,
        "bulk_edges_per_s": n / t_bulk,
        "speedup": t_per_edge / t_bulk,
        "num_edges_after_dedup": a.num_edges,
    }


def bench_update(
    columns: Columns,
    config: SamtreeConfig,
    batches: List[EdgeBatch],
    repeats: int,
) -> Dict:
    src, dst, weight = columns

    def fresh() -> DynamicGraphStore:
        store = DynamicGraphStore(config)
        store.bulk_load(src, dst, weight)
        return store

    def per_op(store: DynamicGraphStore) -> None:
        for batch in batches:
            for s, d, w, o in zip(
                batch.src.tolist(),
                batch.dst.tolist(),
                batch.weight.tolist(),
                batch.op.tolist(),
            ):
                if o == OP_INSERT:
                    store.add_edge(s, d, w)
                elif o == OP_UPDATE:
                    store.update_edge(s, d, w)
                else:
                    store.remove_edge(s, d)

    def batched(store: DynamicGraphStore) -> None:
        for batch in batches:
            store.apply_edge_batch(batch)

    # Each trial mutates, so it gets a fresh store, built (and its
    # garbage collected) outside the timed region; the two paths
    # alternate so that machine drift reaches both.
    best = {per_op: float("inf"), batched: float("inf")}
    for _ in range(repeats):
        for fn in best:
            store = fresh()
            gc.collect()
            best[fn] = min(best[fn], _time(lambda: fn(store), 1))
    t_per_op, t_batched = best[per_op], best[batched]

    total_ops = sum(len(batch) for batch in batches)
    return {
        "num_batches": len(batches),
        "batch_size": len(batches[0]),
        "per_op_s": t_per_op,
        "batched_s": t_batched,
        "per_op_ops_per_s": total_ops / t_per_op,
        "batched_ops_per_s": total_ops / t_batched,
        "speedup": t_per_op / t_batched,
    }


#: Batch sizes of the sparse update shape — one ``ingest_churn`` batch,
#: and one shard's quarter of a ``serve_zipf`` churn batch — each with
#: the least columnar / per-op-loop ratio it must reach.
SPARSE_BATCH_GATES = {4_000: 2.0, 64: 1.0}


def run_benchmark(
    num_edges: int,
    num_sources: int,
    num_batches: int,
    batch_size: int,
    repeats: int,
    sparse_sources: int,
    sparse_degree: int,
    sparse_ops: int,
) -> Dict:
    columns = make_edge_columns(num_edges, num_sources)
    results = {
        "config": {
            "num_edges": num_edges,
            "num_sources": num_sources,
            "capacity": 256,
            "repeats": repeats,
            "seed": SEED,
        },
        "build": {},
        "update": {},
    }
    for compress in (True, False):
        config = SamtreeConfig(capacity=256, compress=compress)
        key = "compress_on" if compress else "compress_off"
        results["build"][key] = bench_build(columns, config, repeats)
    config = SamtreeConfig(capacity=256, compress=True)
    results["update"] = bench_update(
        columns,
        config,
        make_churn_batches(columns[0], columns[1], num_batches, batch_size),
        repeats,
    )
    sparse_columns, churn = make_sparse_workload(
        sparse_sources, sparse_degree, sparse_ops
    )
    results["update_sparse"] = {
        f"batch_{size}": bench_update(
            sparse_columns,
            config,
            [
                churn.select(slice(a, a + size))
                for a in range(0, sparse_ops, size)
            ],
            max(repeats, 5),  # gated in smoke mode too: best of >= 5
        )
        for size in SPARSE_BATCH_GATES
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
            num_edges=5_000,
            num_sources=200,
            num_batches=2,
            batch_size=500,
            repeats=1,
            sparse_sources=20_000,
            sparse_degree=4,
            sparse_ops=16_000,
        )
    else:
        results = run_benchmark(
            num_edges=200_000,
            num_sources=4_000,
            num_batches=8,
            batch_size=10_000,
            repeats=3,
            sparse_sources=40_000,
            sparse_degree=8,
            sparse_ops=40_000,
        )
    results["mode"] = "smoke" if args.smoke else "full"

    payload = json.dumps(results, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)

    build = results["build"]["compress_on"]["speedup"]
    update = results["update"]["speedup"]
    print(
        f"[bench_bulk_ingest] build speedup {build:.1f}x "
        f"(compress on), update speedup {update:.1f}x",
        file=sys.stderr,
    )
    ok = True
    for shape, entry in results["update_sparse"].items():
        ratio = entry["speedup"]
        print(
            f"[bench_bulk_ingest] sparse {shape}: columnar / per-op loop "
            f"= {ratio:.2f}x ({entry['batched_ops_per_s']:,.0f} vs "
            f"{entry['per_op_ops_per_s']:,.0f} ops/s)",
            file=sys.stderr,
        )
        gate = SPARSE_BATCH_GATES[int(shape[len("batch_"):])]
        if ratio < gate:
            print(
                f"[bench_bulk_ingest] FAIL: columnar path below {gate}x the "
                f"per-op loop on sparse {shape}",
                file=sys.stderr,
            )
            ok = False
    if not args.smoke:
        if build < 5.0:
            print(
                "[bench_bulk_ingest] FAIL: build speedup below the 5x "
                "acceptance bar",
                file=sys.stderr,
            )
            ok = False
        if update <= 1.0:
            print(
                "[bench_bulk_ingest] FAIL: batched updates no faster "
                "than per-op replay",
                file=sys.stderr,
            )
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
