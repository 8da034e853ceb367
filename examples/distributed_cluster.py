"""Distributed storage: an in-process stand-in for the paper's cluster.

Spins up a :class:`LocalCluster` of graph servers behind a hash-by-source
partitioner (paper §VII-A uses 54 storage machines), loads a scaled OGBN
graph through the routing client, and reports:

* shard balance (edges / sources / modeled bytes per server);
* simulated network traffic of batched updates vs per-edge updates;
* cross-shard batch sampling;
* the same cluster running a baseline store per shard (one line change).

Run with::

    python examples/distributed_cluster.py
"""

from __future__ import annotations

import random

from repro.baselines import PlatoGLStore
from repro.core import EdgeBatch, SamtreeConfig, humanize_bytes
from repro.datasets import EdgeStream, ogbn_scaled
from repro.distributed import LocalCluster, NetworkModel


def load(cluster: LocalCluster, data) -> None:
    stream = EdgeStream(data)
    for batch in stream.build_batches(4096):
        cluster.client.apply_edge_batch(batch)


def main() -> None:
    rng = random.Random(0)
    data = ogbn_scaled(scale=5000)

    # --- PlatoD2GL per shard -------------------------------------------------
    net = NetworkModel()  # 50 us / message, 10 Gbit/s
    cluster = LocalCluster(
        num_servers=4, config=SamtreeConfig(capacity=256), network=net
    )
    load(cluster, data)

    print("shard balance (hash-by-source):")
    print(f"{'shard':>5} {'sources':>8} {'edges':>8} {'bytes':>10}")
    for info in cluster.shard_infos():
        print(
            f"{info.shard_id:>5} {info.num_sources:>8} {info.num_edges:>8} "
            f"{humanize_bytes(info.nbytes):>10}"
        )
    print(f"total modeled memory: {humanize_bytes(cluster.total_nbytes())}")
    print(
        f"build traffic: {net.stats.messages:,} messages, "
        f"{humanize_bytes(net.stats.payload_bytes)}, "
        f"{net.stats.simulated_seconds * 1e3:.2f} ms simulated network time"
    )

    # --- batching matters: one message per shard vs one per edge -------------
    batch = EdgeBatch.inserts(
        [rng.randrange(10**6) for _ in range(1000)],
        [rng.randrange(10**6) for _ in range(1000)],
    )
    net.stats.reset()
    cluster.client.apply_edge_batch(batch)
    batched = net.stats.messages
    net.stats.reset()
    for src, dst in zip(batch.src.tolist(), batch.dst.tolist()):
        cluster.client.add_edge(src, dst, 1.0)
    per_edge = net.stats.messages
    print(
        f"\n1000 inserts: {batched} messages batched vs {per_edge} per-edge "
        f"({per_edge / batched:.0f}x more RPCs without batching)"
    )

    # --- cross-shard batch sampling ------------------------------------------
    sources = [s for _, s in zip(range(64), cluster.client.sources())]
    block = cluster.client.sample_neighbors_many(sources, k=10, rng=rng)
    served = block.state == block.SERVED
    fan_in = int(served.sum()) * block.ids.shape[1]
    print(f"\nsampled 10 neighbors for {len(sources)} vertices across "
          f"{len(cluster)} shards ({fan_in} draws, order-preserving merge)")

    # --- the same cluster over a baseline store -------------------------------
    baseline = LocalCluster(num_servers=4, store_factory=PlatoGLStore)
    load(baseline, data)
    print(
        f"\nsame dataset on a PlatoGL-backed cluster: "
        f"{humanize_bytes(baseline.total_nbytes())} "
        f"(vs {humanize_bytes(cluster.total_nbytes())} for PlatoD2GL)"
    )


if __name__ == "__main__":
    main()
