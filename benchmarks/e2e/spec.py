"""Names, units, directions and bounds of everything the benchmark reports.

One table, read by ``run.py`` (what to print), ``compare.py`` (what to
gate), the smoke test (what must be present) and mirrored by hand in
``BENCHMARK.json`` and ``README.md`` — the smoke test asserts the JSON
mirror is exact.  Later issues refer to workloads and metrics by these
names; renaming one is a benchmark change, not a code change.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: Seconds of measured work a full-size run is sized for; the window
#: count scales with ``--seconds / BASE_SECONDS`` (the scaling factor).
BASE_SECONDS = 20
BASE_WINDOWS = 15
#: ``run_seconds`` of BENCHMARK.json (the driver's ``--seconds``).
RUN_SECONDS = 10

WORKLOADS: Dict[str, str] = {
    "train_frozen": (
        "read-only 2-hop GraphSAGE training on frozen shards: sampler, "
        "client and server plumbing do the work; write path and snapshot "
        "cache must read 0"
    ),
    "train_churn": (
        "same training, never frozen, a 2000-op columnar batch before "
        "every 4th step: snapshot coherence, descent fallback and write "
        "path all work beside the reads"
    ),
    "ingest_churn": (
        "write-only with a file WAL: bulk load, columnar churn, per-op "
        "writes, checkpoint and recover; sampling does nothing, so every "
        "read-path optimisation must leave it unchanged"
    ),
    "serve_zipf": (
        "open-loop zipf-0.99 inference at 1000 req/s simulated with a "
        "churn third: micro-batches of about 4 seeds put per-flush fixed "
        "cost, admission and hot keys in charge"
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by; ``None``
    #: for per-layer metrics, which are recorded but never gated.
    bound: Optional[float] = None


#: What the driver gates: measured on *every* workload (its contract
#: wants one flat list), so the two speed figures are named for their
#: role and mean the workload's own unit of work — see ``ALIASES``.
END_TO_END: List[Metric] = [
    Metric("throughput_per_s", "1/s", "higher", 0.20),
    Metric("latency_ms_p50", "ms", "lower", 0.20),
    Metric("bytes_per_edge", "B", "lower", 0.02),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
]

#: The raw wall-clock figure each role-named one is the calibrated form
#: of (the report prints both).  ``failed_share`` is the result line's
#: ``failed / attempted``: it is 0 on every workload, and the driver
#: refuses zero-valued metrics.
ALIASES: Dict[str, Dict[str, str]] = {
    "train_frozen": {
        "throughput_per_s": "train_seeds_per_s",
        "latency_ms_p50": "train_step_ms_p50",
    },
    "train_churn": {
        "throughput_per_s": "train_seeds_per_s",
        "latency_ms_p50": "train_step_ms_p50",
    },
    "ingest_churn": {
        "throughput_per_s": "update_ops_per_s",
        "latency_ms_p50": "1000 / scalar_ops_per_s",
    },
    "serve_zipf": {
        "throughput_per_s": "serve_requests_per_s",
        "latency_ms_p50": "serve_flush_ms_p50",
    },
}

#: The issue's 11 end-to-end names with the pairings that exist.  The
#: report prints these; ``compare.py`` checks their spread too.
NAMED: List[Tuple[Metric, Tuple[str, ...]]] = [
    (Metric("setup_s", "s", "lower", 0.25), tuple(WORKLOADS)),
    (Metric("peak_rss_mb", "MiB", "lower", 0.10), tuple(WORKLOADS)),
    (Metric("failed_share", "share", "lower", 0.0), tuple(WORKLOADS)),
    (Metric("train_seeds_per_s", "seeds/s", "higher", 0.10),
     ("train_frozen", "train_churn")),
    (Metric("train_step_ms_p50", "ms", "lower", 0.10),
     ("train_frozen", "train_churn")),
    (Metric("update_ops_per_s", "ops/s", "higher", 0.10),
     ("train_churn", "ingest_churn")),
    (Metric("ingest_edges_per_s", "edges/s", "higher", 0.10),
     ("ingest_churn",)),
    (Metric("scalar_ops_per_s", "ops/s", "higher", 0.10),
     ("ingest_churn",)),
    (Metric("bytes_per_edge", "B", "lower", 0.02), tuple(WORKLOADS)),
    (Metric("serve_requests_per_s", "req/s", "higher", 0.10),
     ("serve_zipf",)),
    (Metric("serve_flush_ms_p50", "ms", "lower", 0.10), ("serve_zipf",)),
]

#: Layer names are module names under ``repro``.
LAYERS: Tuple[str, ...] = (
    "gnn.training",
    "gnn.samplers",
    "gnn.models",
    "storage.attributes",
    "distributed.client",
    "distributed.server",
    "distributed.rpc",
    "core.topology",
    "core.frozen",
    "core.snapshot",
    "core.ingest",
    "storage.wal",
    "storage.checkpoint",
    "serving.service",
    "serving.admission",
    "serving.degraded",
)

#: (b) exact counters, read from the program's public stats objects.
COUNTERS: List[Metric] = [
    Metric("core.snapshot.hit_rate", "share", "higher"),
    Metric("core.snapshot.builds", "count", "lower"),
    Metric("core.frozen.served_share", "share", "higher"),
    Metric("core.frozen.stale_misses", "count", "lower"),
    Metric("distributed.client.coalesce_rate", "share", "higher"),
    Metric("distributed.rpc.messages_per_op", "1/op", "lower"),
    Metric("distributed.rpc.bytes_per_op", "B/op", "lower"),
    Metric("distributed.server.shard_imbalance", "x", "lower"),
    Metric("gnn.samplers.expanded_per_seed", "1/seed", "lower"),
    Metric("gnn.training.final_loss", "nats", "lower"),
    Metric("storage.wal.bytes_per_op", "B/op", "lower"),
    Metric("serving.service.mean_batch_size", "req", "higher"),
    Metric("serving.admission.shed_share", "share", "lower"),
    Metric("serving.degraded.answer_share", "share", "lower"),
]

#: (c) ungated wall timings, from the untraced reference pass of a
#: traced run.  The three ``distributed.client.*_per_s`` figures are the
#: issue's workload-specific end-to-end throughputs the driver's flat
#: list has no slot for; they are measured at the client boundary.
TIMINGS: List[Metric] = [
    Metric("gnn.training.step_ms_p99", "ms", "lower"),
    Metric("core.topology.update_batch_ms_p99", "ms", "lower"),
    Metric("serving.service.flush_ms_p99", "ms", "lower"),
    Metric("serving.service.submit_us_p50", "us", "lower"),
    Metric("storage.checkpoint.checkpoint_s", "s", "lower"),
    Metric("storage.checkpoint.recover_s", "s", "lower"),
    Metric("serving.service.flush_ms_p50.r250", "ms", "lower"),
    Metric("serving.service.flush_ms_p50.r4000", "ms", "lower"),
    Metric("distributed.client.update_ops_per_s", "ops/s", "higher"),
    Metric("distributed.client.ingest_edges_per_s", "edges/s", "higher"),
    Metric("distributed.client.scalar_ops_per_s", "ops/s", "higher"),
]

#: (d) the ladder, outermost rung last within each group.  ``vps`` is
#: frontier vertices per second, ``sps`` seeds per second.
LADDER: List[Metric] = [
    Metric("core.frozen.sample_matrix_vps", "1/s", "higher"),
    Metric("core.topology.sample_many_frozen_vps", "1/s", "higher"),
    Metric("core.topology.sample_many_warm_vps", "1/s", "higher"),
    Metric("core.topology.sample_scalar_vps", "1/s", "higher"),
    Metric("gnn.samplers.neighbor_matrix_vps", "1/s", "higher"),
    Metric("distributed.server.sample_many_vps", "1/s", "higher"),
    Metric("distributed.client.sample_many_frozen_vps", "1/s", "higher"),
    Metric("distributed.client.sample_many_default_vps", "1/s", "higher"),
    Metric("gnn.samplers.blocks_2hop_store_sps", "1/s", "higher"),
    Metric("gnn.samplers.blocks_2hop_client_sps", "1/s", "higher"),
    Metric("gnn.samplers.blocks_2hop_client_default_sps", "1/s", "higher"),
    Metric("distributed.client.tax_2hop_x", "x", "lower"),
    Metric("storage.attributes.gather_rows_per_s", "1/s", "higher"),
    Metric("gnn.models.fwd_bwd_seeds_per_s", "1/s", "higher"),
    Metric("core.frozen.compile_edges_per_s", "1/s", "higher"),
    Metric("core.topology.bulk_load_edges_per_s", "1/s", "higher"),
    Metric("core.topology.apply_batch_ops_per_s", "1/s", "higher"),
]


def per_layer() -> List[Metric]:
    """Every per-layer metric, in report order."""
    shares: List[Metric] = []
    for layer in LAYERS:
        shares.append(Metric(f"{layer}.self_share", "share", "lower"))
        shares.append(Metric(f"{layer}.calls", "count", "lower"))
    shares.append(Metric("harness.self_share", "share", "lower"))
    shares.append(Metric("trace_overhead_pct", "%", "lower"))
    return shares + COUNTERS + TIMINGS + LADDER


def windows_for(seconds: float) -> int:
    """Measured windows of a run sized for ``seconds`` of work."""
    return max(2, round(BASE_WINDOWS * seconds / BASE_SECONDS))
