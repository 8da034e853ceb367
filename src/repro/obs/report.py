"""The human-facing observability report (backs ``repro obs``).

Renders, from a live cluster / registry / tracer:

* a per-shard load table with skew factors (max/mean of edges and of
  sample requests — the imbalance a rebalancer would act on);
* the cross-layer counter digest: snapshot cache, columnar ingest,
  retries, injected faults, network, and WAL ledgers;
* the top-k slow traces as indented span trees with per-span durations
  and tags.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.memory import humanize_bytes
from repro.obs.registry import RegistrySnapshot

__all__ = ["render_report", "render_span_tree"]


def _sum_by_name(snap: RegistrySnapshot, name: str) -> float:
    """Sum one metric across every label set (cluster-wide totals)."""
    total = 0.0
    for key, value in snap.scalars.items():
        base = key.split("{", 1)[0]
        if base == name:
            total += value
    return total


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.3f}"


def _counter_digest(snap: RegistrySnapshot) -> List[str]:
    lines: List[str] = []

    def row(title: str, parts: Dict[str, str]) -> None:
        body = "  ".join(f"{k}={v}" for k, v in parts.items())
        lines.append(f"  {title:<10} {body}")

    hits = _sum_by_name(snap, "repro_snapshot_cache_hits")
    misses = _sum_by_name(snap, "repro_snapshot_cache_misses")
    total = hits + misses
    row(
        "cache",
        {
            "hits": _fmt(hits),
            "misses": _fmt(misses),
            "hit_rate": f"{hits / total:.2%}" if total else "n/a",
            "builds": _fmt(_sum_by_name(snap, "repro_snapshot_cache_builds")),
            "evictions": _fmt(_sum_by_name(snap, "repro_snapshot_cache_evictions")),
            "invalidations": _fmt(
                _sum_by_name(snap, "repro_snapshot_cache_invalidations")
            ),
            "compactions": _fmt(
                _sum_by_name(snap, "repro_snapshot_cache_compactions")
            ),
        },
    )
    row(
        "ingest",
        {
            "ops": _fmt(_sum_by_name(snap, "repro_ingest_ops")),
            "inserted": _fmt(_sum_by_name(snap, "repro_ingest_inserted")),
            "removed": _fmt(_sum_by_name(snap, "repro_ingest_removed")),
            "rebuilt": _fmt(_sum_by_name(snap, "repro_ingest_trees_rebuilt")),
            "incremental": _fmt(
                _sum_by_name(snap, "repro_ingest_trees_incremental")
            ),
        },
    )
    batches = _sum_by_name(snap, "repro_cache_batches")
    if batches:
        sources = _sum_by_name(snap, "repro_cache_sources")
        coalesced = _sum_by_name(snap, "repro_cache_coalesced_sources")
        row(
            "serving",
            {
                "batches": _fmt(batches),
                "sources": _fmt(sources),
                "coalesce_rate": (
                    f"{coalesced / sources:.2%}" if sources else "n/a"
                ),
                "hot_reads": _fmt(_sum_by_name(snap, "repro_cache_hot_reads")),
                "spread": _fmt(
                    _sum_by_name(snap, "repro_cache_spread_reads")
                ),
            },
        )
    submitted = _sum_by_name(snap, "repro_serving_submitted")
    if submitted:
        answered = _sum_by_name(
            snap, "repro_serving_answered_fresh"
        ) + _sum_by_name(snap, "repro_serving_answered_degraded")
        shed = (
            _sum_by_name(snap, "repro_serving_shed_queue_full")
            + _sum_by_name(snap, "repro_serving_shed_deadline_hopeless")
            + _sum_by_name(snap, "repro_serving_shed_breaker_open")
        )
        row(
            "inference",
            {
                "submitted": _fmt(submitted),
                "answered": _fmt(answered),
                "degraded": _fmt(
                    _sum_by_name(snap, "repro_serving_answered_degraded")
                ),
                "shed": _fmt(shed),
                "missed": _fmt(
                    _sum_by_name(snap, "repro_serving_deadline_missed")
                ),
                "availability": f"{_sum_by_name(snap, 'repro_serving_availability'):.2%}",
            },
        )
    observations = _sum_by_name(snap, "repro_hotset_observations")
    if observations:
        row(
            "hotset",
            {
                "observed": _fmt(observations),
                "tracked": _fmt(_sum_by_name(snap, "repro_hotset_tracked")),
                "replacements": _fmt(
                    _sum_by_name(snap, "repro_hotset_replacements")
                ),
                "decays": _fmt(_sum_by_name(snap, "repro_hotset_decays")),
            },
        )
    row(
        "retries",
        {
            "attempts": _fmt(_sum_by_name(snap, "repro_retry_attempts")),
            "retries": _fmt(_sum_by_name(snap, "repro_retry_retries")),
            "recoveries": _fmt(_sum_by_name(snap, "repro_retry_recoveries")),
            "exhausted": _fmt(_sum_by_name(snap, "repro_retry_exhausted")),
            "backoff_s": f"{_sum_by_name(snap, 'repro_retry_backoff_seconds'):.4f}",
        },
    )
    row(
        "faults",
        {
            "transient": _fmt(_sum_by_name(snap, "repro_faults_transient_errors")),
            "spikes": _fmt(_sum_by_name(snap, "repro_faults_latency_spikes")),
            "crashes": _fmt(_sum_by_name(snap, "repro_faults_crashes")),
            "refused": _fmt(
                _sum_by_name(snap, "repro_faults_refused_while_down")
            ),
        },
    )
    row(
        "network",
        {
            "messages": _fmt(_sum_by_name(snap, "repro_network_messages")),
            "bytes": _fmt(_sum_by_name(snap, "repro_network_payload_bytes")),
            "sim_s": f"{_sum_by_name(snap, 'repro_network_simulated_seconds'):.4f}",
        },
    )
    row(
        "wal",
        {
            "appended": _fmt(_sum_by_name(snap, "repro_wal_records_appended")),
            "replayed": _fmt(
                _sum_by_name(snap, "repro_server_wal_records_replayed")
            ),
            "recoveries": _fmt(_sum_by_name(snap, "repro_server_recoveries")),
        },
    )
    return lines


def _shard_table(cluster, snap: RegistrySnapshot) -> List[str]:
    infos = cluster.shard_infos()
    lines = [
        f"  {'shard':>5} {'sources':>9} {'edges':>10} {'memory':>10} "
        f"{'live':>4} {'sample_rq':>9} {'write_rq':>8} {'refused':>7}"
    ]
    edges: List[float] = []
    sample_rq: List[float] = []
    for info in infos:
        shard = info.shard_id
        srq = wrq = refused = 0.0
        for r, _ in enumerate(cluster.replica_groups[shard]):
            labels = f'{{replica="{r}",shard="{shard}"}}'
            srq += snap.get(f"repro_server_sample_requests{labels}")
            wrq += snap.get(f"repro_server_update_requests{labels}")
            wrq += snap.get(f"repro_server_ingest_requests{labels}")
            refused += snap.get(f"repro_server_refused_requests{labels}")
        edges.append(float(info.num_edges))
        sample_rq.append(srq)
        lines.append(
            f"  {shard:>5} {info.num_sources:>9,} {info.num_edges:>10,} "
            f"{humanize_bytes(info.nbytes):>10} {info.live_replicas:>4} "
            f"{int(srq):>9,} {int(wrq):>8,} {int(refused):>7,}"
        )

    def skew(values: List[float]) -> str:
        mean = sum(values) / len(values) if values else 0.0
        if mean <= 0:
            return "n/a"
        return f"{max(values) / mean:.2f}x"

    lines.append(
        f"  skew: edges max/mean = {skew(edges)}; "
        f"sample requests max/mean = {skew(sample_rq)}"
    )
    return lines


def render_span_tree(span, indent: int = 0) -> List[str]:
    """Indented one-line-per-span rendering of a trace tree."""
    tags = " ".join(
        f"{k}={v}" for k, v in sorted(span.tags.items(), key=lambda kv: kv[0])
    )
    marker = "" if span.status == "ok" else f" !{span.status}"
    head = "  " * indent + ("- " if indent else "")
    lines = [
        f"    {head}{span.name} {span.duration * 1e3:.3f}ms"
        f"{marker}" + (f" [{tags}]" if tags else "")
    ]
    for child in span.children:
        lines.extend(render_span_tree(child, indent + 1))
    return lines


def render_report(cluster=None, tracer=None, top_k: int = 5) -> str:
    """Render the full observability report as one string."""
    registry = getattr(cluster, "registry", None)
    if tracer is None:
        tracer = getattr(cluster, "tracer", None)
    lines: List[str] = ["== repro observability report =="]
    snap = registry.snapshot() if registry is not None else None

    if cluster is not None and snap is not None:
        lines.append("")
        lines.append("-- per-shard load --")
        lines.extend(_shard_table(cluster, snap))

    if snap is not None:
        lines.append("")
        lines.append("-- counters --")
        lines.extend(_counter_digest(snap))
        if snap.histograms:
            lines.append("")
            lines.append("-- latency histograms --")
            for name, _, labels, hist in registry.collect_histograms():
                if hist.count == 0:
                    continue
                s = hist.summary()
                label_txt = " ".join(f"{k}={v}" for k, v in labels)
                lines.append(
                    f"  {name}{(' [' + label_txt + ']') if label_txt else ''}: "
                    f"n={int(s['count'])} mean={s['mean'] * 1e3:.3f}ms "
                    f"p50={s['p50'] * 1e3:.3f}ms p99={s['p99'] * 1e3:.3f}ms "
                    f"max={s['max'] * 1e3:.3f}ms"
                )

    if tracer is not None:
        slow = tracer.top_slow(top_k)
        lines.append("")
        lines.append(
            f"-- top {len(slow)} slow traces "
            f"({len(tracer.finished)} archived) --"
        )
        if not slow:
            lines.append("    (no traces recorded)")
        for rank, root in enumerate(slow, 1):
            lines.append(
                f"  #{rank} trace {root.trace_id}: "
                f"{root.duration * 1e3:.3f}ms"
            )
            lines.extend(render_span_tree(root))
    return "\n".join(lines)
