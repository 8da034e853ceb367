"""The human-facing observability report (backs ``repro obs``).

Renders, from a live cluster / registry / tracer:

* a per-shard load table with skew factors (max/mean of edges and of
  sample requests);
* the counter digest: one row per ``*Stats`` family the registry
  watches (:meth:`~repro.obs.registry.MetricsRegistry.watch`), summed
  over shards and replicas, so a new family or field shows up unasked;
* the top-k slow traces as indented span trees with per-span durations
  and tags.
"""

from __future__ import annotations

from typing import List

from repro.core.memory import humanize_bytes
from repro.obs.registry import MetricsRegistry

__all__ = ["render_report", "render_span_tree"]


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.3f}"


def _counter_digest(registry: MetricsRegistry) -> List[str]:
    """One row per watched ``*Stats`` family with a non-zero counter, in
    registration order: its counters summed over every label set, then
    its class's ``DERIVED`` read-outs computed on that sum."""
    lines: List[str] = []
    for prefix, getters in registry.watched().items():
        holders = [h for h in (get() for get in getters) if h is not None]
        if not holders:
            continue
        first = holders[0]
        sums = {
            name: sum(getattr(h, name) for h in holders)
            for name in first.counters()
        }
        if not any(sums.values()):
            continue
        derived = getattr(first, "DERIVED", ())
        if derived:
            total = type(first)(**sums)
            sums.update((name, getattr(total, name)) for name in derived)
        body = "  ".join(f"{k}={_fmt(v)}" for k, v in sums.items())
        lines.append(f"  {prefix.partition('_')[2]:<14} {body}")
    return lines


def _shard_table(cluster) -> List[str]:
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
        for server in cluster.replica_groups[shard]:
            stats = server.stats
            srq += stats.sample_requests
            wrq += stats.update_requests + stats.ingest_requests
            refused += stats.refused_requests
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

    if registry is not None:
        lines.append("")
        lines.append("-- per-shard load --")
        lines.extend(_shard_table(cluster))
        lines.append("")
        lines.append("-- counters --")
        lines.extend(_counter_digest(registry))
        histograms = registry.collect_histograms()
        if histograms:
            lines.append("")
            lines.append("-- latency histograms --")
            for name, _, labels, hist in histograms:
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
