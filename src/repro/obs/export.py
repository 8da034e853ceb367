"""Exporters: Prometheus text exposition, JSON dump, and a format linter.

``to_prometheus_text`` renders a :class:`~repro.obs.registry.MetricsRegistry`
in the Prometheus text exposition format (version 0.0.4): one
``# HELP`` / ``# TYPE`` header per metric family, one sample line per
labeled child, and the standard cumulative ``_bucket``/``_sum``/``_count``
triplet for histograms (bucket upper bounds are the log₂ histogram's
:meth:`~repro.obs.hist.LatencyHistogram.bucket_bounds`, in seconds, with
a final ``+Inf``).

``lint_prometheus`` is the checker the CI ``obs-smoke`` job runs over
the CLI's export — the container has no ``promtool``, so the subset of
the grammar that matters is enforced here: name/label syntax, TYPE
validity, header-before-samples ordering, parseable float values,
duplicate series detection, and histogram completeness (monotone
cumulative buckets, ``+Inf`` bucket, ``_count`` == ``+Inf``,
``_sum``/``_count`` present).

``to_json`` emits the same registry (plus, optionally, a tracer's
archived traces) as one JSON-ready dict — the payload benchmarks embed
in their ``BENCH_*.json`` records.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.errors import ReproError
from repro.obs.registry import MetricsRegistry, metric_key

__all__ = [
    "PrometheusFormatError",
    "lint_prometheus",
    "to_json",
    "to_prometheus_text",
]


class PrometheusFormatError(ReproError):
    """The exposition text violates the Prometheus text format."""


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_labels(items) -> str:
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items)
    return "{" + inner + "}"


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    emitted_header: set = set()

    def header(name: str, kind: str) -> None:
        if name in emitted_header:
            return
        emitted_header.add(name)
        help_text = registry.help_for(name) or name.replace("_", " ")
        lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")

    for sample in registry.collect():
        header(sample.name, sample.kind)
        lines.append(
            f"{sample.name}{_fmt_labels(sample.labels)} "
            f"{_fmt_value(sample.value)}"
        )

    for name, _, labels, hist in registry.collect_histograms():
        header(name, "histogram")
        cumulative = 0
        counts = hist.bucket_counts()
        bounds = hist.bucket_bounds()
        les = [
            "+Inf" if hi == math.inf else repr(hi) for _, hi in bounds
        ]
        for le, count in zip(les, counts):
            cumulative += count
            le_labels = tuple(labels) + (("le", le),)
            lines.append(
                f"{name}_bucket{_fmt_labels(le_labels)} {cumulative}"
            )
        lines.append(
            f"{name}_sum{_fmt_labels(labels)} {_fmt_value(hist.sum)}"
        )
        lines.append(f"{name}_count{_fmt_labels(labels)} {hist.count}")

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON dump
# ---------------------------------------------------------------------------
def to_json(
    registry: MetricsRegistry, tracer=None, top_slow: int = 5
) -> Dict[str, object]:
    """One JSON-ready document: metrics, histograms, optional traces."""
    doc: Dict[str, object] = {
        "metrics": {
            s.key: {"kind": s.kind, "value": s.value}
            for s in registry.collect()
        },
        "histograms": {},
    }
    for name, _, labels, hist in registry.collect_histograms():
        summary = hist.summary()
        summary["buckets"] = hist.bucket_counts()
        doc["histograms"][metric_key(name, labels)] = summary
    if tracer is not None:
        doc["slow_traces"] = [
            span.to_dict() for span in tracer.top_slow(top_slow)
        ]
        doc["traces_archived"] = len(tracer.finished)
    return doc


# ---------------------------------------------------------------------------
# the exposition-format linter (CI's promtool stand-in)
# ---------------------------------------------------------------------------
import re

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)
_VALID_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def _base_family(name: str, types: Dict[str, str]) -> str:
    """Map ``x_bucket``/``x_sum``/``x_count`` to family ``x`` when ``x``
    is a declared histogram/summary."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) in ("histogram", "summary"):
                return base
    return name


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise PrometheusFormatError(f"unparseable sample value {raw!r}")


def lint_prometheus(text: str) -> Dict[str, int]:
    """Validate Prometheus text exposition; raises
    :class:`PrometheusFormatError` on the first violation.

    Returns ``{"families": n, "samples": m}`` on success so callers can
    assert non-emptiness.
    """
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    seen_series: set = set()
    samples_by_family: Dict[str, List] = {}
    families_with_samples: List[str] = []
    n_samples = 0

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # plain comment
            keyword, name = parts[1], parts[2]
            if not _METRIC_NAME.match(name):
                raise PrometheusFormatError(
                    f"line {lineno}: invalid metric name {name!r}"
                )
            if keyword == "TYPE":
                if len(parts) != 4 or parts[3] not in _VALID_TYPES:
                    raise PrometheusFormatError(
                        f"line {lineno}: invalid TYPE for {name}"
                    )
                if name in types:
                    raise PrometheusFormatError(
                        f"line {lineno}: duplicate TYPE for {name}"
                    )
                if name in samples_by_family:
                    raise PrometheusFormatError(
                        f"line {lineno}: TYPE for {name} after its samples"
                    )
                types[name] = parts[3]
            else:
                if name in helps:
                    raise PrometheusFormatError(
                        f"line {lineno}: duplicate HELP for {name}"
                    )
                helps[name] = parts[3] if len(parts) == 4 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise PrometheusFormatError(
                f"line {lineno}: unparseable sample line {line!r}"
            )
        name = match.group("name")
        label_blob = match.group("labels")
        labels = []
        if label_blob:
            pos = 0
            while pos < len(label_blob):
                pair = _LABEL_PAIR_RE.match(label_blob, pos)
                if pair is None:
                    raise PrometheusFormatError(
                        f"line {lineno}: malformed label set "
                        f"{{{label_blob}}}"
                    )
                labels.append((pair.group(1), pair.group(2)))
                pos = pair.end()
                if pos < len(label_blob):
                    if label_blob[pos] != ",":
                        raise PrometheusFormatError(
                            f"line {lineno}: malformed label set "
                            f"{{{label_blob}}}"
                        )
                    pos += 1
            for key, _ in labels:
                if not _LABEL_NAME.match(key):
                    raise PrometheusFormatError(
                        f"line {lineno}: invalid label name {key!r}"
                    )
        value = _parse_value(match.group("value"))
        series = (name, tuple(sorted(labels)))
        if series in seen_series:
            raise PrometheusFormatError(
                f"line {lineno}: duplicate series "
                f"{metric_key(name, tuple(sorted(labels)))}"
            )
        seen_series.add(series)
        family = _base_family(name, types)
        if family not in samples_by_family:
            samples_by_family[family] = []
            families_with_samples.append(family)
        samples_by_family[family].append((name, dict(labels), value))
        n_samples += 1

    # Histogram completeness: per label set, cumulative monotone buckets
    # ending in +Inf, with matching _count and a _sum.
    for family, kind in types.items():
        if kind != "histogram" or family not in samples_by_family:
            continue
        buckets: Dict[tuple, List] = {}
        sums: Dict[tuple, float] = {}
        counts: Dict[tuple, float] = {}
        for name, labels, value in samples_by_family[family]:
            if name == family + "_bucket":
                le = labels.pop("le", None)
                if le is None:
                    raise PrometheusFormatError(
                        f"{family}_bucket sample without an le label"
                    )
                key = tuple(sorted(labels.items()))
                bound = math.inf if le == "+Inf" else _parse_value(le)
                buckets.setdefault(key, []).append((bound, value))
            elif name == family + "_sum":
                sums[tuple(sorted(labels.items()))] = value
            elif name == family + "_count":
                counts[tuple(sorted(labels.items()))] = value
        for key, series in buckets.items():
            series.sort(key=lambda bv: bv[0])
            if not series or series[-1][0] != math.inf:
                raise PrometheusFormatError(
                    f"histogram {family}{dict(key)} lacks a +Inf bucket"
                )
            last = -math.inf
            for bound, cumulative in series:
                if cumulative < last:
                    raise PrometheusFormatError(
                        f"histogram {family}{dict(key)} buckets are not "
                        f"cumulative at le={bound}"
                    )
                last = cumulative
            if key not in counts:
                raise PrometheusFormatError(
                    f"histogram {family}{dict(key)} lacks _count"
                )
            if key not in sums:
                raise PrometheusFormatError(
                    f"histogram {family}{dict(key)} lacks _sum"
                )
            if counts[key] != series[-1][1]:
                raise PrometheusFormatError(
                    f"histogram {family}{dict(key)}: _count "
                    f"{counts[key]} != +Inf bucket {series[-1][1]}"
                )

    return {"families": len(families_with_samples), "samples": n_samples}
