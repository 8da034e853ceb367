"""Unified telemetry layer: metrics registry, request tracing, exporters.

The paper's production claim — PlatoD2GL serving WeChat live-streaming
GNN training under continuous churn — rests on the system being able to
*see itself*: per-operation tail latencies, shard skew, retry storms,
cache-hit decay.  This package is the cross-cutting layer every
subsystem reports into:

* :mod:`repro.obs.hist` — the log₂ :class:`LatencyHistogram`, with
  exact bucket bounds, merge, and snapshot state;
* :mod:`repro.obs.registry` — a :class:`MetricsRegistry` of named
  counters, gauges, and histograms with labels; it *watches* each
  ``*Stats`` holder through one getter (:meth:`MetricsRegistry.watch`:
  a series per counter field and declared gauge, pull-based, so hot
  paths keep their plain attribute increments and pay **zero**
  collection cost until a snapshot or export materialises them);
* :mod:`repro.obs.telemetry` — the one instrumentation seam: the
  :class:`Telemetry` hub every layer emits spans and flight events
  through (a cluster owns one and shares it by reference), and the
  :class:`Stats` base the ``*Stats`` counter holders take ``reset`` /
  ``to_dict`` / ``merge_from`` from;
* :mod:`repro.obs.trace` — structured tracing: a :class:`Tracer`
  producing span trees (trace/span/parent ids, wall or simulated
  clocks, tags) into a recent-trace and a slow-trace ring buffer;
* :mod:`repro.obs.export` — Prometheus text exposition, JSON dump, and
  the exposition-format linter CI uses;
* :mod:`repro.obs.report` — the human ``repro obs`` report (per-shard
  skew table, top-k slow traces, cache/retry/WAL counters);
* :mod:`repro.obs.doctor` — the samtree doctor: structural-health
  diagnosis (depth/fill histograms, α-Split pivot quality, FSTable vs
  CSTable counts) plus the per-component memory breakdown whose sum
  equals the store's ``nbytes()`` (DESIGN.md §12);
* :mod:`repro.obs.monitor` — continuous monitoring: a
  :class:`TimeSeriesStore` scraping the registry on the (simulated)
  clock with PromQL-flavored window queries (``rate``, ``increase``,
  ``avg/max_over_time``, ``quantile_over_time`` via windowed histogram
  state subtraction) and counter-reset correction, driven by a
  :class:`Monitor` scrape loop (DESIGN.md §16);
* :mod:`repro.obs.alerts` — multi-window multi-burn-rate SLO rules and
  threshold rules with the pending→firing→resolved lifecycle and an
  event timeline (:class:`AlertManager`);
* :mod:`repro.obs.critical` — critical-path analysis over tracer span
  trees: the self-time segments that bound a request's end-to-end
  duration, aggregated into a per-layer table
  (:func:`analyze_critical_paths`);
* :mod:`repro.obs.flight` — the flight recorder: bounded, preallocated
  per-category ring buffers of cheap structured events (admission
  decisions, breaker transitions, fault injections, retries, WAL
  activity, replica drops, alert transitions, chaos schedule),
  appended on the simulated clock by hooks in every layer (DESIGN.md
  §17);
* :mod:`repro.obs.incident` — alert-triggered incident bundles: the
  recorder rings + metrics snapshot/window diff + series windows +
  slow traces + doctor digest + scenario spec/seeds, frozen at the
  firing instant and serialized as JSON bundle directories;
* :mod:`repro.obs.replay` — deterministic replay: rebuild the rig from
  a bundle's spec, re-run the captured window, and verify the same
  alert fires at the same simulated instant with a matching event
  stream.
"""

from repro.obs.alerts import (
    Alert,
    AlertEvent,
    AlertManager,
    AlertRule,
    BurnRateRule,
    ThresholdRule,
    default_serving_rules,
)
from repro.obs.critical import (
    CriticalPathReport,
    CriticalSegment,
    analyze_critical_paths,
    critical_path,
    layer_for,
)
from repro.obs.doctor import (
    DoctorReport,
    check_thresholds,
    diagnose,
    diagnose_cluster,
    diagnose_store,
    parse_fail_on,
)
from repro.obs.export import (
    PrometheusFormatError,
    lint_prometheus,
    to_json,
    to_prometheus_text,
)
from repro.obs.flight import EventRing, FlightRecorder
from repro.obs.hist import LatencyHistogram
from repro.obs.incident import (
    IncidentManager,
    list_bundles,
    load_bundle,
    write_bundle,
)
from repro.obs.monitor import Monitor, TimeSeriesStore
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    RegistrySnapshot,
)
from repro.obs.replay import (
    ReplayResult,
    build_rig_from_spec,
    make_spec,
    replay_bundle,
    scenario_from_spec,
)
from repro.obs.report import render_report
from repro.obs.telemetry import Stats, Telemetry
from repro.obs.trace import Span, Tracer

__all__ = [
    "Alert",
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "BurnRateRule",
    "Counter",
    "CriticalPathReport",
    "CriticalSegment",
    "DoctorReport",
    "EventRing",
    "FlightRecorder",
    "Gauge",
    "IncidentManager",
    "LatencyHistogram",
    "MetricsRegistry",
    "Monitor",
    "PrometheusFormatError",
    "RegistrySnapshot",
    "ReplayResult",
    "Span",
    "Stats",
    "Telemetry",
    "ThresholdRule",
    "TimeSeriesStore",
    "Tracer",
    "analyze_critical_paths",
    "build_rig_from_spec",
    "check_thresholds",
    "critical_path",
    "default_serving_rules",
    "diagnose",
    "diagnose_cluster",
    "diagnose_store",
    "layer_for",
    "lint_prometheus",
    "list_bundles",
    "load_bundle",
    "make_spec",
    "parse_fail_on",
    "render_report",
    "replay_bundle",
    "scenario_from_spec",
    "to_json",
    "to_prometheus_text",
    "write_bundle",
]
