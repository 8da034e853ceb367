"""MetricsRegistry: named counters, gauges, and histograms with labels.

One registry instance is the aggregation point of a deployment — a
:class:`~repro.distributed.cluster.LocalCluster` owns one, and
exporters (:mod:`repro.obs.export`) and the ``repro obs`` report read
it.

Three kinds of entries coexist:

* **owned metrics** — :class:`Counter` / :class:`Gauge` /
  :class:`~repro.obs.hist.LatencyHistogram` objects created through
  :meth:`MetricsRegistry.counter` & friends; callers mutate them
  directly (``c.inc()``, ``h.record(dt)``);
* **watched holders** — zero-copy read-throughs over the ``*Stats``
  holders (:meth:`MetricsRegistry.watch`): one getter per holder, one
  series per counter field and declared gauge.  The holders keep their
  plain attribute increments — the hot paths pay nothing — and the
  registry materialises their values only when a snapshot or export
  asks;
* **views** — one callback per series
  (:meth:`MetricsRegistry.register_view`), for a read-out no holder
  field carries (a monitor's scrape count, a tracker's size).

Metric identity is ``(name, sorted labels)``; names follow the
``repro_<subsystem>_<metric>`` scheme (see DESIGN.md §11) and must match
the Prometheus name grammar so the text exposition always lints.

:meth:`MetricsRegistry.snapshot` captures every scalar and histogram;
:meth:`RegistrySnapshot.diff` subtracts an earlier snapshot, so a
workload's own counts can be isolated (before/after equality is pinned
in ``tests/test_obs.py``).
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.hist import LatencyHistogram

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "RegistrySnapshot",
    "Sample",
    "metric_key",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Canonical label tuple: sorted ``(key, value)`` pairs, values stringified.
LabelItems = Tuple[Tuple[str, str], ...]


def _canon_labels(labels: Dict[str, object]) -> LabelItems:
    items = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    for k, _ in items:
        if not _LABEL_RE.match(k):
            raise ConfigurationError(f"invalid label name {k!r}")
    return items


def metric_key(name: str, labels: LabelItems) -> str:
    """Canonical ``name{k="v",...}`` identity string (snapshot keys)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter (owned metric)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; use a gauge (got {amount})"
            )
        self.value += amount


class Gauge:
    """Point-in-time value (owned metric)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Sample:
    """One materialised scalar: ``(name, kind, help, labels, value)``."""

    __slots__ = ("name", "kind", "help", "labels", "value")

    def __init__(self, name, kind, help_text, labels, value) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labels = labels
        self.value = value

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)


class _Entry:
    """Registry slot: an owned metric, a view callback, or one field of
    a watched holder."""

    __slots__ = (
        "name", "kind", "help", "labels", "obj", "read", "field", "key"
    )

    def __init__(
        self, name, kind, help_text, labels, obj, read, field
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labels = labels
        self.obj = obj  # owned metric / histogram, or None for views
        self.read = read  # a view's () -> float, a field's () -> holder
        self.field = field  # the holder attribute a watched field reads
        # Canonical string identity, computed once: snapshot() runs on
        # the monitor's scrape cadence, so per-collect key building is
        # measurable registry-width work (bench_monitoring gates it).
        self.key = metric_key(name, labels)

    def value(self) -> float:
        """The scalar's current value (a down holder reads 0)."""
        if self.read is None:
            return self.obj.value
        if self.field is None:
            return self.read()
        holder = self.read()
        return getattr(holder, self.field) if holder is not None else 0.0


class RegistrySnapshot:
    """Materialised registry state at one instant.

    ``scalars`` maps canonical keys to float values; ``histograms`` maps
    keys to ``(buckets, count, sum, max)`` states.  :meth:`diff`
    subtracts an earlier snapshot — counter deltas clamp at zero (a
    ``reset_stats`` between snapshots would otherwise yield negative
    "work"), gauges keep signed deltas, and histograms subtract
    bucket-wise with the same clamp.  ``resets`` on the returned
    snapshot counts how many series were clamped, so callers (the
    bench-overhead gate, ``rate()``) can tell a quiet window from a
    reset one.
    """

    __slots__ = ("scalars", "histograms", "kinds", "resets")

    def __init__(
        self,
        scalars: Dict[str, float],
        histograms: Dict[str, Tuple[Tuple[int, ...], int, float, float]],
        kinds: Dict[str, str],
        resets: int = 0,
    ) -> None:
        self.scalars = scalars
        self.histograms = histograms
        self.kinds = kinds
        #: Series whose counter went *backwards* across a :meth:`diff`
        #: (0 on snapshots that are not diffs).
        self.resets = resets

    def diff(self, before: "RegistrySnapshot") -> "RegistrySnapshot":
        """This snapshot minus ``before`` (a workload's own counts)."""
        scalars: Dict[str, float] = {}
        resets = 0
        for key, value in self.scalars.items():
            delta = value - before.scalars.get(key, 0.0)
            if delta < 0 and self.kinds.get(key) == "counter":
                # Counter reset between the snapshots: the pre-reset
                # tail is unknowable, so clamp instead of going
                # negative and flag it through ``resets``.
                delta = 0.0
                resets += 1
            scalars[key] = delta
        hists = {}
        for key, (buckets, count, total, mx) in self.histograms.items():
            b0, c0, t0, _ = before.histograms.get(
                key, ((0,) * len(buckets), 0, 0.0, 0.0)
            )
            if count < c0:
                resets += 1
            hists[key] = (
                tuple(max(0, b - a) for b, a in zip(buckets, b0)),
                max(0, count - c0),
                max(0.0, total - t0),
                mx,  # max is not subtractable; keep the later max
            )
        return RegistrySnapshot(scalars, hists, dict(self.kinds), resets)

    def get(self, key: str, default: float = 0.0) -> float:
        return self.scalars.get(key, default)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (benchmarks embed this in ``BENCH_*.json``)."""
        return {
            "resets": self.resets,
            "scalars": dict(sorted(self.scalars.items())),
            "histograms": {
                key: {
                    "count": count,
                    "sum": total,
                    "max": mx,
                    "buckets": list(buckets),
                }
                for key, (buckets, count, total, mx) in sorted(
                    self.histograms.items()
                )
            },
        }


class MetricsRegistry:
    """Shared registry of named metrics with labels.

    Thread-safe for registration (a lock guards the table); owned-metric
    mutation relies on the GIL exactly as the legacy ``*Stats`` holders
    always have.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, LabelItems], _Entry] = {}
        self._help: Dict[str, str] = {}
        self._kind: Dict[str, str] = {}
        self._lock = threading.Lock()
        # Sorted-entry cache: registration is rare, collection runs on
        # the monitor's scrape cadence.  Invalidated on every new slot.
        self._sorted: Optional[List[_Entry]] = None

    # ------------------------------------------------------------------
    # registration internals
    # ------------------------------------------------------------------
    def _slot(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Dict[str, object],
        factory: Callable[[], object],
        read: Optional[Callable[[], object]],
        allow_existing: bool = True,
        field: Optional[str] = None,
    ) -> _Entry:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        items = _canon_labels(labels)
        key = (name, items)
        with self._lock:
            existing_kind = self._kind.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{existing_kind}, not {kind}"
                )
            entry = self._entries.get(key)
            if entry is not None:
                if not allow_existing or entry.obj is None:
                    raise ConfigurationError(
                        f"metric {metric_key(name, items)} already registered"
                    )
                return entry
            obj = factory()
            entry = _Entry(name, kind, help_text, items, obj, read, field)
            self._entries[key] = entry
            self._sorted = None
            self._kind[name] = kind
            if help_text or name not in self._help:
                self._help[name] = help_text
            return entry

    # ------------------------------------------------------------------
    # owned metrics
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Create-or-get the :class:`Counter` at ``(name, labels)``."""
        return self._slot(name, "counter", help, labels, Counter, None).obj

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """Create-or-get the :class:`Gauge` at ``(name, labels)``."""
        return self._slot(name, "gauge", help, labels, Gauge, None).obj

    def histogram(self, name: str, help: str = "", **labels) -> LatencyHistogram:
        """Create-or-get the labeled :class:`LatencyHistogram`."""
        return self._slot(
            name, "histogram", help, labels, LatencyHistogram, None
        ).obj

    # ------------------------------------------------------------------
    # views (pull-based: read the source of truth at collection time)
    # ------------------------------------------------------------------
    def watch(
        self, prefix: str, holder: Callable[[], object], **labels
    ) -> bool:
        """Export a ``*Stats`` holder: ``{prefix}_{field}`` per counter
        of ``holder().counters()`` and per name its class lists in
        ``GAUGES`` (those as gauges).

        ``holder`` is called at every snapshot/export, so an owner that
        swaps the object behind it — ``GraphServer.recover`` its store,
        a new ``InferenceService`` the cluster's — stays visible, and
        while it returns ``None`` (a crashed replica's store) the series
        read 0.  The holder present now fixes the series; with none,
        nothing is registered and ``False`` is returned.
        """
        stats = holder()
        if stats is None:
            return False
        counters = stats.counters()
        gauges = getattr(stats, "GAUGES", ())
        what = prefix.replace("_", " ")
        for field in counters + tuple(g for g in gauges if g not in counters):
            kind = "gauge" if field in gauges else "counter"
            self._slot(
                f"{prefix}_{field}", kind, f"{what}: {field}", labels,
                lambda: None, holder, allow_existing=False, field=field,
            )
        return True

    def register_view(
        self,
        name: str,
        read: Callable[[], float],
        help: str = "",
        kind: str = "counter",
        **labels,
    ) -> None:
        """Register a live scalar view — ``read()`` is called at every
        snapshot/export, so the owning object keeps its plain fields and
        the hot path pays nothing."""
        if kind not in ("counter", "gauge"):
            raise ConfigurationError(f"view kind must be counter|gauge, not {kind}")
        self._slot(
            name, kind, help, labels, lambda: None, read, allow_existing=False
        )

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def _entries_sorted(self) -> List[_Entry]:
        with self._lock:
            if self._sorted is None:
                entries = sorted(
                    self._entries.values(),
                    key=lambda e: (e.name, e.labels),
                )
                self._sorted = entries
            return self._sorted

    def collect(self) -> List[Sample]:
        """Materialise every scalar (owned values + view reads)."""
        out: List[Sample] = []
        for e in self._entries_sorted():
            if e.kind == "histogram":
                continue
            out.append(
                Sample(e.name, e.kind, e.help, e.labels, float(e.value()))
            )
        return out

    def collect_histograms(
        self,
    ) -> List[Tuple[str, str, LabelItems, LatencyHistogram]]:
        """``(name, help, labels, histogram)`` for every histogram."""
        return [
            (e.name, e.help, e.labels, e.obj)
            for e in self._entries_sorted()
            if e.kind == "histogram"
        ]

    def has(self, name: str, **labels) -> bool:
        """Whether ``(name, labels)`` is already registered.

        Lets components that register non-idempotent entries (views,
        watched holders) guard against double registration when they
        may be constructed more than once against one registry.
        """
        key = (name, _canon_labels(labels))
        with self._lock:
            return key in self._entries

    def names(self) -> List[str]:
        with self._lock:
            return sorted({name for name, _ in self._entries})

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    # ------------------------------------------------------------------
    # snapshot / reset
    # ------------------------------------------------------------------
    def snapshot(
        self, prefixes: Optional[Tuple[str, ...]] = None
    ) -> RegistrySnapshot:
        """Materialise everything into an immutable snapshot.

        Iterates the slots directly (no intermediate :class:`Sample`
        list) — this runs once per monitor scrape, where allocation per
        series dominates on a wide registry.  ``prefixes`` restricts the
        snapshot to series whose canonical key starts with one of them
        (the :class:`~repro.obs.monitor.TimeSeriesStore` pushes its
        ``name_filter`` down here so unwanted view callbacks are never
        invoked).
        """
        scalars: Dict[str, float] = {}
        kinds: Dict[str, str] = {}
        hists = {}
        for e in self._entries_sorted():
            key = e.key
            if prefixes is not None and not key.startswith(prefixes):
                continue
            if e.kind == "histogram":
                hists[key] = e.obj.state()
                kinds[key] = "histogram"
                continue
            scalars[key] = float(e.value())
            kinds[key] = e.kind
        return RegistrySnapshot(scalars, hists, kinds)

    def reset_owned(self) -> None:
        """Zero every owned metric (views reset through their holders)."""
        for e in self._entries_sorted():
            if e.read is not None:
                continue
            if e.kind == "histogram":
                e.obj.reset()
            else:
                e.obj.value = 0.0
