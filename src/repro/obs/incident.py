"""Incident bundles: alert-triggered snapshots of a serving rig.

An :class:`IncidentManager` turns a firing alert into a frozen,
self-describing **incident bundle**: the flight recorder's event rings,
the metrics registry at the instant of capture plus its windowed deltas
over the alert's binding window, the relevant time-series windows, the
slowest trace trees, a doctor digest, and — crucially — the scenario
spec and seeds that produced the run.  Because the whole stack runs on
a seeded simulated clock, that spec is sufficient for
:mod:`repro.obs.replay` to re-execute the captured window and verify
the same alert fires at the same simulated instant with the same event
stream — every incident is a deterministic regression test.

Triggers:

* **alert** — the manager subscribes to an
  :class:`~repro.obs.alerts.AlertManager` (:meth:`watch`) and captures
  on every ``firing`` transition, subject to a per-rule simulated-time
  ``cooldown`` so a flapping alert can't spam bundles;
* **manual** — :meth:`trigger` captures on demand (an operator's
  "grab me the state now").

Bundles live in memory (``manager.incidents``) and, when ``out_dir`` is
set, as JSON bundle directories (one file per section) that
``repro incidents`` lists and ``repro replay`` consumes.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = [
    "BUNDLE_SECTIONS",
    "IncidentManager",
    "list_bundles",
    "load_bundle",
    "write_bundle",
]

#: The files of a bundle directory (section name -> file name).
BUNDLE_SECTIONS = (
    "meta",
    "spec",
    "events",
    "metrics",
    "series",
    "traces",
    "doctor",
)

#: Fallback metrics/series window (simulated seconds) when the trigger
#: carries no rule (manual/exception captures).
DEFAULT_WINDOW = 1.0

#: Slowest trace trees embedded per bundle.
MAX_TRACES = 5


def _binding_window(rule) -> float:
    """The alert's binding window: the slow window of a burn-rate rule,
    the query window of a threshold rule, else the default."""
    if rule is None:
        return DEFAULT_WINDOW
    slow = getattr(rule, "slow_window", None)
    if slow is not None:
        return float(slow)
    window = getattr(rule, "window", None)
    if window is not None:
        return float(window)
    return DEFAULT_WINDOW


class IncidentManager:
    """Captures incident bundles from a wired serving cluster.

    Parameters
    ----------
    cluster:
        The :class:`~repro.distributed.cluster.LocalCluster` under
        observation — its recorder, registry, monitor, and tracer are
        the capture sources.  A flight recorder should already be
        attached (:meth:`LocalCluster.attach_recorder`); capture works
        without one but the bundle's event section will be empty.
    out_dir:
        When set, every captured bundle is also serialized to
        ``out_dir/<incident-id>/`` as JSON (one file per section).
    cooldown:
        Minimum simulated seconds between two *alert-triggered*
        captures of the same rule; suppressed firings are counted in
        :attr:`suppressed`.  A manual trigger ignores it.
    """

    def __init__(
        self,
        cluster,
        out_dir: Optional[str] = None,
        cooldown: float = 0.5,
    ) -> None:
        if cooldown < 0:
            raise ConfigurationError(
                f"cooldown must be >= 0, got {cooldown}"
            )
        self.cluster = cluster
        self.out_dir = out_dir
        self.cooldown = cooldown
        self.incidents: List[Dict] = []
        #: Alert firings skipped because the rule was in cooldown.
        self.suppressed = 0
        self._last_capture: Dict[str, float] = {}
        self._watched = []
        #: Scenario spec of the current run (:meth:`mark_start`).
        self.spec: Optional[Dict] = None
        self._t0: Optional[float] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def watch(self, manager) -> None:
        """Subscribe to an :class:`~repro.obs.alerts.AlertManager` so
        every ``firing`` transition triggers a capture (idempotent)."""
        if manager not in self._watched:
            manager.add_listener(self._on_alert)
            self._watched.append(manager)

    def mark_start(self, spec: Optional[Dict] = None) -> None:
        """Record the run's scenario spec and its start instant.

        Call immediately before ``ScenarioRunner.run()`` — the recorded
        ``t0`` lets bundle metadata express the capture instant relative
        to run start, which is what the replay harness re-runs to.
        """
        self.spec = dict(spec) if spec is not None else None
        self._t0 = self._now()

    def _now(self) -> float:
        network = getattr(self.cluster, "network", None)
        return network.now() if network is not None else 0.0

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------
    def _on_alert(self, event) -> None:
        if event.to_state != "firing":
            return
        last = self._last_capture.get(event.rule)
        if last is not None and event.t - last < self.cooldown:
            self.suppressed += 1
            return
        self._last_capture[event.rule] = event.t
        self.capture(
            trigger="alert",
            rule=event.rule,
            t=event.t,
            value=event.value,
            threshold=event.threshold,
            labels=dict(event.labels),
        )

    def trigger(self, reason: str = "manual") -> Dict:
        """Capture a bundle right now (no cooldown)."""
        return self.capture(trigger="manual", reason=reason)

    # ------------------------------------------------------------------
    # the freeze
    # ------------------------------------------------------------------
    def capture(self, trigger: str, **info) -> Dict:
        """Freeze one bundle at the current simulated instant.

        Runs synchronously at the exact point of the trigger — for
        alert triggers that is *inside* the evaluation pass, at the
        firing transition, which is what lets the replay harness
        compare event streams without racing post-capture traffic.
        """
        cluster = self.cluster
        now = info.get("t", self._now())
        rule = None
        monitor = getattr(cluster, "monitor", None)
        if monitor is not None and info.get("rule") is not None:
            alert = monitor.alerts.alerts.get(info["rule"])
            rule = alert.rule if alert is not None else None
        window = _binding_window(rule)

        incident_id = (
            f"incident-{len(self.incidents):04d}-"
            f"{info.get('rule') or trigger}"
        )
        meta: Dict[str, object] = {
            "id": incident_id,
            "trigger": trigger,
            "t": now,
            "t_rel": (now - self._t0) if self._t0 is not None else None,
            "t0": self._t0,
            "window_seconds": window,
        }
        meta.update(info)

        recorder = getattr(cluster, "recorder", None)
        events = (
            recorder.snapshot()
            if recorder is not None
            else {"events_total": 0, "dropped_total": 0, "categories": {}}
        )

        registry = getattr(cluster, "registry", None)
        metrics: Dict[str, object] = {}
        if registry is not None:
            metrics["snapshot"] = registry.snapshot().to_dict()
        series: Dict[str, object] = {"window_seconds": window, "series": {}}
        if monitor is not None:
            store = monitor.store
            window_diff: Dict[str, float] = {}
            for key in store.series_names():
                kind = store.kind_of(key)
                if kind == "histogram":
                    continue
                if kind == "counter":
                    window_diff[key] = store.increase(key, window, at=now)
                series["series"][key] = [
                    [t, v]
                    for t, v in store.points(key)
                    if now - window < t <= now
                ]
            metrics["window_diff"] = window_diff
            metrics["window_seconds"] = window

        tracer = getattr(cluster, "tracer", None)
        traces = (
            [span.to_dict() for span in tracer.top_slow(MAX_TRACES)]
            if tracer is not None
            else []
        )

        # The doctor walks live stores; a capture mid-outage must not
        # die because a crashed shard has no store to inspect.
        try:
            from repro.obs.doctor import diagnose

            doctor = diagnose(cluster).to_dict()
        except Exception as exc:
            doctor = {"error": repr(exc)}

        bundle = {
            "meta": meta,
            "spec": dict(self.spec) if self.spec is not None else None,
            "events": events,
            "metrics": metrics,
            "series": series,
            "traces": traces,
            "doctor": doctor,
        }
        self.incidents.append(bundle)
        if self.out_dir is not None:
            write_bundle(bundle, self.out_dir)
        return bundle


# ---------------------------------------------------------------------------
# bundle (de)serialization
# ---------------------------------------------------------------------------
def write_bundle(bundle: Dict, out_dir: str) -> str:
    """Serialize one bundle to ``out_dir/<id>/<section>.json``."""
    incident_id = bundle["meta"]["id"]
    path = os.path.join(out_dir, incident_id)
    os.makedirs(path, exist_ok=True)
    for section in BUNDLE_SECTIONS:
        with open(os.path.join(path, f"{section}.json"), "w") as fh:
            json.dump(bundle.get(section), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return path


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number a float format prints (``true`` is not one)."""
    return isinstance(value, float) or (
        _is_int(value) and abs(value) <= sys.float_info.max
    )


def _bad_field(section: str, value: Dict) -> Optional[str]:
    """The first field ``repro incidents`` reads from a section that has
    the wrong shape, or ``None``.  Absent optional fields are fine."""
    if section == "meta":
        if not isinstance(value.get("id"), str):
            return "id"
        for key in ("t", "t_rel", "value"):
            if value.get(key) is not None and not _is_number(value[key]):
                return key
        for key in ("trigger", "rule"):
            if not isinstance(value.get(key), (str, type(None))):
                return key
    elif section == "events":
        for key in ("events_total", "dropped_total"):
            if key in value and not _is_int(value[key]):
                return key
        categories = value.get("categories", {})
        if not isinstance(categories, dict) or not all(
            isinstance(cat, dict)
            and _is_int(cat.get("total", 0))
            and isinstance(cat.get("events", []), list)
            for cat in categories.values()
        ):
            return "categories"
    elif section == "metrics":
        diff = value.get("window_diff", {})
        if not isinstance(diff, dict) or not all(
            map(_is_number, diff.values())
        ):
            return "window_diff"
    return None


def _read_section(path: str, section: str):
    """One bundle file's JSON: ``traces`` is an array, ``spec`` an
    object or null, every other section an object whose fields the CLI
    reads have their types (:func:`_bad_field`).  Anything else — or
    bytes that do not decode — raises :class:`ConfigurationError`
    naming the file."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"{path!r} is not JSON: {exc}") from None
    if value is None and section == "spec":
        return value
    kind = list if section == "traces" else dict
    if not isinstance(value, kind):
        raise ConfigurationError(
            f"{path!r} holds a JSON {type(value).__name__}, not "
            f"{'an array' if kind is list else 'an object'}"
        )
    bad = _bad_field(section, value) if kind is dict else None
    if bad is not None:
        raise ConfigurationError(f"{path!r} has a malformed {bad!r} field")
    return value


def load_bundle(path: str) -> Dict:
    """Load a bundle directory back into its dict form."""
    if not os.path.isdir(path):
        raise ConfigurationError(f"not a bundle directory: {path!r}")
    bundle: Dict[str, object] = {}
    for section in BUNDLE_SECTIONS:
        section_path = os.path.join(path, f"{section}.json")
        if not os.path.exists(section_path):
            raise ConfigurationError(
                f"bundle {path!r} is missing its {section}.json"
            )
        bundle[section] = _read_section(section_path, section)
    return bundle


def list_bundles(out_dir: str) -> List[Dict]:
    """Metadata of every bundle under ``out_dir``, sorted by id."""
    if not os.path.isdir(out_dir):
        return []
    out: List[Dict] = []
    for name in sorted(os.listdir(out_dir)):
        meta_path = os.path.join(out_dir, name, "meta.json")
        if os.path.exists(meta_path):
            meta = _read_section(meta_path, "meta")
            meta["path"] = os.path.join(out_dir, name)
            out.append(meta)
    return out
