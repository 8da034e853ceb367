"""Deterministic incident replay: re-run a bundle, verify convergence.

Every incident bundle carries the scenario **spec** that produced the
run — scenario name, generator seed, rig seed, and the keyword
arguments of both.  Because the whole stack is seeded and runs on a
simulated clock, that spec is a complete recipe: :func:`replay_bundle`
rebuilds the rig from it, re-runs the scenario *prefix* up to the
captured instant (:meth:`ScenarioRunner.run_until` — no final drain, no
closing scrape), and checks that

* the same alert fires at the same simulated instant (tolerance
  :data:`TIME_TOLERANCE`), and
* the flight recorder holds the **same event stream**, category by
  category, event by event.

A replay that passes both is *converged*: the incident is a
reproducible artifact, not a one-off observation.  ``repro replay``
exits 3 on divergence, which is what the CI incident-smoke job gates.

Manual and exception bundles have no alert to wait for; their replay
runs to the captured instant, takes a fresh capture there, and compares
event streams only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = [
    "TIME_TOLERANCE",
    "ReplayResult",
    "build_rig_from_spec",
    "make_spec",
    "replay_bundle",
    "scenario_from_spec",
]

#: Max |original - replay| divergence of the alert's simulated firing
#: instant still counted as "the same instant".  The clock is exact
#: float arithmetic over an identical event schedule, so anything
#: beyond rounding noise means the runs genuinely diverged.
TIME_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------
def make_spec(
    scenario: str,
    seed: int = 0,
    scenario_seed: Optional[int] = None,
    rig_kwargs: Optional[Dict] = None,
    scenario_kwargs: Optional[Dict] = None,
) -> Dict:
    """A self-contained recipe for one monitored scenario run.

    ``seed`` seeds the rig (graph, encoder, service, prewarm);
    ``scenario_seed`` seeds the event schedule and defaults to
    ``seed + 7``, the convention the CLI uses.
    ``rig_kwargs`` are forwarded to ``build_serving_rig`` (put
    ``monitor_interval`` here — alert replay needs the monitor).
    """
    from repro.serving.scenarios import SCENARIOS

    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; choose from "
            f"{sorted(SCENARIOS)}"
        )
    return {
        "scenario": scenario,
        "seed": int(seed),
        "scenario_seed": int(
            scenario_seed if scenario_seed is not None else seed + 7
        ),
        "rig_kwargs": dict(rig_kwargs or {}),
        "scenario_kwargs": dict(scenario_kwargs or {}),
    }


def _check_spec(spec, where: str = "spec") -> Dict:
    """``spec`` itself if it is an object with a ``scenario`` name, int
    ``seed`` and ``scenario_seed`` and object-valued kwargs; otherwise
    :class:`ConfigurationError` naming ``where``."""
    if not (
        isinstance(spec, dict)
        and isinstance(spec.get("scenario"), str)
        and all(isinstance(spec.get(k), int) for k in ("seed", "scenario_seed"))
        and all(
            isinstance(spec.get(k) or {}, dict)
            for k in ("rig_kwargs", "scenario_kwargs")
        )
    ):
        raise ConfigurationError(
            f"{where} is not a spec: an object with a 'scenario' name, "
            "int 'seed' and 'scenario_seed', and object kwargs"
        )
    return spec


def build_rig_from_spec(spec: Dict):
    """Build the spec's serving rig, flight recorder always attached."""
    from repro.serving.scenarios import build_serving_rig

    rig_kwargs = dict(_check_spec(spec).get("rig_kwargs") or {})
    rig_kwargs.pop("recorder", None)
    rig_kwargs.pop("seed", None)
    return build_serving_rig(
        seed=int(spec["seed"]), recorder=True, **rig_kwargs
    )


def scenario_from_spec(spec: Dict, num_sources: int):
    """Regenerate the spec's (bit-identical) event schedule."""
    from repro.serving.scenarios import SCENARIOS

    name = _check_spec(spec)["scenario"]
    if name not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario {name!r} in spec")
    return SCENARIOS[name](
        num_sources,
        seed=int(spec["scenario_seed"]),
        **dict(spec.get("scenario_kwargs") or {}),
    )


# ---------------------------------------------------------------------------
# the verdict
# ---------------------------------------------------------------------------
@dataclass
class ReplayResult:
    """Outcome of replaying one bundle against a rebuilt rig."""

    bundle_id: str
    trigger: str
    rule: Optional[str]
    original_t_rel: float
    replay_t_rel: Optional[float] = None
    alert_match: bool = False
    events_match: bool = False
    mismatches: List[str] = field(default_factory=list)
    #: Alert firings the replay saw for the bundle's rule.
    replay_firings: int = 0

    @property
    def converged(self) -> bool:
        return self.alert_match and self.events_match

    def to_dict(self) -> Dict:
        return {
            "bundle_id": self.bundle_id,
            "trigger": self.trigger,
            "rule": self.rule,
            "original_t_rel": self.original_t_rel,
            "replay_t_rel": self.replay_t_rel,
            "alert_match": self.alert_match,
            "events_match": self.events_match,
            "converged": self.converged,
            "mismatches": list(self.mismatches),
            "replay_firings": self.replay_firings,
        }

    def render(self) -> str:
        lines = [
            f"replay of {self.bundle_id} "
            f"({'alert ' + self.rule if self.rule else self.trigger}):",
            f"  captured at t_rel={self.original_t_rel:.6f}s; replay "
            + (
                f"fired at t_rel={self.replay_t_rel:.6f}s"
                if self.replay_t_rel is not None
                else "never fired"
            ),
            f"  alert instant: {'MATCH' if self.alert_match else 'DIVERGED'}",
            f"  event stream:  {'MATCH' if self.events_match else 'DIVERGED'}",
        ]
        for mismatch in self.mismatches:
            lines.append(f"    - {mismatch}")
        lines.append(
            "  verdict: CONVERGED — incident is deterministic"
            if self.converged
            else "  verdict: DIVERGED"
        )
        return "\n".join(lines)


def _canon(value):
    """JSON round-trip, so an in-memory capture compares equal to one
    loaded back from a bundle directory (tuples -> lists, etc.)."""
    return json.loads(json.dumps(value, sort_keys=True))


def _diff_events(original: Dict, replay: Dict, out: List[str]) -> bool:
    """Compare two recorder snapshots category by category; append
    human-readable mismatch lines to ``out``.  Returns True on match.

    A category only one side carries counts as absent while its ring is
    empty with nothing dropped, so a bundle recorded with a category
    the recorder has since retired still replays."""
    orig_cats = dict(original.get("categories") or {})
    rep_cats = dict(replay.get("categories") or {})
    ok = True
    for name in sorted(set(orig_cats) | set(rep_cats)):
        a = orig_cats.get(name)
        b = rep_cats.get(name)
        if a is None or b is None:
            only = a if b is None else b
            if only.get("events") or only.get("dropped"):
                out.append(f"events[{name}]: present in only one run")
                ok = False
            continue
        ev_a, ev_b = a.get("events", []), b.get("events", [])
        if len(ev_a) != len(ev_b):
            out.append(
                f"events[{name}]: {len(ev_a)} original vs "
                f"{len(ev_b)} replayed"
            )
            ok = False
            continue
        for i, (x, y) in enumerate(zip(ev_a, ev_b)):
            if x != y:
                out.append(
                    f"events[{name}][{i}]: {json.dumps(x, sort_keys=True)}"
                    f" != {json.dumps(y, sort_keys=True)}"
                )
                ok = False
                break
        if a.get("dropped") != b.get("dropped"):
            out.append(
                f"events[{name}]: dropped {a.get('dropped')} vs "
                f"{b.get('dropped')}"
            )
            ok = False
    return ok


# ---------------------------------------------------------------------------
# the replay
# ---------------------------------------------------------------------------
def replay_bundle(bundle_or_path) -> ReplayResult:
    """Re-run a bundle's captured window; verify it converges.

    Accepts an in-memory bundle dict or a bundle directory path.  The
    replay attaches its own in-memory :class:`IncidentManager` at the
    same listener position the original used (recorder first, then the
    manager — both via ``add_listener`` order), so its capture freezes
    at the *identical execution point* inside the alert evaluation, and
    the two event streams are comparable moment for moment.
    """
    from repro.obs.incident import IncidentManager, load_bundle
    from repro.serving.scenarios import ScenarioRunner

    if isinstance(bundle_or_path, str):
        bundle = load_bundle(bundle_or_path)
        where = repr(f"{bundle_or_path}/spec.json")
    else:
        bundle = bundle_or_path
        where = "the bundle's spec"
    meta = bundle.get("meta")
    if not isinstance(meta, dict):
        raise ConfigurationError("bundle has no meta object")
    spec = bundle.get("spec")
    if spec is None:
        raise ConfigurationError(
            f"bundle {meta.get('id')!r} has no spec; it was captured "
            "without IncidentManager.mark_start(spec) and cannot be "
            "replayed"
        )
    _check_spec(spec, where)
    t_rel = meta.get("t_rel")
    if not isinstance(t_rel, (int, float)):
        raise ConfigurationError(
            f"bundle {meta.get('id')!r} has no t_rel; mark_start() was "
            "not called before the run"
        )
    trigger = meta.get("trigger", "alert")
    rule = meta.get("rule")
    result = ReplayResult(
        bundle_id=meta.get("id", "?"),
        trigger=trigger,
        rule=rule,
        original_t_rel=float(t_rel),
    )

    rig = build_rig_from_spec(spec)
    if trigger == "alert" and rig.monitor is None:
        raise ConfigurationError(
            "bundle was alert-triggered but the spec's rig has no "
            "monitor; put monitor_interval in spec['rig_kwargs']"
        )
    manager = IncidentManager(rig.cluster, cooldown=0.0)
    if rig.monitor is not None:
        manager.watch(rig.monitor.alerts)
    manager.mark_start(spec)
    scenario = scenario_from_spec(spec, rig.num_sources)
    runner = ScenarioRunner(rig, scenario)
    runner.run_until(float(t_rel))

    if trigger == "alert":
        candidates = [
            b for b in manager.incidents
            if b["meta"].get("trigger") == "alert"
            and b["meta"].get("rule") == rule
        ]
        result.replay_firings = len(candidates)
        if not candidates:
            result.mismatches.append(
                f"alert {rule!r} never fired during the replayed window"
            )
            return result
        replayed = min(
            candidates,
            key=lambda b: abs(b["meta"]["t_rel"] - float(t_rel)),
        )
    else:
        # Manual/exception captures: nothing fires on its own — take a
        # fresh capture at the stop instant and compare streams.
        replayed = manager.trigger(reason="replay")
        replayed["meta"]["t_rel"] = float(t_rel)

    result.replay_t_rel = float(replayed["meta"]["t_rel"])
    delta = abs(result.replay_t_rel - result.original_t_rel)
    result.alert_match = delta <= TIME_TOLERANCE
    if not result.alert_match:
        result.mismatches.append(
            f"firing instant diverged by {delta:.3e}s "
            f"(original t_rel={result.original_t_rel!r}, "
            f"replay t_rel={result.replay_t_rel!r})"
        )
    result.events_match = _diff_events(
        _canon(bundle.get("events") or {}),
        _canon(replayed.get("events") or {}),
        result.mismatches,
    )
    return result
