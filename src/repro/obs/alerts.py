"""Rule-based alerting over the monitor's time series.

The rule grammar covers the two shapes a serving on-call actually pages
on (DESIGN.md §16):

* :class:`BurnRateRule` — the SRE-workbook **multi-window
  multi-burn-rate** SLO alert: the burn rate
  ``(bad / total) / (1 - target)`` must exceed a threshold in *both* a
  fast and a slow trailing window.  The fast window makes the alert
  respond within seconds of an onset; the slow window keeps a short
  blip from paging.  Production pairs like 5m/1h scale down to the
  simulated clock (e.g. 0.25s/1.0s on a 3s scenario) — the ratios, not
  the absolute durations, carry the semantics.
* :class:`ThresholdRule` — a comparison against any windowed query over
  one series: ``rate``, ``increase``, ``avg``/``max``/``min`` over
  time, ``latest``, or a histogram ``quantile`` (``q=0.99``).

Rules feed an :class:`AlertManager` with the Prometheus lifecycle:
**inactive → pending** (condition first true) **→ firing** (still true
after ``for_seconds``) **→ resolved/inactive** (condition clears).
Every transition lands in an event log with the evaluation timestamp
and the rule's labels — the alert timeline a chaos scenario is judged
by ("did the flash-crowd page fire before the SLO report would have
told us?").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = [
    "Alert",
    "AlertEvent",
    "AlertManager",
    "AlertRule",
    "BurnRateRule",
    "ThresholdRule",
    "default_serving_rules",
]

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

_THRESHOLD_MODES = (
    "rate",
    "increase",
    "avg",
    "max",
    "min",
    "latest",
    "quantile",
)


class AlertRule:
    """Base rule: a named condition over the time-series store.

    ``evaluate(store, now)`` returns ``(active, value)`` — whether the
    condition holds at ``now`` and the measured value that decided it
    (recorded on transitions for the timeline).
    """

    def __init__(
        self,
        name: str,
        for_seconds: float = 0.0,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        if for_seconds < 0:
            raise ConfigurationError("for_seconds must be >= 0")
        self.name = name
        self.for_seconds = for_seconds
        self.labels = dict(labels or {})

    def evaluate(self, store, now: float):  # pragma: no cover - abstract
        raise NotImplementedError


class ThresholdRule(AlertRule):
    """``<query>(key, window) <op> threshold`` over one series."""

    def __init__(
        self,
        name: str,
        key: str,
        threshold: float,
        mode: str = "rate",
        window: float = 1.0,
        op: str = ">",
        q: Optional[float] = None,
        for_seconds: float = 0.0,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(name, for_seconds, labels)
        if mode not in _THRESHOLD_MODES:
            raise ConfigurationError(
                f"mode must be one of {_THRESHOLD_MODES}, got {mode!r}"
            )
        if op not in _OPS:
            raise ConfigurationError(f"op must be one of {sorted(_OPS)}")
        if mode == "quantile" and q is None:
            raise ConfigurationError("quantile mode needs q")
        if window <= 0:
            raise ConfigurationError("window must be > 0")
        self.key = key
        self.mode = mode
        self.window = window
        self.op = op
        self.q = q
        self.threshold = threshold

    def _measure(self, store, now: float) -> float:
        if self.mode == "rate":
            return store.rate(self.key, self.window, at=now)
        if self.mode == "increase":
            return store.increase(self.key, self.window, at=now)
        if self.mode == "avg":
            return store.avg_over_time(self.key, self.window, at=now)
        if self.mode == "max":
            return store.max_over_time(self.key, self.window, at=now)
        if self.mode == "min":
            return store.min_over_time(self.key, self.window, at=now)
        if self.mode == "latest":
            return store.latest(self.key)
        return store.quantile_over_time(self.q, self.key, self.window, at=now)

    def evaluate(self, store, now: float):
        value = self._measure(store, now)
        return _OPS[self.op](value, self.threshold), value


class BurnRateRule(AlertRule):
    """Multi-window multi-burn-rate SLO alert over a good/total pair.

    ``good`` and ``total`` are cumulative counter series; the burn rate
    of a window is ``((total - good) / total) / (1 - target)`` computed
    from the windows' increases.  The rule is active only when **both**
    windows burn past ``threshold`` — the fast window gives onset
    latency, the slow one de-flaps.  An empty window (no traffic)
    burns 0.
    """

    def __init__(
        self,
        name: str,
        good: str,
        total: str,
        target: float = 0.99,
        fast_window: float = 0.25,
        slow_window: float = 1.0,
        threshold: float = 8.0,
        for_seconds: float = 0.0,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(name, for_seconds, labels)
        if not 0.0 < target < 1.0:
            raise ConfigurationError(
                f"target must be in (0, 1), got {target}"
            )
        if fast_window <= 0 or slow_window <= 0:
            raise ConfigurationError("windows must be > 0")
        if fast_window >= slow_window:
            raise ConfigurationError(
                "fast_window must be shorter than slow_window "
                f"(got {fast_window} >= {slow_window})"
            )
        if threshold <= 0:
            raise ConfigurationError("threshold must be > 0")
        self.good = good
        self.total = total
        self.target = target
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.threshold = threshold

    def burn(self, store, window: float, now: float) -> float:
        total = store.increase(self.total, window, at=now)
        if total <= 0:
            return 0.0
        good = store.increase(self.good, window, at=now)
        bad_fraction = max(0.0, total - good) / total
        return bad_fraction / (1.0 - self.target)

    def evaluate(self, store, now: float):
        fast = self.burn(store, self.fast_window, now)
        slow = self.burn(store, self.slow_window, now)
        value = min(fast, slow)  # the binding window
        return (
            fast > self.threshold and slow > self.threshold,
            value,
        )


@dataclass
class AlertEvent:
    """One lifecycle transition (the timeline unit).

    ``value`` is the measurement that decided the transition and
    ``threshold`` the rule's trigger level at that instant — together
    they say *why* a rule fired, not just that it did.
    """

    t: float
    rule: str
    from_state: str
    to_state: str
    value: float
    labels: Dict[str, str] = field(default_factory=dict)
    threshold: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "t": self.t,
            "rule": self.rule,
            "from": self.from_state,
            "to": self.to_state,
            "value": self.value,
            "threshold": self.threshold,
            "labels": dict(self.labels),
        }


@dataclass
class Alert:
    """Current state of one rule."""

    rule: AlertRule
    state: str = "inactive"  # inactive | pending | firing
    since: Optional[float] = None
    value: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule.name,
            "state": self.state,
            "since": self.since,
            "value": self.value,
            "labels": dict(self.rule.labels),
        }


class AlertManager:
    """Evaluates rules after every scrape; keeps states + an event log."""

    def __init__(self, rules: Optional[List[AlertRule]] = None) -> None:
        self.rules: List[AlertRule] = []
        self.alerts: Dict[str, Alert] = {}
        self.events: List[AlertEvent] = []
        self.evaluations = 0
        self.transitions = 0
        self.listeners: List = []
        for rule in rules or []:
            self.add_rule(rule)

    def add_rule(self, rule: AlertRule) -> AlertRule:
        if rule.name in self.alerts:
            raise ConfigurationError(
                f"alert rule {rule.name!r} already registered"
            )
        self.rules.append(rule)
        self.alerts[rule.name] = Alert(rule)
        return rule

    def add_listener(self, listener) -> None:
        """Subscribe a callable to every transition (idempotent).

        Listeners receive the :class:`AlertEvent` *synchronously inside*
        the evaluation pass, at the simulated instant of the transition —
        this is the hook the flight recorder and incident manager ride.
        """
        if listener not in self.listeners:
            self.listeners.append(listener)

    def _transition(
        self, alert: Alert, to_state: str, now: float, value: float
    ) -> None:
        event = AlertEvent(
            t=now,
            rule=alert.rule.name,
            from_state=alert.state,
            to_state=to_state,
            value=value,
            labels=dict(alert.rule.labels),
            threshold=getattr(alert.rule, "threshold", None),
        )
        self.events.append(event)
        self.transitions += 1
        # "resolved" is an event, not a state — the alert returns to
        # inactive and can fire again later in the same run.
        alert.state = "inactive" if to_state == "resolved" else to_state
        alert.since = now if to_state == "pending" else alert.since
        if to_state in ("inactive", "resolved"):
            alert.since = None
        for listener in self.listeners:
            listener(event)

    def evaluate(self, store, now: float) -> None:
        """One evaluation pass (the monitor calls this after a scrape)."""
        self.evaluations += 1
        for rule in self.rules:
            alert = self.alerts[rule.name]
            active, value = rule.evaluate(store, now)
            alert.value = value
            if alert.state == "inactive":
                if active:
                    self._transition(alert, "pending", now, value)
                    if now - alert.since >= rule.for_seconds:
                        self._transition(alert, "firing", now, value)
            elif alert.state == "pending":
                if not active:
                    self._transition(alert, "inactive", now, value)
                elif now - alert.since >= rule.for_seconds:
                    self._transition(alert, "firing", now, value)
            elif alert.state == "firing":
                if not active:
                    self._transition(alert, "resolved", now, value)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def firing(self) -> List[Alert]:
        return [a for a in self.alerts.values() if a.state == "firing"]

    def pending(self) -> List[Alert]:
        return [a for a in self.alerts.values() if a.state == "pending"]

    def timeline(self, rule: Optional[str] = None) -> List[AlertEvent]:
        """The event log, optionally filtered to one rule."""
        if rule is None:
            return list(self.events)
        return [e for e in self.events if e.rule == rule]

    def to_dict(self) -> Dict[str, object]:
        return {
            "alerts": [
                self.alerts[r.name].to_dict() for r in self.rules
            ],
            "events": [e.to_dict() for e in self.events],
            "evaluations": self.evaluations,
            "transitions": self.transitions,
        }


def default_serving_rules(
    target: float = 0.99,
    fast_window: float = 0.25,
    slow_window: float = 1.0,
    burn_threshold: float = 8.0,
    for_seconds: float = 0.04,
    p99_threshold_seconds: float = 25e-3,
    failure_rate_threshold: float = 5.0,
) -> List[AlertRule]:
    """The serving tier's canonical rule set (scaled to simulated time).

    The availability burn rate counts *fresh* in-SLO answers as good —
    a shed request rescued by the degraded cache still spends error
    budget here, which is exactly what makes a flash crowd visible
    while the shedding machinery keeps end-to-end availability high.
    """
    return [
        BurnRateRule(
            "serving_availability_burn",
            good="repro_serving_answered_fresh",
            total="repro_serving_submitted",
            target=target,
            fast_window=fast_window,
            slow_window=slow_window,
            threshold=burn_threshold,
            for_seconds=for_seconds,
            labels={"severity": "page", "slo": f"{target:g}"},
        ),
        ThresholdRule(
            "serving_p99_high",
            key="repro_serving_request_seconds",
            mode="quantile",
            q=0.99,
            window=slow_window,
            op=">",
            threshold=p99_threshold_seconds,
            for_seconds=for_seconds,
            labels={"severity": "ticket"},
        ),
        ThresholdRule(
            "serving_failure_rate",
            key="repro_serving_failed",
            mode="rate",
            window=slow_window,
            op=">",
            threshold=failure_rate_threshold,
            labels={"severity": "page"},
        ),
    ]
