"""Continuous monitoring: time-series scraping over the metrics registry.

PR 4's telemetry is point-in-time — a snapshot or an export shows where
the counters *are*, not how they got there.  This module adds the
missing axis: a :class:`TimeSeriesStore` scrapes the registry on the
cluster's (simulated) clock at a fixed interval, keeps a bounded ring of
points per series, and answers PromQL-flavored window queries:

* ``rate()`` / ``increase()`` over counters, with **counter-reset
  detection** — a value that goes backwards (``reset_stats``, a crashed
  holder) folds the pre-reset total into a per-series offset so the
  cumulative adjusted series stays monotone and windows spanning a
  reset stay correct (the PromQL adjustment, not the clamp
  :meth:`~repro.obs.registry.RegistrySnapshot.diff` applies);
* ``avg_over_time()`` / ``max_over_time()`` / ``min_over_time()`` over
  any scalar series;
* ``quantile_over_time()`` over histogram series — the scrape stores
  full :meth:`~repro.obs.hist.LatencyHistogram.state` tuples, a window
  query subtracts the state at the window start from the state at its
  end and rehydrates the delta through
  :meth:`~repro.obs.hist.LatencyHistogram.from_state`, so windowed
  quantiles reuse the exact ``merge``/``bucket_bounds`` machinery the
  registry already trusts.

A :class:`Monitor` owns one store plus an optional
:class:`~repro.obs.alerts.AlertManager`, schedules scrapes through
``next_due()``/``poll()`` (the scenario runner stops the simulated
clock at every due scrape, exactly as it stops at batch-flush windows),
and evaluates alert rules after each scrape.  All state is plain Python
on the injected clock — a monitored scenario is as deterministic as an
unmonitored one.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.hist import LatencyHistogram

__all__ = ["Monitor", "TimeSeriesStore"]

#: One histogram scrape state: ``(buckets, count, sum, max)``.
HistState = Tuple[Tuple[int, ...], int, float, float]

_ZERO_HIST: HistState = ((0,) * 24, 0, 0.0, 0.0)

#: Ring capacity per series: memory stays O(series × MAX_POINTS) no
#: matter how long the deployment runs.
MAX_POINTS = 4096


def _add_states(a: HistState, b: HistState) -> HistState:
    return (
        tuple(x + y for x, y in zip(a[0], b[0])),
        a[1] + b[1],
        a[2] + b[2],
        max(a[3], b[3]),
    )


def _sub_states(end: HistState, start: HistState) -> HistState:
    """``end - start`` bucket-wise; max keeps the end-of-window value
    (a per-window max would need per-window state the registry does not
    keep — same documented caveat as ``RegistrySnapshot.diff``)."""
    return (
        tuple(max(0, x - y) for x, y in zip(end[0], start[0])),
        max(0, end[1] - start[1]),
        max(0.0, end[2] - start[2]),
        end[3],
    )


class TimeSeriesStore:
    """Bounded per-series rings of scraped registry values.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.registry.MetricsRegistry` to scrape.
    clock:
        Time source for point timestamps (``NetworkModel.now`` on a
        cluster; defaults to ``time.perf_counter``).
    name_filter:
        Optional sequence of name prefixes; only series whose canonical
        key starts with one of them is scraped (bounds scrape cost on
        very wide registries).
    """

    def __init__(
        self,
        registry,
        clock: Optional[Callable[[], float]] = None,
        name_filter: Optional[Sequence[str]] = None,
    ) -> None:
        if MAX_POINTS < 2:  # a window query reads a ring's two ends
            raise ConfigurationError("MAX_POINTS must be >= 2")
        self.registry = registry
        self.clock = clock if clock is not None else time.perf_counter
        self.name_filter = tuple(name_filter) if name_filter else None
        #: Adjusted (reset-corrected, monotone for counters) scalars.
        self._scalars: Dict[str, Deque[Tuple[float, float]]] = {}
        #: Adjusted histogram states.
        self._hists: Dict[str, Deque[Tuple[float, HistState]]] = {}
        self._kinds: Dict[str, str] = {}
        self._last_raw: Dict[str, float] = {}
        self._offset: Dict[str, float] = {}
        self._last_raw_hist: Dict[str, HistState] = {}
        self._offset_hist: Dict[str, HistState] = {}
        #: Per-series reset counts (counter went backwards at a scrape).
        self.resets: Dict[str, int] = {}
        self.scrapes = 0
        self.last_scrape_at: Optional[float] = None
        self._point_count = 0

    # ------------------------------------------------------------------
    # scraping
    # ------------------------------------------------------------------
    def scrape(self, now: Optional[float] = None) -> float:
        """Materialise the registry once; returns the scrape timestamp.

        This is the monitoring hot path — it runs every interval on the
        same thread as the serving loop, so it works off hoisted locals
        and pushes ``name_filter`` down into the registry snapshot
        (unwanted view callbacks are never invoked).
        ``bench_monitoring`` gates the cost.
        """
        t = self.clock() if now is None else float(now)
        snap = self.registry.snapshot(prefixes=self.name_filter)
        kinds = self._kinds
        snap_kinds = snap.kinds
        last_raw = self._last_raw
        offsets = self._offset
        scalars = self._scalars
        full = MAX_POINTS  # a full ring drops a point per append
        added = 0
        for key, value in snap.scalars.items():
            kind = snap_kinds.get(key, "untyped")
            kinds[key] = kind
            if kind == "counter":
                last = last_raw.get(key)
                if last is not None and value < last:
                    # Reset: fold the pre-reset total into the offset so
                    # the adjusted cumulative series stays monotone.
                    offsets[key] = offsets.get(key, 0.0) + last
                    self.resets[key] = self.resets.get(key, 0) + 1
                last_raw[key] = value
                adjusted = value + offsets.get(key, 0.0)
            else:
                adjusted = value
            ring = scalars.get(key)
            if ring is None:
                ring = scalars[key] = deque(maxlen=full)
            if len(ring) < full:
                added += 1
            ring.append((t, adjusted))
        last_raw_hist = self._last_raw_hist
        offset_hist = self._offset_hist
        hists = self._hists
        for key, state in snap.histograms.items():
            kinds[key] = "histogram"
            last = last_raw_hist.get(key)
            if last is not None and state[1] < last[1]:
                offset_hist[key] = _add_states(
                    offset_hist.get(key, _ZERO_HIST), last
                )
                self.resets[key] = self.resets.get(key, 0) + 1
            last_raw_hist[key] = state
            offset = offset_hist.get(key)
            adjusted_state = (
                state if offset is None else _add_states(offset, state)
            )
            hring = hists.get(key)
            if hring is None:
                hring = hists[key] = deque(maxlen=full)
            if len(hring) < full:
                added += 1
            hring.append((t, adjusted_state))
        self._point_count += added
        self.scrapes += 1
        self.last_scrape_at = t
        return t

    # ------------------------------------------------------------------
    # series readout
    # ------------------------------------------------------------------
    def series_names(self) -> List[str]:
        return sorted(set(self._scalars) | set(self._hists))

    def kind_of(self, key: str) -> str:
        return self._kinds.get(key, "untyped")

    @property
    def num_series(self) -> int:
        return len(self._scalars) + len(self._hists)

    @property
    def num_points(self) -> int:
        # Maintained incrementally: this feeds the monitor's own
        # ``repro_monitor_points`` view, which is read on every scrape —
        # summing ring lengths would make each scrape O(series) twice.
        return self._point_count

    @property
    def resets_total(self) -> int:
        return sum(self.resets.values())

    def points(self, key: str) -> List[Tuple[float, float]]:
        """Raw ``(t, adjusted value)`` points of one scalar series."""
        return list(self._scalars.get(key, ()))

    def latest(self, key: str) -> float:
        ring = self._scalars.get(key)
        return ring[-1][1] if ring else 0.0

    # ------------------------------------------------------------------
    # window selection helpers
    # ------------------------------------------------------------------
    def _window_points(
        self, ring, window: float, at: Optional[float]
    ) -> List[Tuple[float, object]]:
        end = at if at is not None else (
            self.last_scrape_at if self.last_scrape_at is not None else 0.0
        )
        lo = end - window
        # Reverse scan: a window covers the newest few points of a ring
        # that may hold thousands, so walk back from the end and stop at
        # the window edge instead of filtering the whole ring.
        out: List[Tuple[float, object]] = []
        for t, v in reversed(ring):
            if t > end:
                continue
            if t <= lo:
                break
            out.append((t, v))
        out.reverse()
        return out

    def _window_delta(
        self, ring, window: float, at: Optional[float]
    ) -> Optional[Tuple[float, float, object, object]]:
        """``(t_base, t_end, v_base, v_end)`` for a cumulative series.

        The baseline is the last point at or before the window start
        (PromQL's "looking back"); a series younger than the window
        falls back to its earliest in-window point (partial window).
        Returns ``None`` with fewer than two usable points.
        """
        if not ring:
            return None
        end = at if at is not None else ring[-1][0]
        lo = end - window
        base = None
        last = None
        # Reverse scan (see _window_points): the first point at or
        # before the window start, walking backwards, IS the last point
        # before the window — stop there.
        for t, v in reversed(ring):
            if t > end:
                continue
            if last is None:
                last = (t, v)
            base = (t, v)
            if t <= lo:
                break
        if base is None or last is None or last[0] <= base[0]:
            return None
        return (base[0], last[0], base[1], last[1])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def increase(
        self, key: str, window: float, at: Optional[float] = None
    ) -> float:
        """Counter growth over the trailing window (reset-corrected)."""
        delta = self._window_delta(self._scalars.get(key, ()), window, at)
        if delta is None:
            return 0.0
        return max(0.0, float(delta[3]) - float(delta[2]))

    def rate(
        self, key: str, window: float, at: Optional[float] = None
    ) -> float:
        """Per-second counter rate over the *covered* part of the window
        (a series younger than the window answers over what it has)."""
        delta = self._window_delta(self._scalars.get(key, ()), window, at)
        if delta is None:
            return 0.0
        covered = delta[1] - delta[0]
        if covered <= 0:
            return 0.0
        return max(0.0, float(delta[3]) - float(delta[2])) / covered

    def avg_over_time(
        self, key: str, window: float, at: Optional[float] = None
    ) -> float:
        pts = self._window_points(self._scalars.get(key, ()), window, at)
        if not pts:
            return 0.0
        return sum(float(v) for _, v in pts) / len(pts)

    def max_over_time(
        self, key: str, window: float, at: Optional[float] = None
    ) -> float:
        pts = self._window_points(self._scalars.get(key, ()), window, at)
        return max((float(v) for _, v in pts), default=0.0)

    def min_over_time(
        self, key: str, window: float, at: Optional[float] = None
    ) -> float:
        pts = self._window_points(self._scalars.get(key, ()), window, at)
        return min((float(v) for _, v in pts), default=0.0)

    def window_histogram(
        self, key: str, window: float, at: Optional[float] = None
    ) -> LatencyHistogram:
        """The histogram of observations recorded inside the window."""
        delta = self._window_delta(self._hists.get(key, ()), window, at)
        if delta is None:
            return LatencyHistogram()
        return LatencyHistogram.from_state(_sub_states(delta[3], delta[2]))

    def quantile_over_time(
        self, q: float, key: str, window: float, at: Optional[float] = None
    ) -> float:
        """Quantile of the observations recorded inside the window."""
        return self.window_histogram(key, window, at).percentile(q)


class Monitor:
    """A scrape loop plus alert evaluation on an injectable clock.

    ``next_due()`` / ``poll()`` mirror the service's
    ``next_flush_at()`` / ``poll()`` pair so a single-threaded driver
    (the :class:`~repro.serving.scenarios.ScenarioRunner`) can stop the
    simulated clock at every scrape instant.  After each scrape the
    attached :class:`~repro.obs.alerts.AlertManager` (if any) evaluates
    its rules against the freshly extended series.
    """

    def __init__(
        self,
        registry,
        clock: Optional[Callable[[], float]] = None,
        interval: float = 0.05,
        alerts=None,
        name_filter: Optional[Sequence[str]] = None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("scrape interval must be > 0")
        self.store = TimeSeriesStore(
            registry, clock=clock, name_filter=name_filter
        )
        self.clock = self.store.clock
        self.interval = interval
        self.alerts = alerts
        self._next_due: Optional[float] = None

    def next_due(self) -> float:
        """Clock time of the next scheduled scrape (first call: now)."""
        if self._next_due is None:
            self._next_due = self.clock()
        return self._next_due

    def poll(self) -> bool:
        """Scrape iff the interval has elapsed; returns whether it did.

        The next due time is anchored at the *actual* scrape time, so a
        driver that fell behind does not trigger a catch-up storm.
        """
        t = self.clock()
        if t < self.next_due():
            return False
        self.scrape(t)
        return True

    def scrape(self, now: Optional[float] = None) -> float:
        """Unconditional scrape + alert evaluation (poll's slow half)."""
        t = self.store.scrape(now)
        self._next_due = t + self.interval
        if self.alerts is not None:
            self.alerts.evaluate(self.store, t)
        return t

    # -- convenience readouts used by CLI/report code -------------------
    @property
    def scrapes(self) -> int:
        return self.store.scrapes
