"""Tests for continuous monitoring (``repro.obs.monitor`` / ``alerts`` /
``critical``).

Covers the time-series store's window math (rate/increase with
counter-reset correction, avg/max/min over time, windowed histogram
quantiles), the monitor's scrape scheduling, the alert lifecycle
(pending → firing → resolved, multi-window burn-rate semantics), the
critical-path partition over span trees, and the cluster/rig wiring.

The acceptance scenario of the issue — the flash-crowd burn-rate alert
transitioning pending → firing within the onset window and resolving
after shedding stabilises, plus the critical-path report attributing
≥90% of traced slow-request time to named layers — lives in
:class:`TestFlashCrowdTimeline`.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.distributed import LocalCluster, NetworkModel
from repro.errors import ConfigurationError
from repro.obs import (
    AlertManager,
    BurnRateRule,
    MetricsRegistry,
    Monitor,
    ThresholdRule,
    TimeSeriesStore,
    Tracer,
    analyze_critical_paths,
    critical_path,
    layer_for,
    lint_prometheus,
)
from repro.serving.scenarios import (
    SCENARIOS,
    ScenarioRunner,
    build_serving_rig,
)


class ManualClock:
    """An injectable clock the tests advance by hand."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


# ---------------------------------------------------------------------------
# TimeSeriesStore: scrape + window math
# ---------------------------------------------------------------------------
class TestTimeSeriesStore:
    def _store(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        return reg, clock, TimeSeriesStore(reg, clock=clock)

    def test_rate_and_increase(self):
        reg, clock, store = self._store()
        c = reg.counter("reqs_total")
        store.scrape()
        for _ in range(4):
            c.inc(10)
            clock.advance(1.0)
            store.scrape()
        # 40 increments over 4 seconds.
        assert store.increase("reqs_total", 4.0) == pytest.approx(40.0)
        assert store.rate("reqs_total", 4.0) == pytest.approx(10.0)
        # A 2s window sees only the last two scrapes' growth.
        assert store.increase("reqs_total", 2.0) == pytest.approx(20.0)
        assert store.rate("reqs_total", 2.0) == pytest.approx(10.0)

    def test_rate_covers_partial_window(self):
        """A series younger than the window answers over what it has."""
        reg, clock, store = self._store()
        c = reg.counter("reqs_total")
        store.scrape()
        c.inc(5)
        clock.advance(1.0)
        store.scrape()
        # Window of 10s, but only 1s of history: rate is 5/1, not 5/10.
        assert store.rate("reqs_total", 10.0) == pytest.approx(5.0)

    def test_counter_reset_is_absorbed(self):
        """increase() across a reset equals the true total delivered."""
        reg, clock, store = self._store()
        c = reg.counter("reqs_total")
        c.inc(30)
        store.scrape()
        clock.advance(1.0)
        c.inc(10)
        store.scrape()
        reg.reset_owned()  # the crash / reset_stats event
        clock.advance(1.0)
        c.inc(7)
        store.scrape()
        assert store.resets_total == 1
        assert store.resets["reqs_total"] == 1
        # 10 before the reset + 7 after; the 30 pre-window survives as
        # the baseline because the adjusted series stays monotone.
        assert store.increase("reqs_total", 2.0) == pytest.approx(17.0)
        # The adjusted cumulative never went backwards.
        values = [v for _, v in store.points("reqs_total")]
        assert values == sorted(values)

    def test_gauge_windows(self):
        reg, clock, store = self._store()
        g = reg.gauge("depth")
        for v in (4.0, 8.0, 2.0):
            g.set(v)
            store.scrape()
            clock.advance(1.0)
        assert store.avg_over_time("depth", 10.0) == pytest.approx(14 / 3)
        assert store.max_over_time("depth", 10.0) == 8.0
        assert store.min_over_time("depth", 10.0) == 2.0
        # A window that only reaches the last point.
        assert store.max_over_time("depth", 0.5, at=2.0) == 2.0

    def test_windowed_histogram_quantile(self):
        reg, clock, store = self._store()
        h = reg.histogram("lat_seconds")
        store.scrape()  # empty baseline — windows are deltas between
        # scrapes, so observations need a scrape on each side.
        for v in (1e-3,) * 10:
            h.record(v)
        clock.advance(1.0)
        store.scrape()
        for v in (0.5,) * 10:
            h.record(v)
        clock.advance(1.0)
        store.scrape()
        # Whole history: half fast, half slow.
        assert store.quantile_over_time(0.99, "lat_seconds", 10.0) > 0.1
        # Window covering only the second batch's delta: all slow.
        assert store.quantile_over_time(
            0.50, "lat_seconds", 1.0
        ) > 0.1
        # p50 over everything is still the fast bucket.
        assert store.quantile_over_time(
            0.50, "lat_seconds", 10.0
        ) < 1e-2

    def test_histogram_reset_detected(self):
        reg, clock, store = self._store()
        h = reg.histogram("lat_seconds")
        store.scrape()  # empty baseline
        h.record(1e-3)
        h.record(1e-3)
        clock.advance(1.0)
        store.scrape()
        reg.reset_owned()  # count drops 2 -> 1: a visible reset
        h.record(2e-3)
        clock.advance(1.0)
        store.scrape()
        assert store.resets_total == 1
        # The adjusted series still has all three observations.
        hist = store.window_histogram("lat_seconds", 10.0)
        assert hist.count == 3

    def test_unknown_series_answer_zero(self):
        _, _, store = self._store()
        assert store.rate("nope", 1.0) == 0.0
        assert store.increase("nope", 1.0) == 0.0
        assert store.avg_over_time("nope", 1.0) == 0.0
        assert store.quantile_over_time(0.99, "nope", 1.0) == 0.0

    def test_name_filter_keeps_only_prefixes(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        reg.counter("keep_this_total")
        reg.counter("drop_this_total")
        store = TimeSeriesStore(reg, clock=clock, name_filter=("keep_",))
        store.scrape()
        assert store.series_names() == ["keep_this_total"]

    def test_rings_are_bounded(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        reg.counter("c_total")
        reg.histogram("h_seconds")
        store = TimeSeriesStore(reg, clock=clock, max_points=8)
        for _ in range(50):
            clock.advance(1.0)
            store.scrape()
        assert len(store.points("c_total")) == 8
        # num_points is maintained incrementally; it must agree with
        # the actual ring contents after saturation.
        assert store.num_points == 16
        assert store.scrapes == 50

    def test_max_points_validated(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            TimeSeriesStore(reg, max_points=1)


# ---------------------------------------------------------------------------
# Monitor: scrape scheduling
# ---------------------------------------------------------------------------
class TestMonitorScheduling:
    def test_poll_respects_interval(self):
        reg = MetricsRegistry()
        reg.counter("c_total")
        clock = ManualClock()
        mon = Monitor(reg, clock=clock, interval=0.05)
        assert mon.next_due() == 0.0  # first scrape is immediate
        assert mon.poll() is True
        assert mon.poll() is False  # same instant: not due again
        clock.advance(0.04)
        assert mon.poll() is False
        clock.advance(0.01)
        assert mon.poll() is True
        assert mon.scrapes == 2

    def test_next_due_anchors_at_actual_scrape(self):
        """A driver that fell behind does not trigger a catch-up storm."""
        reg = MetricsRegistry()
        clock = ManualClock()
        mon = Monitor(reg, clock=clock, interval=0.05)
        mon.poll()
        clock.advance(0.37)  # way past several intervals
        assert mon.poll() is True
        assert mon.poll() is False  # one scrape, not seven
        assert mon.next_due() == pytest.approx(0.42)

    def test_interval_validated(self):
        with pytest.raises(ConfigurationError):
            Monitor(MetricsRegistry(), interval=0.0)


# ---------------------------------------------------------------------------
# Alerting
# ---------------------------------------------------------------------------
class TestAlertLifecycle:
    def _driven(self, rule):
        """A registry+store+manager trio driven by a manual clock."""
        reg = MetricsRegistry()
        clock = ManualClock()
        store = TimeSeriesStore(reg, clock=clock)
        manager = AlertManager([rule])
        return reg, clock, store, manager

    def test_threshold_pending_firing_resolved(self):
        rule = ThresholdRule(
            "hot", key="c_total", threshold=5.0, mode="rate",
            window=1.0, for_seconds=0.2,
        )
        reg, clock, store, manager = self._driven(rule)
        c = reg.counter("c_total")
        store.scrape()
        # Quiet: rate 0 -> inactive.
        manager.evaluate(store, clock.t)
        assert manager.alerts["hot"].state == "inactive"
        # Hot for three scrapes 0.1s apart: pending at the first,
        # firing once for_seconds elapses.
        for _ in range(3):
            c.inc(10)
            clock.advance(0.1)
            store.scrape()
            manager.evaluate(store, clock.t)
        assert manager.alerts["hot"].state == "firing"
        # Cool down: resolved, back to inactive.
        clock.advance(2.0)
        store.scrape()
        manager.evaluate(store, clock.t)
        assert manager.alerts["hot"].state == "inactive"
        states = [(e.from_state, e.to_state) for e in manager.timeline()]
        assert states == [
            ("inactive", "pending"),
            ("pending", "firing"),
            ("firing", "resolved"),
        ]

    def test_pending_blip_never_fires(self):
        rule = ThresholdRule(
            "hot", key="c_total", threshold=5.0, mode="rate",
            window=0.5, for_seconds=0.5,
        )
        reg, clock, store, manager = self._driven(rule)
        c = reg.counter("c_total")
        store.scrape()
        c.inc(100)
        clock.advance(0.1)
        store.scrape()
        manager.evaluate(store, clock.t)
        assert manager.alerts["hot"].state == "pending"
        clock.advance(1.0)  # burst long gone before for_seconds elapsed
        store.scrape()
        manager.evaluate(store, clock.t)
        assert manager.alerts["hot"].state == "inactive"
        assert [e.to_state for e in manager.timeline()] == [
            "pending",
            "inactive",
        ]

    def test_zero_for_seconds_fires_immediately(self):
        rule = ThresholdRule(
            "now", key="g", threshold=1.0, mode="latest", op=">=",
        )
        reg, clock, store, manager = self._driven(rule)
        reg.gauge("g").set(3.0)
        store.scrape()
        manager.evaluate(store, clock.t)
        assert manager.alerts["now"].state == "firing"
        # pending and firing are two logged events at the same instant.
        assert [e.to_state for e in manager.timeline()] == [
            "pending",
            "firing",
        ]

    def test_burn_rate_needs_both_windows(self):
        rule = BurnRateRule(
            "burn", good="good_total", total="all_total",
            target=0.9, fast_window=1.0, slow_window=4.0, threshold=2.0,
        )
        reg, clock, store, manager = self._driven(rule)
        good, total = reg.counter("good_total"), reg.counter("all_total")
        # 3s of clean traffic, then 1s of 50% errors: the fast window
        # burns (5.0 > 2.0) but the slow window is still diluted.
        for _ in range(3):
            good.inc(100)
            total.inc(100)
            clock.advance(1.0)
            store.scrape()
        good.inc(50)
        total.inc(100)
        clock.advance(1.0)
        store.scrape()
        fast = rule.burn(store, 1.0, clock.t)
        slow = rule.burn(store, 4.0, clock.t)
        assert fast == pytest.approx(5.0)
        assert slow < 2.0  # 50/400 errors / 0.1 budget = 1.25
        active, value = rule.evaluate(store, clock.t)
        assert not active
        assert value == pytest.approx(slow)  # the binding window
        # Sustain the error rate until the slow window crosses too.
        for _ in range(3):
            good.inc(50)
            total.inc(100)
            clock.advance(1.0)
            store.scrape()
        active, _ = rule.evaluate(store, clock.t)
        assert active

    def test_burn_rate_empty_window_is_quiet(self):
        rule = BurnRateRule(
            "burn", good="good_total", total="all_total", target=0.99,
            fast_window=1.0, slow_window=2.0,
        )
        _, clock, store, manager = self._driven(rule)
        manager.evaluate(store, clock.t)
        assert manager.alerts["burn"].state == "inactive"

    def test_duplicate_rule_rejected(self):
        manager = AlertManager(
            [ThresholdRule("a", key="x", threshold=1.0)]
        )
        with pytest.raises(ConfigurationError):
            manager.add_rule(ThresholdRule("a", key="y", threshold=2.0))

    def test_rule_validation(self):
        with pytest.raises(ConfigurationError):
            ThresholdRule("bad", key="x", threshold=1.0, mode="median")
        with pytest.raises(ConfigurationError):
            ThresholdRule("bad", key="x", threshold=1.0, op="!=")
        with pytest.raises(ConfigurationError):
            ThresholdRule("bad", key="x", threshold=1.0, mode="quantile")
        with pytest.raises(ConfigurationError):
            BurnRateRule("bad", good="g", total="t", target=1.5)
        with pytest.raises(ConfigurationError):
            BurnRateRule(
                "bad", good="g", total="t",
                fast_window=2.0, slow_window=1.0,
            )

    def test_to_dict_roundtrips_through_json(self):
        rule = ThresholdRule(
            "hot", key="c_total", threshold=5.0, mode="rate",
            labels={"severity": "page"},
        )
        reg, clock, store, manager = self._driven(rule)
        c = reg.counter("c_total")
        store.scrape()
        c.inc(100)
        clock.advance(0.1)
        store.scrape()
        manager.evaluate(store, clock.t)
        payload = json.loads(json.dumps(manager.to_dict()))
        assert payload["alerts"][0]["state"] == "firing"
        assert payload["events"][0]["labels"] == {"severity": "page"}
        assert payload["evaluations"] == 1


# ---------------------------------------------------------------------------
# Critical-path analysis
# ---------------------------------------------------------------------------
class TestCriticalPath:
    def _tree(self):
        """serve.batch [0,10]: sample [1,4] (rpc [2,4]), compute [5,9]."""
        clock = ManualClock()
        tracer = Tracer(clock=clock, sample_rate=1.0, seed=0)
        with tracer.span("serve.batch"):
            clock.advance(1.0)
            with tracer.span("serve.sample"):
                clock.advance(1.0)
                with tracer.span("rpc.read_shard"):
                    clock.advance(2.0)
            clock.advance(1.0)
            with tracer.span("serve.compute"):
                clock.advance(4.0)
            clock.advance(1.0)
        return tracer.traces()[0]

    def test_segments_partition_root_exactly(self):
        root = self._tree()
        segments = critical_path(root)
        assert sum(s.seconds for s in segments) == pytest.approx(
            root.duration
        )
        # Oldest-first, contiguous coverage of [start, end].
        assert segments[0].start == root.start
        assert segments[-1].end == root.end
        for a, b in zip(segments, segments[1:]):
            assert a.end == pytest.approx(b.start)

    def test_attribution_by_layer(self):
        report = analyze_critical_paths([self._tree()])
        by_layer = report.by_layer
        # rpc [2,4] eats the sampler's tail; sample keeps [1,2].
        assert by_layer["rpc"] == pytest.approx(2.0)
        assert by_layer["sample"] == pytest.approx(1.0)
        assert by_layer["compute"] == pytest.approx(4.0)
        # The root's own gaps: [0,1], [4,5], [9,10].
        assert by_layer["serve"] == pytest.approx(3.0)
        assert report.named_fraction == 1.0
        assert report.total_seconds == pytest.approx(10.0)

    def test_overlapping_children_clamped(self):
        """A child overrunning its sibling is clamped, never double
        counted — segments still partition the root."""
        clock = ManualClock()
        tracer = Tracer(clock=clock, sample_rate=1.0, seed=0)
        root = tracer.span("serve.batch")
        a = tracer.span("serve.sample")
        clock.advance(3.0)
        b = tracer.span("serve.compute")  # starts before a closes
        clock.advance(1.0)
        a.__exit__(None, None, None)
        clock.advance(2.0)
        b.__exit__(None, None, None)
        root.__exit__(None, None, None)
        segments = critical_path(tracer.traces()[0])
        assert sum(s.seconds for s in segments) == pytest.approx(6.0)

    def test_unfinished_children_skipped(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, sample_rate=1.0, seed=0)
        root = tracer.span("serve.batch")
        tracer.span("serve.sample")  # never exits
        clock.advance(5.0)
        root.__exit__(None, None, None)
        segments = critical_path(tracer.traces()[0])
        assert sum(s.seconds for s in segments) == pytest.approx(5.0)
        assert all(s.name == "serve.batch" for s in segments)

    def test_layer_mapping(self):
        assert layer_for("serve.sample") == "sample"
        assert layer_for("serve.batch") == "serve"
        assert layer_for("rpc.backoff") == "backoff"
        assert layer_for("rpc.read_shard") == "rpc"
        assert layer_for("samtree.sample_many") == "samtree"
        assert layer_for("mystery.op") == "other"

    def test_root_name_filter(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock, sample_rate=1.0, seed=0)
        with tracer.span("client.read"):
            clock.advance(1.0)
        with tracer.span("serve.batch"):
            clock.advance(2.0)
        report = analyze_critical_paths(
            tracer.traces(), root_name="serve.batch"
        )
        assert report.traces == 1
        assert report.total_seconds == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Cluster + rig wiring
# ---------------------------------------------------------------------------
class TestClusterWiring:
    def test_attach_monitor_self_metrics(self):
        cluster = LocalCluster(num_servers=2, network=NetworkModel())
        monitor = cluster.attach_monitor(interval=0.05)
        assert cluster.monitor is monitor
        monitor.scrape()
        monitor.scrape()
        snap = cluster.registry.snapshot()
        assert snap.get("repro_monitor_scrapes_total") == 2.0
        assert snap.get("repro_monitor_series") > 0
        assert snap.get("repro_alerts_evaluations_total") == 2.0
        assert snap.get("repro_alerts_firing") == 0.0

    def test_reattach_rebinds_views(self):
        """A second attach_monitor leaves the views reading the live
        monitor, not a stale closure."""
        cluster = LocalCluster(num_servers=1, network=NetworkModel())
        cluster.attach_monitor(interval=0.05)
        cluster.monitor.scrape()
        fresh = cluster.attach_monitor(interval=0.05)
        fresh.scrape()
        snap = cluster.registry.snapshot()
        assert snap.get("repro_monitor_scrapes_total") == 1.0

    def test_rig_monitor_uses_serving_keep_list(self):
        rig = build_serving_rig(
            num_shards=2, num_sources=50, monitor_interval=0.05,
            prewarm=False,
        )
        rig.monitor.scrape()
        names = rig.monitor.store.series_names()
        assert names  # serving + self series present
        assert all(
            n.startswith(("repro_serving_", "repro_monitor_",
                          "repro_alerts_"))
            for n in names
        )


# ---------------------------------------------------------------------------
# The acceptance scenario: flash-crowd alert timeline + critical path
# ---------------------------------------------------------------------------
class TestFlashCrowdTimeline:
    #: flash_crowd: calm until t0+1.0, 8x spike for 0.5s, then recovery.
    ONSET = 1.0
    SPIKE_END = 1.5

    def _run(self, seed: int = 0):
        rig = build_serving_rig(
            num_shards=4,
            num_sources=400,
            seed=seed,
            trace=True,
            monitor_interval=0.02,
        )
        network = rig.cluster.network
        scenario = SCENARIOS["flash_crowd"](rig.num_sources, seed=seed + 7)
        t0 = network.now()
        report = ScenarioRunner(rig, scenario).run()
        return rig, report, t0

    def test_burn_alert_fires_in_onset_window_and_resolves(self):
        rig, report, t0 = self._run()
        timeline = rig.monitor.alerts.timeline("serving_availability_burn")
        firing = [e for e in timeline if e.to_state == "firing"]
        resolved = [e for e in timeline if e.to_state == "resolved"]
        assert len(firing) == 1
        assert len(resolved) == 1
        # Fires within the onset window: after the spike begins, before
        # the fast window + de-flap could possibly have passed twice.
        assert self.ONSET < firing[0].t - t0 <= self.ONSET + 0.2
        # Resolves once shedding + recovery stabilise: soon after the
        # spike ends, well before the scenario closes.
        assert self.SPIKE_END < resolved[0].t - t0 <= 2.0
        assert firing[0].value > 8.0  # burn at fire time beats threshold
        # End state: nothing stuck.
        burn = rig.monitor.alerts.alerts["serving_availability_burn"]
        assert burn.state == "inactive"
        # Shedding kept end-to-end availability at target throughout.
        assert report.meets_target

    def test_no_firing_before_onset(self):
        rig, _, t0 = self._run()
        timeline = rig.monitor.alerts.timeline("serving_availability_burn")
        assert all(
            e.t - t0 > self.ONSET
            for e in timeline
            if e.to_state == "firing"
        )

    def test_timeline_is_deterministic(self):
        rig_a, _, t0_a = self._run()
        rig_b, _, t0_b = self._run()
        ta = [
            (round(e.t - t0_a, 9), e.rule, e.to_state)
            for e in rig_a.monitor.alerts.timeline()
        ]
        tb = [
            (round(e.t - t0_b, 9), e.rule, e.to_state)
            for e in rig_b.monitor.alerts.timeline()
        ]
        assert ta == tb
        assert ta  # the scenario does produce transitions

    def test_critical_path_names_90_percent(self):
        rig, _, _ = self._run()
        report = analyze_critical_paths(
            rig.tracer.traces(), root_name="serve.batch"
        )
        assert report.traces > 0
        assert report.named_fraction >= 0.90
        # The serving pipeline's layers carry the time.
        assert set(report.by_layer) <= {
            "sample", "gather", "compute", "serve", "client", "rpc",
            "backoff", "server", "samtree", "other",
        }

    def test_monitored_run_matches_unmonitored_slo(self):
        """The monitor observes; it must not change what it observes."""
        rig_m, report_m, _ = self._run()
        rig_p = build_serving_rig(
            num_shards=4, num_sources=400, seed=0,
        )
        scenario = SCENARIOS["flash_crowd"](rig_p.num_sources, seed=7)
        report_p = ScenarioRunner(rig_p, scenario).run()
        assert report_m.submitted == report_p.submitted
        assert report_m.answered_fresh == report_p.answered_fresh
        assert report_m.availability == report_p.availability


# ---------------------------------------------------------------------------
# CLI: repro watch / repro alerts
# ---------------------------------------------------------------------------
class TestWatchAlertsCLI:
    def test_watch_json(self, capsys):
        rc = cli_main(
            [
                "watch", "--scenario", "flash_crowd", "--format", "json",
                "--vertices", "200", "--interval", "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["scenario"] == "flash_crowd"
        assert payload["samples"]  # one row per scrape
        assert payload["alerts"]["events"]
        assert payload["critical_path"]["traces"] > 0
        assert 0.9 <= payload["critical_path"]["named_fraction"] <= 1.0

    def test_watch_human_renders_rows(self, capsys):
        rc = cli_main(
            [
                "watch", "--scenario", "calm", "--vertices", "100",
                "--interval", "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "rps" in out
        assert "alert timeline:" in out
        assert "critical path" in out

    def test_alerts_prometheus_lints_and_has_monitor_series(self, capsys):
        rc = cli_main(
            [
                "alerts", "--scenario", "flash_crowd", "--format",
                "prometheus", "--vertices", "200",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        lint_prometheus(out)
        assert "repro_monitor_scrapes_total" in out
        assert "repro_alerts_transitions_total" in out

    def test_alerts_json(self, capsys):
        rc = cli_main(
            [
                "alerts", "--scenario", "flash_crowd", "--format", "json",
                "--vertices", "200",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["scenario"] == "flash_crowd"
        assert payload["scrapes"] > 0
        rules = {e["rule"] for e in payload["events"]}
        assert "serving_availability_burn" in rules

    def test_alerts_fail_on_firing_passes_when_quiet(self, capsys):
        rc = cli_main(
            [
                "alerts", "--scenario", "calm", "--vertices", "100",
                "--fail-on-firing",
            ]
        )
        capsys.readouterr()
        assert rc == 0
