"""Tests for the flight recorder, incident bundles, and replay
(``repro.obs.flight`` / ``incident`` / ``replay``, DESIGN.md §17).

Covers the bounded event rings (wrap, eviction accounting, oldest-first
iteration), the recorder's per-layer hooks (admission, breaker, fault,
retry, WAL, replica, migration, alert, chaos), the RPC error context
satellite, the incident manager's trigger paths (alert with per-rule
cooldown, manual, exception guard), bundle (de)serialization, and the
CLI surfaces.

The acceptance scenario of the issue lives in
:class:`TestIncidentEndToEnd`: a seeded flash crowd fires the
availability burn-rate alert, the manager freezes a bundle at the
firing instant, and :func:`replay_bundle` re-runs the captured window
from the bundle's spec and converges — same alert, same simulated
instant, same event stream — while a tampered bundle diverges and
exits 3 through ``repro replay``.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core.samtree import SamtreeConfig
from repro.distributed import (
    FaultPolicy,
    LocalCluster,
    NetworkModel,
    RetryPolicy,
)
from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    TransientRPCError,
)
from repro.obs.alerts import AlertEvent
from repro.obs.flight import DEFAULT_CATEGORIES, EventRing, FlightRecorder
from repro.obs.incident import (
    IncidentManager,
    list_bundles,
    load_bundle,
    write_bundle,
)
from repro.obs.replay import (
    TIME_TOLERANCE,
    build_rig_from_spec,
    make_spec,
    replay_bundle,
    scenario_from_spec,
)
from repro.serving.admission import CircuitBreaker
from repro.serving.scenarios import ScenarioRunner, build_serving_rig


class ManualClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------
class TestEventRing:
    def test_append_and_order(self):
        ring = EventRing("admission", capacity=4)
        for i in range(3):
            ring.append(float(i), "admit", {"request_id": i})
        assert len(ring) == 3
        assert ring.dropped == 0
        events = ring.events()
        assert [e["request_id"] for e in events] == [0, 1, 2]
        assert events[0] == {"t": 0.0, "kind": "admit", "request_id": 0}

    def test_wrap_evicts_oldest(self):
        ring = EventRing("admission", capacity=4)
        for i in range(10):
            ring.append(float(i), "admit", {"request_id": i})
        assert len(ring) == 4
        assert ring.total == 10
        assert ring.dropped == 6
        assert [e["request_id"] for e in ring.events()] == [6, 7, 8, 9]

    def test_clear(self):
        ring = EventRing("x", capacity=2)
        ring.append(0.0, "k", {})
        ring.clear()
        assert len(ring) == 0
        assert ring.total == 0
        assert ring.events() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EventRing("x", capacity=0)


class TestFlightRecorder:
    def test_record_uses_bound_clock(self):
        clock = ManualClock(5.0)
        rec = FlightRecorder(clock=clock, capacity=8)
        rec.record("wal", "append", shard=0, ops=3)
        clock.advance(1.0)
        rec.record("wal", "append", t=2.5, shard=1, ops=1)
        events = rec.events("wal")
        assert events[0]["t"] == 5.0  # clock at record time
        assert events[1]["t"] == 2.5  # explicit t wins
        assert rec.events_total == 2

    def test_unknown_category_raises(self):
        rec = FlightRecorder(capacity=4)
        with pytest.raises(ConfigurationError):
            rec.record("nope", "kind")

    def test_per_category_capacities(self):
        rec = FlightRecorder(capacity=4, capacities={"admission": 2})
        assert rec.ring("admission").capacity == 2
        assert rec.ring("wal").capacity == 4

    def test_snapshot_shape(self):
        rec = FlightRecorder(capacity=4)
        rec.record("breaker", "open", t=1.0, shard=2)
        snap = rec.snapshot()
        assert snap["events_total"] == 1
        assert snap["dropped_total"] == 0
        assert set(snap["categories"]) == set(DEFAULT_CATEGORIES)
        breaker = snap["categories"]["breaker"]
        assert breaker["total"] == 1
        assert breaker["events"] == [{"t": 1.0, "kind": "open", "shard": 2}]
        # snapshot round-trips through JSON unchanged
        assert json.loads(json.dumps(snap, sort_keys=True)) == json.loads(
            json.dumps(rec.to_dict(), sort_keys=True)
        )

    def test_observe_alerts_records_transitions(self):
        from repro.obs import AlertManager, MetricsRegistry, ThresholdRule
        from repro.obs.monitor import TimeSeriesStore

        clock = ManualClock()
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        store = TimeSeriesStore(registry, clock=clock)
        manager = AlertManager(
            [ThresholdRule("deep", "depth", threshold=5.0, mode="latest",
                           window=1.0)],
        )
        rec = FlightRecorder(clock=clock, capacity=8)
        manager.add_listener(rec.record_alert)
        manager.add_listener(rec.record_alert)  # idempotent
        gauge.set(9.0)
        clock.advance(1.0)
        store.scrape(clock())
        manager.evaluate(store, clock())
        events = rec.events("alert")
        assert [e["kind"] for e in events] == ["pending", "firing"]
        assert events[-1]["rule"] == "deep"
        assert events[-1]["value"] == 9.0
        assert events[-1]["threshold"] == 5.0


# ---------------------------------------------------------------------------
# satellites: error context + alert event threshold
# ---------------------------------------------------------------------------
class TestRPCErrorContext:
    def test_retry_populates_context_and_records(self):
        clock = ManualClock()
        rec = FlightRecorder(clock=clock, capacity=16)
        policy = RetryPolicy(
            max_attempts=3, base_backoff_seconds=1e-4, seed=1,
            recorder=rec,
        )

        def always_fails():
            raise TransientRPCError("shard flaked", shard=1, endpoint="w")

        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.run(always_fails, now=clock,
                       sleep=lambda s: clock.advance(s))
        err = excinfo.value
        assert err.shard == 1
        assert err.endpoint == "w"
        assert err.attempt == 3
        assert err.timestamp is not None
        kinds = [e["kind"] for e in rec.events("retry")]
        assert kinds == ["transient", "transient", "transient", "exhausted"]
        exhausted = rec.events("retry")[-1]
        assert exhausted["shard"] == 1
        assert exhausted["attempts"] == 3

    def test_alert_event_to_dict_carries_value_and_threshold(self):
        event = AlertEvent(
            t=1.0, rule="r", from_state="pending", to_state="firing",
            value=42.0, labels={"severity": "page"}, threshold=8.0,
        )
        payload = event.to_dict()
        assert payload["value"] == 42.0
        assert payload["threshold"] == 8.0


# ---------------------------------------------------------------------------
# layer hooks through a real cluster
# ---------------------------------------------------------------------------
class TestClusterHooks:
    def test_wal_fault_and_chaos_paths_record(self, tmp_path):
        import random

        from repro.core.ingest import EdgeBatch

        network = NetworkModel()
        cluster = LocalCluster(
            num_servers=2,
            config=SamtreeConfig(capacity=8),
            network=network,
            durable=True,
            wal_dir=str(tmp_path / "wal"),
            fault_policy=FaultPolicy(),
            fault_seed=3,
            retry=RetryPolicy(max_attempts=4, base_backoff_seconds=1e-4),
        )
        rec = cluster.attach_recorder()
        assert cluster.recorder is rec
        assert cluster.fault_injector.telemetry.recorder is rec

        rng = random.Random(0)
        srcs = [rng.randrange(40) for _ in range(200)]
        dsts = [rng.randrange(80) for _ in range(200)]
        cluster.client.bulk_load(srcs, dsts, 1.0)
        cluster.client.add_edge(1, 2, 1.0)
        assert any(e["kind"] == "append" for e in rec.events("wal"))

        assert cluster.checkpoint_all() > 0
        checkpoints = [e for e in rec.events("wal")
                       if e["kind"] == "checkpoint"]
        assert checkpoints and all(e["bytes"] > 0 for e in checkpoints)

        # policy swap + crash/recover land in fault
        previous = cluster.fault_injector.set_policy(
            FaultPolicy(transient_error_rate=0.5)
        )
        cluster.fault_injector.set_policy(previous)
        swaps = [e for e in rec.events("fault") if e["kind"] == "policy_swap"]
        assert len(swaps) == 2
        assert swaps[0]["new"]["transient_error_rate"] == 0.5

        cluster.crash_shard(0)
        cluster.recover_all(sync=True)
        kinds = {e["kind"] for e in rec.events("fault")}
        assert "crash" in kinds and "recover" in kinds
        recover = [e for e in rec.events("fault")
                   if e["kind"] == "recover"][0]
        assert recover["shard"] == 0
        assert recover["replayed"] >= 0

        # self-metric views registered on the cluster registry
        snap = cluster.registry.snapshot()
        assert snap.get("repro_recorder_events_total") == float(
            rec.events_total
        )

    def test_migration_record(self):
        import numpy as np

        from repro.datasets.stream import RequestStream
        from repro.distributed.rebalance import execute_plan, plan_rebalance

        cluster = LocalCluster(
            num_servers=3,
            config=SamtreeConfig(capacity=8),
            hot_set_capacity=64,
        )
        rec = cluster.attach_recorder()
        rng = np.random.default_rng(1)
        srcs = np.repeat(np.arange(60, dtype=np.int64), 6)
        dsts = rng.integers(0, 60, srcs.size).astype(np.int64)
        cluster.client.bulk_load(srcs, dsts, 1.0)
        requests = RequestStream(60, exponent=1.2, seed=5)
        for _ in range(8):
            cluster.client.sample_neighbors_many(
                requests.batch(32), 4, rng
            )

        moves = plan_rebalance(cluster, tolerance=0.01, max_moves=4)
        if moves:  # the seeded skew reliably yields at least one move
            execute_plan(cluster, moves, verify=True)
            cuts = rec.events("migration")
            assert cuts and cuts[0]["kind"] == "cutover"
            assert {"src", "from_shard", "to_shard", "edges"} <= set(
                cuts[0]
            )

    def test_breaker_transitions_record(self):
        clock = ManualClock()
        rec = FlightRecorder(clock=clock, capacity=8)
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=0.5, shard=1, recorder=rec
        )
        breaker.record_failure(clock())
        breaker.record_failure(clock())  # trips open
        clock.advance(0.6)
        assert breaker.allow(clock())  # half-open probe
        breaker.record_failure(clock())  # fails while open -> reopen
        clock.advance(0.6)
        assert breaker.allow(clock())
        breaker.record_success()  # closes
        kinds = [e["kind"] for e in rec.events("breaker")]
        assert kinds == ["open", "half_open", "reopen", "half_open",
                         "close"]
        assert all(e["shard"] == 1 for e in rec.events("breaker"))
        # steady-state successes on a closed breaker stay silent
        breaker.record_success()
        assert len(rec.events("breaker")) == 5

    def test_serving_rig_records_admission(self):
        rig = build_serving_rig(
            num_shards=2, num_sources=100, seed=3, recorder=True
        )
        rig.service.submit([5], arrival=rig.cluster.network.now())
        rig.service.flush()
        admits = [e for e in rig.recorder.events("admission")
                  if e["kind"] == "admit"]
        assert admits and admits[0]["request_id"] == 0
        assert "queue_depth" in admits[0]

    @pytest.mark.parametrize("recorder_first", [True, False])
    def test_attach_order_does_not_matter(self, recorder_first):
        """A service (and its breakers) records whether it was built
        before or after ``attach_recorder`` — the hub is shared, not
        copied at attach time."""
        from repro.serving.service import InferenceService

        rig = build_serving_rig(
            num_shards=2, num_sources=100, seed=3, recorder=recorder_first
        )
        service = InferenceService(
            rig.cluster, rig.features, rig.encoder, rig.service.fanouts
        )
        rec = rig.recorder or rig.cluster.attach_recorder()
        service.submit([5], arrival=rig.cluster.network.now())
        service.flush()
        assert [e["kind"] for e in rec.events("admission")] == ["admit"]
        breaker = service.breakers[0]
        for _ in range(breaker.failure_threshold):
            breaker.record_failure(rig.cluster.network.now())
        assert [e["kind"] for e in rec.events("breaker")] == ["open"]


# ---------------------------------------------------------------------------
# incident manager
# ---------------------------------------------------------------------------
class TestIncidentManager:
    def _cluster(self):
        return LocalCluster(
            num_servers=2, config=SamtreeConfig(capacity=8)
        )

    def test_manual_trigger_and_bundle_roundtrip(self, tmp_path):
        cluster = LocalCluster(
            num_servers=2, config=SamtreeConfig(capacity=8), durable=True
        )
        cluster.attach_recorder()
        cluster.client.add_edge(1, 2, 1.0)
        manager = IncidentManager(cluster, out_dir=str(tmp_path))
        manager.mark_start({"scenario": "calm", "seed": 0})
        bundle = manager.trigger(reason="operator poke")
        assert bundle["meta"]["trigger"] == "manual"
        assert bundle["meta"]["reason"] == "operator poke"
        assert bundle["events"]["events_total"] > 0
        path = os.path.join(tmp_path, bundle["meta"]["id"])
        loaded = load_bundle(path)
        assert loaded["meta"]["id"] == bundle["meta"]["id"]
        assert loaded["spec"] == {"scenario": "calm", "seed": 0}
        metas = list_bundles(str(tmp_path))
        assert [m["id"] for m in metas] == [bundle["meta"]["id"]]
        assert metas[0]["path"] == path

    def test_cooldown_suppresses_refires(self):
        cluster = self._cluster()
        manager = IncidentManager(cluster, cooldown=1.0)
        fire = lambda t: manager._on_alert(AlertEvent(
            t=t, rule="burn", from_state="pending", to_state="firing",
            value=1.0, labels={},
        ))
        fire(0.0)
        fire(0.5)   # within cooldown: suppressed
        fire(0.99)  # still within
        fire(1.5)   # past cooldown: captured
        assert len(manager.incidents) == 2
        assert manager.suppressed == 2
        # non-firing transitions never capture
        manager._on_alert(AlertEvent(
            t=9.0, rule="burn", from_state="firing", to_state="resolved",
            value=0.0, labels={},
        ))
        assert len(manager.incidents) == 2

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ConfigurationError):
            IncidentManager(self._cluster(), cooldown=-1.0)

    def test_load_bundle_missing_section_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_bundle(str(tmp_path / "nope"))
        os.makedirs(tmp_path / "incident-x")
        with pytest.raises(ConfigurationError):
            load_bundle(str(tmp_path / "incident-x"))

    def test_bad_sections_and_specs_raise(self, tmp_path):
        bundle = {
            "meta": {"id": "incident-x", "trigger": "manual", "t_rel": 0.0},
            # A manual capture's spec: no scenario_seed, so no replay.
            "spec": {"scenario": "calm", "seed": 0},
            "events": {}, "metrics": {}, "series": {}, "traces": [],
            "doctor": {},
        }
        path = write_bundle(bundle, str(tmp_path))
        assert load_bundle(path)["spec"] == bundle["spec"]
        with pytest.raises(ConfigurationError, match="spec.json"):
            replay_bundle(path)
        for spec in ([], {"scenario": "calm", "seed": "0",
                          "scenario_seed": 7}):
            with pytest.raises(ConfigurationError):
                build_rig_from_spec(spec)
        with pytest.raises(ConfigurationError):
            replay_bundle({"meta": [], "spec": make_spec("calm")})
        with open(os.path.join(path, "traces.json"), "w") as fh:
            fh.write("{}")
        with pytest.raises(ConfigurationError, match="traces.json"):
            load_bundle(path)
        with open(os.path.join(path, "events.json"), "w") as fh:
            fh.write('{"events_total": ')
        with pytest.raises(ConfigurationError, match="events.json"):
            load_bundle(path)


# ---------------------------------------------------------------------------
# the acceptance scenario: capture -> replay convergence
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def captured_incident(tmp_path_factory):
    """One monitored flash-crowd run with an auto-captured bundle."""
    out_dir = str(tmp_path_factory.mktemp("incidents"))
    spec = make_spec(
        "flash_crowd",
        seed=0,
        rig_kwargs={
            "num_shards": 4,
            "num_sources": 400,
            "trace": True,
            "monitor_interval": 0.05,
        },
    )
    rig = build_rig_from_spec(spec)
    manager = IncidentManager(rig.cluster, out_dir=out_dir)
    manager.watch(rig.monitor.alerts)
    manager.mark_start(spec)
    runner = ScenarioRunner(rig, scenario_from_spec(spec, rig.num_sources))
    report = runner.run()
    return {
        "spec": spec,
        "rig": rig,
        "manager": manager,
        "report": report,
        "out_dir": out_dir,
    }


class TestIncidentEndToEnd:
    def test_flash_crowd_fires_and_captures(self, captured_incident):
        manager = captured_incident["manager"]
        assert manager.incidents, "flash crowd fired no alert"
        meta = manager.incidents[0]["meta"]
        assert meta["trigger"] == "alert"
        assert meta["rule"] == "serving_availability_burn"
        assert meta["value"] > meta["threshold"]
        bundle = manager.incidents[0]
        assert bundle["events"]["events_total"] > 0
        cats = bundle["events"]["categories"]
        assert cats["admission"]["total"] > 0
        assert cats["alert"]["total"] > 0
        assert bundle["metrics"]["window_diff"][
            "repro_serving_submitted"
        ] > 0
        assert bundle["spec"] == captured_incident["spec"]
        # persisted alongside
        assert list_bundles(captured_incident["out_dir"])

    def test_replay_converges_in_memory_and_from_disk(
        self, captured_incident
    ):
        original = captured_incident["manager"].incidents[0]
        result = replay_bundle(original)
        assert result.converged, result.mismatches
        assert result.alert_match and result.events_match
        assert abs(
            result.replay_t_rel - original["meta"]["t_rel"]
        ) <= TIME_TOLERANCE
        # and identically from the serialized bundle directory
        path = os.path.join(
            captured_incident["out_dir"], original["meta"]["id"]
        )
        disk = replay_bundle(path)
        assert disk.converged, disk.mismatches
        payload = disk.to_dict()
        assert payload["converged"] is True
        assert payload["rule"] == "serving_availability_burn"

    def test_tampered_bundle_diverges(self, captured_incident):
        original = captured_incident["manager"].incidents[0]
        tampered = copy.deepcopy(
            json.loads(json.dumps(original, sort_keys=True))
        )
        tampered["events"]["categories"]["admission"]["events"][0][
            "t"
        ] += 1e-3
        result = replay_bundle(tampered)
        assert not result.converged
        assert not result.events_match
        assert result.alert_match  # the alert itself still re-fires
        assert any("admission" in m for m in result.mismatches)

    def test_bundle_without_spec_refuses_replay(self, captured_incident):
        orphan = copy.deepcopy(captured_incident["manager"].incidents[0])
        orphan["spec"] = None
        with pytest.raises(ConfigurationError):
            replay_bundle(orphan)

    def test_chaos_brownout_replays_bit_identically(self):
        """Brownout chaos (fault-policy swaps) lands in the recorder
        with the scenario seed, and two independent runs of the same
        spec produce byte-identical recorder snapshots."""
        spec = make_spec(
            "brownout",
            seed=0,
            rig_kwargs={
                "num_shards": 4,
                "num_sources": 400,
                "monitor_interval": 0.05,
            },
            scenario_kwargs={"spike_rate": 1.0, "spike_seconds": 6e-3},
        )

        def run():
            rig = build_rig_from_spec(spec)
            runner = ScenarioRunner(
                rig, scenario_from_spec(spec, rig.num_sources)
            )
            runner.run()
            return rig.recorder.snapshot()

        first, second = run(), run()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        chaos = first["categories"]["chaos"]["events"]
        assert [e["kind"] for e in chaos] == ["policy", "policy"]
        assert all(e["seed"] == spec["scenario_seed"] for e in chaos)
        assert chaos[0]["policy"]["latency_spike_rate"] == 1.0
        assert chaos[1]["policy"] == "restore"
        assert first["categories"]["fault"]["total"] > 0  # spikes landed


# ---------------------------------------------------------------------------
# CLI surfaces (golden schemas)
# ---------------------------------------------------------------------------
class TestCLI:
    def test_watch_json_schema(self, capsys, tmp_path):
        rc = cli_main([
            "watch", "--scenario", "flash_crowd", "--format", "json",
            "--incidents-dir", str(tmp_path / "b"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "scenario", "slo", "samples", "alerts", "critical_path",
            "incidents", "incidents_suppressed",
        }
        assert payload["incidents"], "watch captured no incident"
        meta = payload["incidents"][0]
        assert {"id", "trigger", "rule", "t", "t_rel", "t0",
                "window_seconds", "value", "threshold",
                "labels"} <= set(meta)
        assert list_bundles(str(tmp_path / "b"))

    def test_alerts_json_schema(self, capsys):
        rc = cli_main([
            "alerts", "--scenario", "flash_crowd", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("alerts", "events", "scenario", "t0", "scrapes",
                    "incidents"):
            assert key in payload, key
        assert payload["events"], "no alert transitions"
        event = payload["events"][0]
        assert {"t", "rule", "from", "to", "value",
                "threshold"} <= set(event)

    def test_incidents_and_replay_cli(self, capsys, tmp_path):
        bundles = str(tmp_path / "bundles")
        rc = cli_main([
            "watch", "--scenario", "flash_crowd", "--format", "json",
            "--incidents-dir", bundles,
        ])
        assert rc == 0
        capsys.readouterr()

        rc = cli_main(["incidents", "list", "--dir", bundles,
                       "--format", "json"])
        assert rc == 0
        listing = json.loads(capsys.readouterr().out)
        assert set(listing) == {"dir", "incidents"}
        assert listing["incidents"]
        incident_id = listing["incidents"][0]["id"]
        assert "path" in listing["incidents"][0]

        rc = cli_main(["incidents", "show", "--dir", bundles,
                       "--id", incident_id, "--format", "json"])
        assert rc == 0
        shown = json.loads(capsys.readouterr().out)
        assert set(shown) == {"meta", "spec", "events", "metrics",
                              "series", "traces", "doctor"}

        out_file = str(tmp_path / "export.json")
        rc = cli_main(["incidents", "export", "--dir", bundles,
                       "--id", incident_id, "--out", out_file])
        assert rc == 0
        capsys.readouterr()
        with open(out_file) as fh:
            assert json.load(fh)["meta"]["id"] == incident_id

        rc = cli_main(["replay", os.path.join(bundles, incident_id),
                       "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        verdict = json.loads(out)
        assert set(verdict) == {
            "bundle_id", "trigger", "rule", "original_t_rel",
            "replay_t_rel", "alert_match", "events_match", "converged",
            "mismatches", "replay_firings",
        }
        assert verdict["converged"] is True

    def test_replay_cli_exits_3_on_divergence(self, capsys, tmp_path):
        bundles = str(tmp_path / "bundles")
        rc = cli_main([
            "alerts", "--scenario", "flash_crowd", "--format", "json",
            "--incidents-dir", bundles,
        ])
        assert rc == 0
        capsys.readouterr()
        metas = list_bundles(bundles)
        assert metas
        path = metas[0]["path"]
        # tamper with the serialized event stream
        events_path = os.path.join(path, "events.json")
        with open(events_path) as fh:
            events = json.load(fh)
        events["categories"]["admission"]["events"][0]["t"] += 1e-3
        with open(events_path, "w") as fh:
            json.dump(events, fh)
        rc = cli_main(["replay", path])
        out = capsys.readouterr().out
        assert rc == 3
        assert "DIVERGED" in out
