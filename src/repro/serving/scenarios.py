"""Seeded traffic/fault scenarios and the simulated-clock runner.

A :class:`Scenario` is a precomputed, sorted event list on the cluster's
simulated clock — request arrivals, shard crashes/recoveries, fault
policy swaps (brownouts), and churn write bursts.  Generators are
deterministic per seed, so a scenario run is exactly reproducible and
its SLO numbers can be recorded and regression-gated.

Five generators cover the failure modes ROADMAP item 5 names:

* :func:`calm` — steady traffic, the SLO baseline;
* :func:`diurnal` — a sinusoidal day curve;
* :func:`flash_crowd` — a hot-key arrival spike several times the
  admission rate (the shedding story);
* :func:`churn_burst` — heavy write traffic interleaved with serving;
* :func:`regional_outage` — a full shard crash and later recovery (the
  degraded-serving story);
* :func:`brownout` — a cluster-wide latency-spike window via the
  :class:`~repro.distributed.faults.FaultInjector` policy knob.

:func:`build_serving_rig` wires a full stack (network, cluster, graph,
features, encoder, service) with a catalog pre-warm — the production
pattern where a periodic batch refresh keeps a last-good embedding per
key, and online serving degrades to it under faults.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ingest import EdgeBatch
from repro.datasets.stream import RequestStream
from repro.distributed.cluster import LocalCluster
from repro.distributed.faults import FaultPolicy
from repro.distributed.rpc import NetworkModel
from repro.errors import ConfigurationError
from repro.gnn.inference import embed_vertices
from repro.gnn.models import GraphSAGE
from repro.obs.alerts import default_serving_rules
from repro.obs.monitor import Monitor
from repro.obs.trace import Tracer
from repro.serving.service import InferenceService
from repro.serving.slo import SLOReport, build_report
from repro.storage.attributes import AttributeStore

__all__ = [
    "Scenario",
    "ScenarioRunner",
    "ServingRig",
    "build_serving_rig",
    "calm",
    "diurnal",
    "flash_crowd",
    "churn_burst",
    "regional_outage",
    "brownout",
    "SCENARIOS",
]

#: Event kinds: ("request", vertices, req_kind), ("crash", shard),
#: ("recover", None), ("policy", FaultPolicy | None), ("churn", EdgeBatch).
Event = Tuple[float, str, object]


@dataclass
class Scenario:
    """A named, seeded event schedule (times relative to run start).

    ``seed`` records the generator seed that produced the schedule —
    incident bundles carry it so a captured run can be rebuilt
    bit-identically by :mod:`repro.obs.replay`.
    """

    name: str
    duration: float
    events: List[Event] = field(default_factory=list)
    seed: Optional[int] = None

    def sorted_events(self) -> List[Event]:
        return sorted(self.events, key=lambda e: e[0])


# ---------------------------------------------------------------------------
# arrival helpers
# ---------------------------------------------------------------------------
def _arrivals(rate: float, start: float, end: float) -> List[float]:
    """Deterministic arrival times at a constant rate."""
    if rate <= 0:
        return []
    gap = 1.0 / rate
    out = []
    t = start
    while t < end:
        out.append(t)
        t += gap
    return out


def _request_events(
    times: Sequence[float],
    stream: RequestStream,
    link_every: int = 8,
) -> List[Event]:
    """One request per arrival: mostly single-vertex embeds, every
    ``link_every``-th a two-vertex link-prediction request."""
    events: List[Event] = []
    for i, t in enumerate(times):
        if link_every and (i + 1) % link_every == 0:
            pair = stream.batch(2)
            events.append((t, "request", ([int(pair[0]), int(pair[1])],
                                          "link")))
        else:
            key = stream.batch(1)
            events.append((t, "request", ([int(key[0])], "embed")))
    return events


# ---------------------------------------------------------------------------
# scenario generators
# ---------------------------------------------------------------------------
def calm(
    num_sources: int,
    seed: int = 0,
    duration: float = 3.0,
    rate: float = 200.0,
    exponent: float = 0.99,
) -> Scenario:
    """Steady zipf traffic — the baseline every SLO comparison uses."""
    stream = RequestStream(num_sources, exponent=exponent, seed=seed)
    events = _request_events(_arrivals(rate, 0.0, duration), stream)
    return Scenario("calm", duration, events, seed=seed)


def diurnal(
    num_sources: int,
    seed: int = 0,
    duration: float = 4.0,
    base_rate: float = 200.0,
    amplitude: float = 0.8,
    period: float = 2.0,
    exponent: float = 0.99,
) -> Scenario:
    """A sinusoidal day curve: rate(t) = base * (1 + A sin(2πt/T))."""
    if not 0.0 <= amplitude < 1.0:
        raise ConfigurationError(
            f"amplitude must be in [0, 1), got {amplitude}"
        )
    stream = RequestStream(num_sources, exponent=exponent, seed=seed)
    times: List[float] = []
    t = 0.0
    while t < duration:
        times.append(t)
        rate = base_rate * (
            1.0 + amplitude * math.sin(2.0 * math.pi * t / period)
        )
        t += 1.0 / max(rate, 1.0)
    return Scenario("diurnal", duration, _request_events(times, stream),
                    seed=seed)


def flash_crowd(
    num_sources: int,
    seed: int = 0,
    duration: float = 3.0,
    base_rate: float = 200.0,
    spike_rate: float = 6000.0,
    spike_start: float = 1.0,
    spike_end: float = 1.5,
    hot_keys: int = 32,
    exponent: float = 0.99,
) -> Scenario:
    """A hot-key arrival spike several times the admission budget.

    Base zipf traffic runs the whole window; during the spike a crowd
    hammers the ``hot_keys`` most probable keys round-robin — the keys
    the catalog pre-warm and calm phase have already cached, so shed
    requests degrade to stale answers instead of failing.
    """
    stream = RequestStream(num_sources, exponent=exponent, seed=seed)
    events = _request_events(_arrivals(base_rate, 0.0, duration), stream)
    hot = stream.hot_sources(hot_keys)
    for i, t in enumerate(_arrivals(spike_rate, spike_start, spike_end)):
        key = int(hot[i % len(hot)])
        events.append((t, "request", ([key], "embed")))
    return Scenario("flash_crowd", duration, events, seed=seed)


def churn_burst(
    num_sources: int,
    seed: int = 0,
    duration: float = 3.0,
    rate: float = 200.0,
    burst_start: float = 1.0,
    burst_end: float = 2.0,
    writes_per_second: float = 40.0,
    batch_edges: int = 64,
    exponent: float = 0.99,
) -> Scenario:
    """Serving while a write burst churns the graph underneath."""
    stream = RequestStream(num_sources, exponent=exponent, seed=seed)
    events = _request_events(_arrivals(rate, 0.0, duration), stream)
    rng = np.random.default_rng(seed + 101)
    for t in _arrivals(writes_per_second, burst_start, burst_end):
        srcs = rng.integers(0, num_sources, batch_edges).astype(np.int64)
        dsts = rng.integers(0, num_sources, batch_edges).astype(np.int64)
        weights = rng.random(batch_edges)
        events.append((t, "churn", EdgeBatch.inserts(srcs, dsts, weights)))
    return Scenario("churn_burst", duration, events, seed=seed)


def regional_outage(
    num_sources: int,
    seed: int = 0,
    duration: float = 3.0,
    rate: float = 200.0,
    crash_at: float = 1.0,
    recover_at: float = 2.0,
    shard: int = 0,
    exponent: float = 0.99,
) -> Scenario:
    """A full shard outage: keys on the dead shard serve stale answers."""
    stream = RequestStream(num_sources, exponent=exponent, seed=seed)
    events = _request_events(_arrivals(rate, 0.0, duration), stream)
    events.append((crash_at, "crash", shard))
    events.append((recover_at, "recover", None))
    return Scenario("regional_outage", duration, events, seed=seed)


def brownout(
    num_sources: int,
    seed: int = 0,
    duration: float = 3.0,
    rate: float = 200.0,
    slow_start: float = 1.0,
    slow_end: float = 2.0,
    spike_rate: float = 0.5,
    spike_seconds: float = 2e-3,
    exponent: float = 0.99,
) -> Scenario:
    """A latency brownout: the fault injector slows RPCs for a window."""
    stream = RequestStream(num_sources, exponent=exponent, seed=seed)
    events = _request_events(_arrivals(rate, 0.0, duration), stream)
    events.append((
        slow_start,
        "policy",
        FaultPolicy(
            latency_spike_rate=spike_rate,
            latency_spike_seconds=spike_seconds,
        ),
    ))
    events.append((slow_end, "policy", None))
    return Scenario("brownout", duration, events, seed=seed)


SCENARIOS = {
    "calm": calm,
    "diurnal": diurnal,
    "flash_crowd": flash_crowd,
    "churn_burst": churn_burst,
    "regional_outage": regional_outage,
    "brownout": brownout,
}


# ---------------------------------------------------------------------------
# the rig
# ---------------------------------------------------------------------------
@dataclass
class ServingRig:
    """A fully wired serving stack (simulation fixture)."""

    cluster: LocalCluster
    service: InferenceService
    features: AttributeStore
    encoder: GraphSAGE
    num_sources: int
    #: Simulated-clock tracer (``trace=True``); serving batches open
    #: ``serve.batch`` trees the critical-path report consumes.
    tracer: Optional[Tracer] = None
    #: Continuous-monitoring loop (``monitor_interval`` set).
    monitor: Optional[Monitor] = None
    #: Flight recorder (``recorder=...``); every layer's structured
    #: events, the raw material of incident bundles.
    recorder: Optional[object] = None


def build_serving_rig(
    num_shards: int = 4,
    num_sources: int = 2000,
    degree: int = 8,
    fanouts: Sequence[int] = (3, 2),
    seed: int = 0,
    shedding: bool = True,
    admission_rate: float = 1200.0,
    admission_burst: float = 16.0,
    max_queue: int = 256,
    batch_window: float = 4e-3,
    max_batch: int = 16,
    default_deadline: float = 30e-3,
    compute_seconds_per_seed: float = 2.5e-4,
    staleness_budget: float = 120.0,
    breaker_threshold: int = 3,
    breaker_reset: float = 0.25,
    prewarm: bool = True,
    trace: bool = False,
    monitor_interval: Optional[float] = None,
    recorder=None,
) -> ServingRig:
    """One cluster + graph + features + encoder + service, pre-warmed.

    The graph keeps sources and destinations in the same ``[0,
    num_sources)`` universe so multi-hop sampling stays inside the
    feature catalog.  ``prewarm=True`` runs the catalog refresh: every
    vertex's embedding is computed once (through the degraded-row-aware
    :func:`embed_vertices`) and stamped into the service's degraded
    cache — the "last-good" state online serving falls back to.

    ``trace=True`` attaches a simulated-clock :class:`Tracer` (serving
    batches produce ``serve.batch`` span trees; roots slower than 8 ms
    also land in the slow ring).  A ``monitor_interval`` attaches a
    continuous :class:`~repro.obs.monitor.Monitor` scraping the registry
    every that-many simulated seconds, with the serving tier's
    :func:`~repro.obs.alerts.default_serving_rules` evaluated after each
    scrape.

    ``recorder`` attaches a flight recorder to every layer via
    :meth:`LocalCluster.attach_recorder` — pass ``True`` for a fresh
    default-capacity one or a pre-built
    :class:`~repro.obs.flight.FlightRecorder` instance.
    """
    network = NetworkModel()
    tracer = (
        Tracer(clock=network.now, max_traces=512, slow_threshold_seconds=8e-3)
        if trace
        else None
    )
    cluster = LocalCluster(
        num_servers=num_shards,
        network=network,
        fault_policy=FaultPolicy(),  # zero-rate: the brownout knob's host
        fault_seed=seed,
        degraded_reads=True,
        tracer=tracer,
    )
    rng = np.random.default_rng(seed)
    srcs = np.repeat(np.arange(num_sources, dtype=np.int64), degree)
    dsts = rng.integers(0, num_sources, srcs.size).astype(np.int64)
    cluster.client.bulk_load(srcs, dsts, 1.0)

    features = AttributeStore()
    features.register("feat", 16)
    features.put_many(
        "feat",
        list(range(num_sources)),
        rng.standard_normal((num_sources, 16)).astype(np.float32),
    )
    encoder = GraphSAGE(
        16, 16, 8, num_layers=len(fanouts),
        rng=np.random.default_rng(seed + 1),
    )
    service = InferenceService(
        cluster,
        features,
        encoder,
        fanouts,
        batch_window=batch_window,
        max_batch=max_batch,
        default_deadline=default_deadline,
        admission_rate=admission_rate,
        admission_burst=admission_burst,
        max_queue=max_queue,
        shedding=shedding,
        staleness_budget=staleness_budget,
        breaker_threshold=breaker_threshold,
        breaker_reset=breaker_reset,
        compute_seconds_per_seed=compute_seconds_per_seed,
        rng=seed + 2,
    )
    if prewarm:
        catalog = list(range(num_sources))
        matrix, skipped = embed_vertices(
            cluster.client,
            features,
            encoder,
            catalog,
            fanouts,
            rng=seed + 3,
            skip_unavailable=True,
        )
        served = np.delete(np.arange(num_sources), skipped)  # catalog order
        service.cache.put_many(served.tolist(), matrix[served], network.now())
    if tracer is not None:
        # Prewarm traffic produced client.* traces; drop them so the
        # rings start the scenario holding serving trees only.
        tracer.reset()
    monitor = None
    if monitor_interval is not None:
        # Keep-list scrape (standard practice on wide registries): the
        # serving rules, the watch CLI, and the monitor's self-metrics
        # only consume these prefixes, and the pushed-down filter means
        # the other ~160 cluster series never even run their view
        # callbacks.  ``cluster.attach_monitor`` directly scrapes
        # everything if a broader store is wanted.
        monitor = cluster.attach_monitor(
            interval=monitor_interval,
            rules=default_serving_rules(),
            name_filter=(
                "repro_serving_",
                "repro_monitor_",
                "repro_alerts_",
                "repro_recorder_",
            ),
        )
    attached_recorder = None
    if recorder is not None and recorder is not False:
        attached_recorder = cluster.attach_recorder(
            recorder if recorder is not True else None
        )
    return ServingRig(
        cluster,
        service,
        features,
        encoder,
        num_sources,
        tracer=tracer,
        monitor=monitor,
        recorder=attached_recorder,
    )


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------
class ScenarioRunner:
    """Drive a :class:`Scenario` through a service on simulated time.

    Between events the runner advances the clock to each pending batch
    window so micro-batches flush exactly when they would in a live
    process; event times are relative to run start, so a rig can run
    several scenarios back to back.  A rig with a monitor attached also
    stops at every due scrape instant, so the alert timeline advances
    *during* the scenario exactly as a live scrape loop would —
    ``on_scrape(monitor, now)`` (if given) is called after each scrape,
    which is how ``repro watch`` renders its live view.
    """

    def __init__(
        self,
        rig: ServingRig,
        scenario: Scenario,
        on_scrape=None,
    ) -> None:
        self.rig = rig
        self.scenario = scenario
        self.cluster = rig.cluster
        self.service = rig.service
        self.network = rig.cluster.network
        self.monitor = rig.monitor
        self.on_scrape = on_scrape
        self._t0 = 0.0

    def _sleep_to(self, t_abs: float) -> None:
        delta = t_abs - self.network.now()
        if delta > 0:
            self.network.sleep(delta)

    def _advance_to(self, t_abs: float) -> None:
        """Run pending flushes and scrapes up to ``t_abs``, then move
        there — the clock stops at every batch window *and* every due
        monitor scrape, whichever comes first."""
        while True:
            stops = []
            flush_at = self.service.next_flush_at()
            if flush_at is not None and flush_at <= t_abs:
                stops.append(flush_at)
            if self.monitor is not None:
                due = self.monitor.next_due()
                if due <= t_abs:
                    stops.append(due)
            if not stops:
                break
            self._sleep_to(min(stops))
            self.service.poll()
            if self.monitor is not None and self.monitor.poll():
                if self.on_scrape is not None:
                    self.on_scrape(self.monitor, self.network.now())
        self._sleep_to(t_abs)

    def _dispatch(self, kind: str, payload, t_abs: float) -> None:
        if kind == "request":
            vertices, req_kind = payload
            # Under overload the runner hands requests over late; the
            # scheduled arrival keeps latency/deadline accounting honest.
            self.service.submit(vertices, kind=req_kind, arrival=t_abs)
            return
        # Chaos events land in the recorder with the scenario's seed, so
        # a brownout/outage incident bundle names exactly which seeded
        # schedule produced it (and replays bit-identically from it).
        event = self.cluster.telemetry.event
        seed = self.scenario.seed
        if kind == "crash":
            event("chaos", "crash", t=t_abs, shard=int(payload), seed=seed)
            self.cluster.crash_shard(int(payload))
        elif kind == "recover":
            event("chaos", "recover", t=t_abs, seed=seed)
            self.cluster.recover_all(sync=True)
        elif kind == "policy":
            injector = self.cluster.fault_injector
            if injector is None:
                raise ConfigurationError(
                    "scenario swaps fault policy but the cluster has no "
                    "fault injector"
                )
            event(
                "chaos",
                "policy",
                t=t_abs,
                policy=asdict(payload) if payload is not None else "restore",
                seed=seed,
            )
            injector.set_policy(
                payload if payload is not None else self._base_policy
            )
        elif kind == "churn":
            event(
                "chaos",
                "churn",
                t=t_abs,
                ops=len(payload),
                src_sum=int(payload.src.sum()),
                dst_sum=int(payload.dst.sum()),
                seed=seed,
            )
            self.cluster.client.apply_edge_batch(payload)
        else:
            raise ConfigurationError(f"unknown scenario event kind {kind!r}")

    def run(
        self,
        target_availability: float = 0.99,
        reset_stats: bool = True,
    ) -> SLOReport:
        """Execute the scenario; returns its :class:`SLOReport`."""
        if reset_stats:
            self.service.reset_stats()
        injector = self.cluster.fault_injector
        self._base_policy = injector.policy if injector is not None else None
        self._t0 = self.network.now()
        for t_rel, kind, payload in self.scenario.sorted_events():
            self._advance_to(self._t0 + t_rel)
            self._dispatch(kind, payload, self._t0 + t_rel)
        self._advance_to(self._t0 + self.scenario.duration)
        self.service.flush()
        if self.monitor is not None:
            # Closing scrape: the timeline's last evaluation sees the
            # post-drain counters (a spike that cleared resolves here at
            # the latest, not at the next run).
            self.monitor.scrape()
            if self.on_scrape is not None:
                self.on_scrape(self.monitor, self.network.now())
        return build_report(
            self.service,
            scenario=self.scenario.name,
            target_availability=target_availability,
            simulated_seconds=self.network.now() - self._t0,
        )

    def run_until(self, t_stop_rel: float, reset_stats: bool = True) -> None:
        """Execute only the scenario prefix up to ``t_stop_rel``.

        The incident replay harness uses this to re-run exactly the
        window an original incident captured: same prologue as
        :meth:`run`, but the event loop stops at ``t_stop_rel``
        (relative simulated seconds from run start) and there is **no**
        final queue drain or closing scrape — state is left exactly as
        it was at the captured instant, mid-flight requests included.
        Events scheduled at the stop instant still dispatch (in the
        original run they execute after the scrape that fired there).
        """
        if reset_stats:
            self.service.reset_stats()
        injector = self.cluster.fault_injector
        self._base_policy = injector.policy if injector is not None else None
        self._t0 = self.network.now()
        for t_rel, kind, payload in self.scenario.sorted_events():
            if t_rel > t_stop_rel:
                break
            self._advance_to(self._t0 + t_rel)
            self._dispatch(kind, payload, self._t0 + t_rel)
        self._advance_to(self._t0 + t_stop_rel)
