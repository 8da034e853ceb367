"""Deadline-aware online inference over a :class:`LocalCluster`.

The request path the paper's production setting implies (§II-A: serving
embedding queries against the live graph ``G^(t)``), hardened for the
chaos the cluster layer can inject:

* **micro-batching** — requests collect for at most ``batch_window``
  simulated seconds or ``max_batch`` requests, then one
  sample+gather+compute pass through the cluster's batched read path;
* **admission control** — a token-bucket + queue-depth gate
  (:class:`~repro.serving.admission.AdmissionGate`) sheds load *before*
  the expensive sample step, with per-cause counters; per-shard
  :class:`~repro.serving.admission.CircuitBreaker`\\ s stop a dead shard
  from eating whole-batch deadlines;
* **deadline threading** — each batch runs under
  :meth:`GraphClient.deadline_scope` with the tightest deadline of its
  requests, so retries never burn budget a request no longer has;
* **degraded serving** — seeds on UNAVAILABLE shards (and rescued shed
  requests) answer from a staleness-bounded
  :class:`~repro.serving.degraded.DegradedAnswerCache` of last-good
  embeddings, flagged ``degraded=True``; the service never raises on
  the request path — every submitted request resolves to exactly one
  :class:`Answer` with status ``fresh`` / ``degraded`` / ``failed``.

Everything runs on the cluster's simulated clock, so scenarios are
deterministic per seed and SLO numbers are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.snapshot import RNGLike, coerce_generator
from repro.core.types import DEFAULT_ETYPE, SLOTTED
from repro.errors import ConfigurationError
from repro.gnn.models import GraphSAGE
from repro.gnn.ops import l2_normalize
from repro.gnn.samplers import sample_blocks_partial
from repro.obs.hist import LatencyHistogram
from repro.obs.telemetry import Stats
from repro.serving.admission import (
    SHED_BREAKER_OPEN,
    SHED_DEADLINE_HOPELESS,
    SHED_QUEUE_FULL,
    AdmissionGate,
    CircuitBreaker,
)
from repro.serving.degraded import DegradedAnswerCache
from repro.storage.attributes import AttributeStore

__all__ = ["Answer", "InferenceService", "Request", "ServiceStats"]


@dataclass
class ServiceStats(Stats):
    """Request-path counters (exported as ``repro_serving_*``).

    Every submitted request resolves to exactly one of
    ``answered_fresh`` / ``answered_degraded`` / ``failed``; the
    ``shed_*`` counters record admission decisions on an independent
    axis (a shed request still resolves — degraded when the cache
    rescues it, failed otherwise).  ``deadline_missed`` counts answers
    delivered past their deadline; availability counts only in-deadline
    fresh or degraded answers.
    """

    DERIVED = ("shed_total", "availability", "degraded_fraction")
    GAUGES = ("availability",)

    submitted: int = 0
    answered_fresh: int = 0
    answered_degraded: int = 0
    failed: int = 0
    shed_queue_full: int = 0
    shed_deadline_hopeless: int = 0
    shed_breaker_open: int = 0
    deadline_missed: int = 0
    batches: int = 0
    batched_requests: int = 0
    #: Whole-batch sampling exceptions converted to degraded/failed
    #: answers (the request path itself never raises).
    sample_errors: int = 0
    #: Answers served from the degraded cache instead of a fresh pass.
    cache_fallbacks: int = 0
    compute_seconds: float = 0.0

    @property
    def shed_total(self) -> int:
        return (
            self.shed_queue_full
            + self.shed_deadline_hopeless
            + self.shed_breaker_open
        )

    @property
    def availability(self) -> float:
        """Fraction of requests answered (fresh or degraded) in deadline."""
        if not self.submitted:
            return 1.0
        good = (
            self.answered_fresh + self.answered_degraded
            - self.deadline_missed
        )
        return max(0.0, good) / self.submitted

    @property
    def degraded_fraction(self) -> float:
        answered = self.answered_fresh + self.answered_degraded
        return self.answered_degraded / answered if answered else 0.0


@dataclass(**SLOTTED)
class Request:
    """One inference request; ``answer`` is set exactly once."""

    request_id: int
    vertices: List[int]
    kind: str  # "embed" | "link"
    deadline: Optional[float]
    submitted_at: float
    answer: Optional["Answer"] = None


@dataclass(**SLOTTED)
class Answer:
    """Resolution of one request.

    ``status`` is ``fresh`` (all rows from a live pass), ``degraded``
    (at least one row from the stale cache — ``degraded`` is True), or
    ``failed`` (no answer producible).  ``shed_cause`` records the
    admission decision when one was made, independent of the status the
    cache rescue produced.
    """

    request_id: int
    status: str
    degraded: bool = False
    shed_cause: Optional[str] = None
    embeddings: Optional[np.ndarray] = None
    score: Optional[float] = None
    latency: float = 0.0
    completed_at: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in ("fresh", "degraded")


class InferenceService:
    """Micro-batching, deadline-aware inference endpoint.

    Parameters
    ----------
    cluster:
        A :class:`~repro.distributed.cluster.LocalCluster` with a
        network model attached (the simulated clock) — degraded reads
        are forced on so shard outages surface as per-seed markers
        instead of exceptions.
    features, encoder, fanouts:
        The embedding model: a local :class:`AttributeStore`, a
        :class:`GraphSAGE`, and per-layer fanouts (``len(fanouts)``
        must equal the encoder depth).
    batch_window:
        Maximum simulated seconds a request waits for batch-mates.
    max_batch:
        Requests per batch; a full queue flushes immediately.
    default_deadline:
        Per-request deadline (simulated seconds from submit) when the
        caller gives none.
    admission_rate, admission_burst, max_queue:
        Token-bucket rate/burst and queue-depth bound of the admission
        gate.  ``shedding=False`` disables the gate (and expired-in-
        queue shedding) — the control arm of the SLO benchmark.
    staleness_budget, cache_capacity:
        Degraded-answer cache bounds.
    breaker_threshold, breaker_reset:
        Per-shard circuit breaker: consecutive hard failures to open,
        and the open→half-open timeout (simulated seconds).
    compute_seconds_per_seed:
        Modeled forward-pass cost charged to the simulated clock per
        seed vertex in a batch.
    """

    def __init__(
        self,
        cluster,
        features: AttributeStore,
        encoder: GraphSAGE,
        fanouts: Sequence[int],
        feat_name: str = "feat",
        batch_window: float = 4e-3,
        max_batch: int = 32,
        default_deadline: float = 30e-3,
        admission_rate: float = 2000.0,
        admission_burst: float = 64.0,
        max_queue: int = 128,
        shedding: bool = True,
        staleness_budget: float = 60.0,
        cache_capacity: int = 65536,
        breaker_threshold: int = 3,
        breaker_reset: float = 0.25,
        compute_seconds_per_seed: float = 2e-5,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> None:
        network = getattr(cluster, "network", None)
        if network is None:
            raise ConfigurationError(
                "InferenceService needs a cluster with a NetworkModel "
                "(the simulated clock deadlines are measured on)"
            )
        if len(fanouts) != encoder.num_layers:
            raise ConfigurationError(
                f"fanouts length {len(fanouts)} != encoder depth "
                f"{encoder.num_layers}"
            )
        if batch_window <= 0:
            raise ConfigurationError("batch_window must be > 0")
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if default_deadline <= 0:
            raise ConfigurationError("default_deadline must be > 0")
        self.cluster = cluster
        self.client = cluster.client
        self.network = network
        # The cluster's hub, shared by reference: batch stages nest over
        # the client's rpc.* spans (the tree critical-path analysis
        # attributes p999 time with) and admission/breaker events reach
        # whatever recorder is attached, now or later.
        self.telemetry = cluster.telemetry
        # Shard outages must surface as per-seed markers, not exceptions.
        self.client.degraded_reads = True
        self.features = features
        self.encoder = encoder
        self.fanouts = list(fanouts)
        self.feat_name = feat_name
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.default_deadline = default_deadline
        self.shedding = shedding
        self.gate = AdmissionGate(admission_rate, admission_burst, max_queue)
        self.cache = DegradedAnswerCache(staleness_budget, cache_capacity)
        self.breakers: Dict[int, CircuitBreaker] = {
            shard: CircuitBreaker(breaker_threshold, breaker_reset,
                                  shard=shard)
            for shard in range(len(cluster.servers))
        }
        for breaker in self.breakers.values():
            breaker.telemetry = self.telemetry
        self.compute_seconds_per_seed = compute_seconds_per_seed
        # The vector generator itself: every flush's expansion passes it
        # down as is (no per-flush re-derivation from a scalar rng).
        self.rng = coerce_generator(rng if rng is not None else 0)
        self.etype = etype
        self.stats = ServiceStats()
        registry = getattr(cluster, "registry", None)
        # Resolved by name: the registry reads the histogram the current
        # service records into, and a replacement service starts it from
        # zero, like its stats.
        self.latency_hist = (
            registry.histogram(
                "repro_serving_request_seconds",
                help="End-to-end request latency (simulated seconds)",
            )
            if registry is not None
            else LatencyHistogram()
        )
        self.latency_hist.reset()
        self.queue: List[Request] = []
        self._next_id = 0
        #: EWMA of measured per-request flush seconds (admission estimate).
        self._est_request_seconds = 1e-3
        # The cluster's reset_stats / doctor / report probe this handle.
        cluster.inference_service = self
        if registry is not None and not registry.has(
            "repro_serving_submitted"
        ):
            # Both read through ``cluster.inference_service``, so a
            # replacement service is what the registry reports from the
            # moment it is constructed.
            registry.watch(
                "repro_serving", lambda c=cluster: c.inference_service.stats
            )
            registry.register_view(
                "repro_serving_breaker_trips",
                lambda c=cluster: float(
                    sum(b.trips for b in c.inference_service.breakers.values())
                ),
                help="Closed->open circuit breaker transitions",
            )

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def submit(
        self,
        vertices: Sequence[int],
        kind: str = "embed",
        deadline: Optional[float] = None,
        arrival: Optional[float] = None,
    ) -> Request:
        """Submit one request; returns its :class:`Request` handle.

        ``deadline`` is relative (simulated seconds from arrival); shed
        requests resolve immediately (cache rescue or failure), admitted
        requests resolve at the batch flush that includes them.

        ``arrival`` is the request's scheduled arrival time on the
        simulated clock (default: now).  The single-threaded scenario
        runner can only hand requests over after earlier work finished —
        under overload that is *later* than they arrived — so latency
        and deadlines are measured from arrival, exactly as a real
        server's accept queue would.
        """
        if kind not in ("embed", "link"):
            raise ConfigurationError(f"kind must be embed|link, got {kind!r}")
        verts = [int(v) for v in vertices]
        if not verts:
            raise ConfigurationError("a request needs at least one vertex")
        if kind == "link" and len(verts) != 2:
            raise ConfigurationError("link requests take exactly 2 vertices")
        now = self.network.now()
        arrived = now if arrival is None else min(float(arrival), now)
        request = Request(
            request_id=self._next_id,
            vertices=verts,
            kind=kind,
            deadline=arrived + (deadline if deadline is not None
                                else self.default_deadline),
            submitted_at=arrived,
        )
        self._next_id += 1
        self.stats.submitted += 1

        # Breaker gate: a hard-open breaker on any touched shard sheds
        # before queueing (half-open probes are admitted).  Only a
        # breaker that is not closed can shed: hash vertices only then.
        breakers = self.breakers
        shard_of = self.client.partitioner.shard_for
        if any(b.opened_at is not None for b in breakers.values()) and any(
            breakers[shard_of(v)].state(now) == "open" for v in verts
        ):
            self.stats.shed_breaker_open += 1
            self._shed(request, SHED_BREAKER_OPEN, now)
            return request

        if self.shedding:
            estimated = (
                now
                + self.batch_window
                + self._est_request_seconds * (len(self.queue) + 1)
            )
            cause = self.gate.check(
                now, len(self.queue), request.deadline, estimated
            )
            if cause is not None:
                if cause == SHED_QUEUE_FULL:
                    self.stats.shed_queue_full += 1
                else:
                    self.stats.shed_deadline_hopeless += 1
                self._shed(request, cause, now)
                return request

        self.telemetry.event(
            "admission",
            "admit",
            t=now,
            request_id=request.request_id,
            queue_depth=len(self.queue),
        )
        self.queue.append(request)
        if len(self.queue) >= self.max_batch:
            self._flush()
        return request

    def poll(self) -> int:
        """Flush any batch whose window has elapsed; returns #flushes."""
        flushes = 0
        while self.queue and (
            self.network.now() >= self.queue[0].submitted_at
            + self.batch_window
        ):
            self._flush()
            flushes += 1
        return flushes

    def next_flush_at(self) -> Optional[float]:
        """Simulated time the oldest queued request's window elapses."""
        if not self.queue:
            return None
        return self.queue[0].submitted_at + self.batch_window

    def flush(self) -> None:
        """Force-drain the queue (scenario teardown)."""
        while self.queue:
            self._flush()

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        batch = self.queue[: self.max_batch]
        del self.queue[: len(batch)]
        now = self.network.now()
        self.stats.batches += 1
        self.stats.batched_requests += len(batch)

        live: List[Request] = []
        for request in batch:
            # Expired while queued: with shedding on, cut losses before
            # the sample; without, process anyway (it will miss).
            if (
                self.shedding
                and request.deadline is not None
                and now >= request.deadline
            ):
                self.stats.shed_deadline_hopeless += 1
                self._shed(request, SHED_DEADLINE_HOPELESS, now)
                continue
            live.append(request)
        if not live:
            return

        # Each seed's shard, hashed once: breaker gating, the runnable
        # filter and breaker feedback all read it.
        shard_of = self.client.partitioner.shard_for
        breakers = self.breakers
        homes = [list(map(shard_of, r.vertices)) for r in live]
        blocked = {
            shard for shard in set().union(*homes)
            if breakers[shard].blocks(now)
        }
        runnable: List[Request] = []
        home: List[int] = []  # the shard of every runnable seed
        for request, shards in zip(live, homes):
            if blocked.isdisjoint(shards):
                runnable.append(request)
                home.extend(shards)
            else:
                self.stats.shed_breaker_open += 1
                self._shed(request, SHED_BREAKER_OPEN, now)
        if not runnable:
            return
        # A half-open shard gives its probe slot only to a batch that runs
        # a request on it, and that batch's outcome resolves the probe.
        touched = list(dict.fromkeys(home))
        probes = [
            breakers[shard] for shard in touched
            if breakers[shard].opened_at is not None
        ]
        for breaker in probes:
            breaker.allow(now)

        seeds = [v for request in runnable for v in request.vertices]
        deadlines = [r.deadline for r in runnable if r.deadline is not None]
        scope = min(deadlines) if deadlines else None

        flush_started = now
        span = self.telemetry.span
        batch_span = span(
            "serve.batch", requests=len(runnable), seeds=len(seeds)
        )
        with batch_span:
            try:
                with span("serve.sample", seeds=len(seeds)):
                    with self.client.deadline_scope(scope):
                        blocks, served_idx, unavailable_idx = (
                            sample_blocks_partial(
                                self.client,
                                seeds,
                                self.fanouts,
                                self.rng,
                                self.etype,
                            )
                        )
            except Exception as exc:  # deadline blown mid-batch, hard faults
                self.stats.sample_errors += 1
                batch_span.set_tag("error", type(exc).__name__)
                completed = self.network.now()
                for breaker in probes:  # a probe that raised has failed
                    breaker.record_failure(completed)
                for request in runnable:
                    self._resolve_from_cache(
                        request, None, completed, error=repr(exc)
                    )
                return

            if blocks is not None:
                with span("serve.gather", levels=len(blocks.levels)):
                    feats = self.features.gather_levels(
                        self.feat_name, blocks.levels
                    )
                with span("serve.compute", seeds=len(served_idx)):
                    out = self.encoder.forward(feats, blocks.fanouts)
                    out = l2_normalize(out.astype(np.float32))
                    out.flags.writeable = False  # answers, cache share rows
                    cost = self.compute_seconds_per_seed * len(served_idx)
                    self.stats.compute_seconds += cost
                    self.network.sleep(cost)
                completed = self.network.now()
                self.cache.put_many([seeds[i] for i in served_idx], out, completed)
                # Admission estimate: EWMA of marginal per-request batch
                # cost (sample + compute, amortised over the batch).
                per_request = (completed - flush_started) / len(runnable)
                self._est_request_seconds = (
                    0.8 * self._est_request_seconds + 0.2 * per_request
                )
            else:
                completed = self.network.now()

        # Breaker feedback, once per shard: UNAVAILABLE seeds fail their
        # shard, served seeds heal it.
        for i in unavailable_idx:
            breakers[home[i]].record_failure(completed)
        healed = (
            dict.fromkeys(home[i] for i in served_idx)
            if unavailable_idx else touched
        )
        for shard in healed:
            breakers[shard].record_success()

        # Every seed served: an answer is its request's rows of ``out``.
        # Otherwise rows are assembled one by one, stale ones from cache.
        fresh = None
        if unavailable_idx:
            fresh = dict(zip(served_idx, out)) if blocks is not None else {}
        hi = 0
        for request in runnable:
            lo, hi = hi, hi + len(request.vertices)
            degraded = False
            if fresh is None:
                matrix = out[lo:hi]
            else:
                rows = []
                for i in range(lo, hi):
                    row = fresh.get(i)
                    if row is None:
                        row = self.cache.get(seeds[i], completed)
                        degraded = True
                    rows.append(row)
                if any(row is None for row in rows):
                    self._finish(
                        request,
                        Answer(
                            request_id=request.request_id,
                            status="failed",
                            error="seed unavailable and not in degraded "
                            "cache",
                        ),
                        completed,
                    )
                    continue
                if degraded:
                    self.stats.cache_fallbacks += 1
                matrix = np.stack(rows)
            score = (
                float(matrix[0] @ matrix[1])
                if request.kind == "link"
                else None
            )
            self._finish(
                request,
                Answer(
                    request_id=request.request_id,
                    status="degraded" if degraded else "fresh",
                    degraded=degraded,
                    embeddings=matrix,
                    score=score,
                ),
                completed,
            )

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------
    def _shed(self, request: Request, cause: str, now: float) -> None:
        """Record one admission shed and resolve it without a fresh pass."""
        self.telemetry.event(
            "admission",
            "shed",
            t=now,
            request_id=request.request_id,
            cause=cause,
        )
        self._resolve_from_cache(request, cause, now)

    def _resolve_from_cache(
        self,
        request: Request,
        cause: Optional[str],
        now: float,
        error: Optional[str] = None,
    ) -> None:
        """Answer a request without a fresh pass: stale cache or failure."""
        rows = [self.cache.get(v, now) for v in request.vertices]
        if all(row is not None for row in rows):
            matrix = np.stack(rows)
            self.stats.cache_fallbacks += 1
            answer = Answer(
                request_id=request.request_id,
                status="degraded",
                degraded=True,
                shed_cause=cause,
                embeddings=matrix,
                score=(
                    float(matrix[0] @ matrix[1])
                    if request.kind == "link"
                    else None
                ),
                error=error,
            )
        else:
            answer = Answer(
                request_id=request.request_id,
                status="failed",
                shed_cause=cause,
                error=error or "no fresh answer and degraded cache miss",
            )
        self._finish(request, answer, now)

    def _finish(self, request: Request, answer: Answer, now: float) -> None:
        answer.completed_at = now
        answer.latency = max(0.0, now - request.submitted_at)
        request.answer = answer
        self.latency_hist.record(answer.latency)
        if answer.status == "fresh":
            self.stats.answered_fresh += 1
        elif answer.status == "degraded":
            self.stats.answered_degraded += 1
        else:
            self.stats.failed += 1
        if (
            answer.ok
            and request.deadline is not None
            and now > request.deadline
        ):
            self.stats.deadline_missed += 1

    def reset_stats(self) -> None:
        """Zero request counters, breaker trips, the latency histogram,
        and cache stats (breaker state — open or half-open, and the
        failure streak — is operational and survives)."""
        self.stats.reset()
        for breaker in self.breakers.values():
            breaker.trips = 0
        self.latency_hist.reset()
        self.cache.reset_stats()
