"""Tests for the deadline-aware online inference tier (DESIGN.md §15):
admission control (token bucket / queue bound / circuit breaker),
degraded-answer caching, deadline threading through the retry layer,
the partial sampler + batch embedding path, and the chaos scenario
harness with its SLO reports."""

from __future__ import annotations

import copy
import random
import sys

import numpy as np
import pytest

from repro.distributed.cluster import LocalCluster
from repro.distributed.retry import RetryPolicy
from repro.distributed.rpc import NetworkModel
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    RetryExhaustedError,
    TransientRPCError,
)
from repro.gnn.inference import embed_vertices
from repro.gnn.ops import l2_normalize
from repro.gnn.samplers import sample_blocks_partial
from repro.obs.replay import build_rig_from_spec, make_spec, scenario_from_spec
from repro.serving import (
    AdmissionGate,
    CircuitBreaker,
    DegradedAnswerCache,
    InferenceService,
    ScenarioRunner,
    TokenBucket,
    build_report,
    build_serving_rig,
)
from repro.serving.admission import (
    SHED_BREAKER_OPEN,
    SHED_DEADLINE_HOPELESS,
    SHED_QUEUE_FULL,
)
from tests.conftest import python_calls


# ---------------------------------------------------------------------------
# admission primitives
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert [bucket.take(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate_capped_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        for _ in range(3):
            assert bucket.take(0.0)
        # 0.1s at 10/s refills exactly one token.
        assert not bucket.take(0.05)
        assert bucket.take(0.1)
        # A long idle period refills to burst, never beyond.
        assert bucket.level(100.0) == pytest.approx(3.0)

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.take(1.0)
        level = bucket.level(1.0)
        # An earlier timestamp must not mint tokens (or crash).
        assert bucket.level(0.5) == pytest.approx(level)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=4.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionGate:
    def _gate(self, **kwargs) -> AdmissionGate:
        defaults = dict(rate=100.0, burst=4.0, max_queue=2)
        defaults.update(kwargs)
        return AdmissionGate(**defaults)

    def test_admits_when_nothing_binds(self):
        gate = self._gate()
        assert gate.check(0.0, 0, 1.0, 0.5) is None

    def test_hopeless_deadline_outranks_everything(self):
        # Even with a full queue and a dry bucket the cause must be
        # deadline_hopeless: the request could never win, so it should
        # not be attributed to (or spend) rate/queue capacity.
        gate = self._gate(burst=1.0)
        assert gate.bucket.take(0.0)  # dry the bucket
        cause = gate.check(0.0, 99, deadline=1.0, estimated_completion=2.0)
        assert cause == SHED_DEADLINE_HOPELESS

    def test_queue_bound_before_token_spend(self):
        gate = self._gate(max_queue=1)
        level_before = gate.bucket.level(0.0)
        assert gate.check(0.0, 1, None, 0.0) == SHED_QUEUE_FULL
        # The queue-full shed must not consume a token.
        assert gate.bucket.level(0.0) == pytest.approx(level_before)

    def test_dry_bucket_sheds(self):
        gate = self._gate(rate=1.0, burst=1.0)
        assert gate.check(0.0, 0, None, 0.0) is None
        assert gate.check(0.0, 0, None, 0.0) == SHED_QUEUE_FULL

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._gate(max_queue=0)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0)
        assert breaker.state(0.0) == "closed"
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == "closed"
        assert breaker.trips == 0
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == "open"
        assert breaker.trips == 1
        assert not breaker.allow(0.5)

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.5) == "open"
        assert breaker.state(1.0) == "half_open"
        assert breaker.allow(1.0)       # the probe slot
        assert not breaker.allow(1.0)   # everyone else stays shed
        breaker.record_success()
        assert breaker.state(1.0) == "closed"
        assert breaker.allow(1.0)

    def test_failed_probe_restarts_the_timeout(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_failure(1.2)
        assert breaker.state(1.5) == "open"
        assert breaker.state(2.2) == "half_open"
        # A re-opened breaker is a restarted timeout, not a new trip.
        assert breaker.trips == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_timeout=0.0)


# ---------------------------------------------------------------------------
# degraded-answer cache
# ---------------------------------------------------------------------------
class TestDegradedAnswerCache:
    def test_hit_miss_and_age(self):
        cache = DegradedAnswerCache(staleness_budget_seconds=10.0, capacity=4)
        vec = np.ones(3, dtype=np.float32)
        cache.put(7, vec, now=1.0)
        got = cache.get(7, now=2.0)
        np.testing.assert_array_equal(got, vec)
        assert cache.get(8, now=2.0) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_staleness_budget_rejects_old_entries(self):
        cache = DegradedAnswerCache(staleness_budget_seconds=5.0, capacity=4)
        cache.put(1, np.zeros(2, dtype=np.float32), now=0.0)
        assert cache.get(1, now=5.0) is not None
        assert cache.get(1, now=5.1) is None
        assert cache.stale_rejects == 1

    def test_lru_eviction_at_capacity(self):
        cache = DegradedAnswerCache(staleness_budget_seconds=60.0, capacity=2)
        cache.put(1, np.zeros(1, dtype=np.float32), now=0.0)
        cache.put(2, np.zeros(1, dtype=np.float32), now=0.0)
        cache.get(1, now=0.0)  # refresh 1 -> 2 is now the LRU victim
        cache.put(3, np.zeros(1, dtype=np.float32), now=0.0)
        assert cache.get(1, now=0.0) is not None
        assert cache.get(2, now=0.0) is None
        assert cache.evictions == 1

    @pytest.mark.parametrize("capacity, batch", [(8, 5), (8, 20), (64, 40)])
    @pytest.mark.parametrize("seed", range(4))
    def test_put_many_is_a_put_loop(self, seed, capacity, batch):
        """Entries, LRU order, stamps and ``evictions`` as a ``put`` loop
        leaves them — repeats in a batch re-stamped to the end, a batch
        past ``capacity`` evicting as it goes."""
        rng = np.random.default_rng(seed)
        looped, batched = (DegradedAnswerCache(capacity=capacity) for _ in range(2))
        for now in (1.0, 2.0, 3.0):
            vertices = rng.integers(0, 2 * capacity, batch).tolist()
            rows = rng.standard_normal((batch, 3)).astype(np.float32)
            for vertex, row in zip(vertices, rows):
                looped.put(vertex, row, now)
            batched.put_many(vertices, rows, now)
            for cache in (looped, batched):
                cache.get(vertices[0], now)  # a hit moves a key to the end
            assert list(batched._entries) == list(looped._entries)
            for (a, t), (b, u) in zip(batched._entries.values(), looped._entries.values()):
                assert t == u and a.dtype == b.dtype and np.array_equal(a, b)
            assert batched.evictions == looped.evictions
        assert looped.evictions > 0 and len(looped) == capacity

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DegradedAnswerCache(staleness_budget_seconds=0.0)
        with pytest.raises(ConfigurationError):
            DegradedAnswerCache(capacity=0)


# ---------------------------------------------------------------------------
# absolute deadlines in the retry layer
# ---------------------------------------------------------------------------
class TestRetryDeadlines:
    def test_remaining_helper(self):
        assert RetryPolicy.remaining(None) == float("inf")
        assert RetryPolicy.remaining(5.0, lambda: 2.0) == pytest.approx(3.0)
        # Never negative: an expired deadline reads as zero budget.
        assert RetryPolicy.remaining(1.0, lambda: 2.0) == 0.0
        # Without a clock the helper measures from t=0.
        assert RetryPolicy.remaining(5.0) == pytest.approx(5.0)

    def test_expired_deadline_burns_no_attempt(self):
        policy = RetryPolicy(max_attempts=4, seed=0)
        calls = []
        with pytest.raises(DeadlineExceededError):
            policy.run(lambda: calls.append(1), now=lambda: 10.0, deadline=5.0)
        # Shed, not retried: zero attempts, one deadline_exceeded.
        assert calls == []
        assert policy.stats.attempts == 0
        assert policy.stats.retries == 0
        assert policy.stats.deadline_exceeded == 1

    def test_backoff_that_would_blow_the_deadline_aborts(self):
        policy = RetryPolicy(
            max_attempts=4, base_backoff_seconds=1e-3, jitter=0.0, seed=0
        )

        def fail():
            raise TransientRPCError("transient")

        with pytest.raises(DeadlineExceededError):
            policy.run(fail, now=lambda: 0.0, deadline=0.5e-3)
        # Exactly one attempt was made; the 1ms backoff exceeded the
        # 0.5ms budget so no retry (and no backoff sleep) happened.
        assert policy.stats.attempts == 1
        assert policy.stats.transient_failures == 1
        assert policy.stats.retries == 0
        assert policy.stats.backoff_seconds == 0.0
        assert policy.stats.deadline_exceeded == 1

    def test_deadline_checked_against_advancing_clock(self):
        clock = {"t": 0.0}

        def fail_slowly():
            clock["t"] += 1.0  # the attempt itself eats the budget
            raise TransientRPCError("slow shard")

        policy = RetryPolicy(max_attempts=4, seed=0)
        with pytest.raises(DeadlineExceededError):
            policy.run(fail_slowly, now=lambda: clock["t"], deadline=0.5)
        assert policy.stats.attempts == 1
        assert policy.stats.deadline_exceeded == 1

    def test_generous_deadline_still_retries_to_recovery(self):
        state = {"left": 2}

        def flaky():
            if state["left"] > 0:
                state["left"] -= 1
                raise TransientRPCError("flaky")
            return "ok"

        policy = RetryPolicy(
            max_attempts=4, base_backoff_seconds=1e-3, jitter=0.0, seed=0
        )
        assert policy.run(flaky, now=lambda: 0.0, deadline=10.0) == "ok"
        assert policy.stats.attempts == 3
        assert policy.stats.retries == 2
        assert policy.stats.recoveries == 1
        assert policy.stats.deadline_exceeded == 0

    def test_exhaustion_still_wins_without_deadline_pressure(self):
        def fail():
            raise TransientRPCError("transient")

        policy = RetryPolicy(
            max_attempts=2, base_backoff_seconds=1e-6, jitter=0.0, seed=0
        )
        with pytest.raises(RetryExhaustedError):
            policy.run(fail, now=lambda: 0.0, deadline=1e9)
        assert policy.stats.exhausted == 1


class TestDeadlineScope:
    def test_scopes_nest_and_restore(self):
        cluster = LocalCluster(num_servers=2, network=NetworkModel())
        client = cluster.client
        assert client._request_deadline is None
        with client.deadline_scope(5.0):
            assert client._request_deadline == 5.0
            with client.deadline_scope(2.0):
                assert client._request_deadline == 2.0
            assert client._request_deadline == 5.0
        assert client._request_deadline is None

    def test_generous_deadline_leaves_reads_untouched(self):
        cluster = LocalCluster(num_servers=2, network=NetworkModel())
        cluster.client.add_edge(1, 2, 1.0)
        with cluster.client.deadline_scope(cluster.network.now() + 60.0):
            assert cluster.client.neighbors(1) == [(2, 1.0)]


# ---------------------------------------------------------------------------
# partial sampling + batch embedding (satellite 1)
# ---------------------------------------------------------------------------
def _degraded_cluster(num_sources: int = 40, degree: int = 4):
    cluster = LocalCluster(
        num_servers=2, network=NetworkModel(), degraded_reads=True
    )
    rng = np.random.default_rng(3)
    srcs = np.repeat(np.arange(num_sources, dtype=np.int64), degree)
    dsts = rng.integers(0, num_sources, srcs.size).astype(np.int64)
    cluster.client.bulk_load(srcs, dsts, 1.0)
    return cluster


def _features_for(num_sources: int, dim: int = 8):
    from repro.storage.attributes import AttributeStore

    features = AttributeStore()
    features.register("feat", dim)
    rng = np.random.default_rng(4)
    features.put_many(
        "feat",
        list(range(num_sources)),
        rng.standard_normal((num_sources, dim)).astype(np.float32),
    )
    return features


class TestPartialSampling:
    def test_partitions_served_and_unavailable(self):
        cluster = _degraded_cluster()
        shard_for = cluster.client.partitioner.shard_for
        seeds = list(range(12))
        cluster.crash_shard(0)
        blocks, served, unavailable = sample_blocks_partial(
            cluster.client, seeds, (2, 2), np.random.default_rng(0)
        )
        assert sorted(served + unavailable) == list(range(len(seeds)))
        assert unavailable, "crashing a shard must mark some seeds"
        for i in unavailable:
            assert shard_for(seeds[i]) == 0
        for i in served:
            assert shard_for(seeds[i]) == 1
        assert blocks is not None
        assert len(blocks.levels[0]) == len(served)

    def test_all_unavailable_returns_no_blocks(self):
        cluster = _degraded_cluster()
        shard_for = cluster.client.partitioner.shard_for
        on_zero = [v for v in range(40) if shard_for(v) == 0][:4]
        cluster.crash_shard(0)
        blocks, served, unavailable = sample_blocks_partial(
            cluster.client, on_zero, (2, 2), np.random.default_rng(0)
        )
        assert blocks is None
        assert served == []
        assert sorted(unavailable) == list(range(len(on_zero)))


class TestEmbedVertices:
    def _embed(self, cluster, features, encoder, rng, **kwargs):
        return embed_vertices(
            cluster.client, features, encoder, list(range(20)), (2, 2),
            rng=rng, **kwargs
        )

    def test_seed_conventions_accepted_and_deterministic(self):
        from repro.gnn.models import GraphSAGE

        cluster = _degraded_cluster()
        features = _features_for(40)
        encoder = GraphSAGE(8, 8, 4, num_layers=2,
                            rng=np.random.default_rng(1))
        a = self._embed(cluster, features, encoder, rng=7)
        b = self._embed(cluster, features, encoder, rng=7)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (20, 4)
        np.testing.assert_allclose(
            np.linalg.norm(a, axis=1), 1.0, atol=1e-5
        )
        # The other two RNGLike conventions must be accepted as-is.
        c = self._embed(cluster, features, encoder,
                        rng=random.Random(7))
        d = self._embed(cluster, features, encoder,
                        rng=np.random.default_rng(7))
        assert c.shape == d.shape == (20, 4)

    def test_skip_unavailable_zero_fills_and_reports(self):
        from repro.gnn.models import GraphSAGE

        cluster = _degraded_cluster()
        features = _features_for(40)
        encoder = GraphSAGE(8, 8, 4, num_layers=2,
                            rng=np.random.default_rng(1))
        shard_for = cluster.client.partitioner.shard_for
        cluster.crash_shard(0)
        matrix, skipped = self._embed(
            cluster, features, encoder, rng=7, skip_unavailable=True
        )
        assert skipped
        assert skipped == [v for v in range(20) if shard_for(v) == 0]
        for i in skipped:
            np.testing.assert_array_equal(
                matrix[i], np.zeros(4, dtype=np.float32)
            )
        live = [i for i in range(20) if i not in set(skipped)]
        np.testing.assert_allclose(
            np.linalg.norm(matrix[live], axis=1), 1.0, atol=1e-5
        )


# ---------------------------------------------------------------------------
# the inference service
# ---------------------------------------------------------------------------
def _small_rig(**kwargs):
    defaults = dict(num_shards=2, num_sources=64, degree=6)
    defaults.update(kwargs)
    return build_serving_rig(**defaults)


class TestInferenceService:
    @pytest.mark.parametrize("tracer_first", [True, False])
    def test_tracer_attach_order_does_not_matter(self, tracer_first):
        """``serve.batch`` trees appear whether the tracer was on the
        cluster before the service was built or assigned afterwards."""
        from repro.obs.trace import Tracer

        rig = _small_rig()
        network = rig.cluster.network
        tracer = Tracer(clock=network.now)
        if tracer_first:
            rig.cluster.tracer = tracer
        service = InferenceService(
            rig.cluster, rig.features, rig.encoder, rig.service.fanouts
        )
        rig.cluster.tracer = tracer
        service.submit([5], arrival=network.now())
        service.flush()
        roots = [root.name for root in tracer.traces()]
        assert roots == ["serve.batch"]

    def test_replacement_service_is_what_the_registry_reads(self):
        """Registry views resolve through ``cluster.inference_service``:
        a second service on the same cluster replaces the first in every
        ``repro_serving_*`` series instead of leaving them stale — the
        latency histogram included, which resolves by name."""
        rig = _small_rig()
        rig.service.stats.submitted = 3
        rig.service.latency_hist.record(1.0)
        service = InferenceService(
            rig.cluster, rig.features, rig.encoder, rig.service.fanouts
        )
        service.stats.submitted = 7
        service.stats.answered_fresh = 7
        service.stats.deadline_missed = 7
        service.breakers[0].trips = 2
        service.latency_hist.record(0.25)
        snap = rig.cluster.registry.snapshot()
        _, count, total, _ = snap.histograms["repro_serving_request_seconds"]
        assert (count, total) == (1, 0.25)
        assert snap.get("repro_serving_submitted") == 7.0
        assert snap.get("repro_serving_availability") == 0.0
        assert snap.get("repro_serving_breaker_trips") == 2.0

    def test_submit_validation(self):
        rig = _small_rig()
        with pytest.raises(ConfigurationError):
            rig.service.submit([], kind="embed")
        with pytest.raises(ConfigurationError):
            rig.service.submit([1], kind="link")
        with pytest.raises(ConfigurationError):
            rig.service.submit([1], kind="rank")

    def test_constructor_validation(self):
        rig = _small_rig()
        for bad in (
            dict(batch_window=0.0),
            dict(max_batch=0),
            dict(default_deadline=0.0),
            dict(fanouts=(3,)),  # depth mismatch vs the 2-layer encoder
        ):
            kwargs = dict(fanouts=(3, 2))
            kwargs.update(bad)
            fanouts = kwargs.pop("fanouts")
            with pytest.raises(ConfigurationError):
                InferenceService(
                    rig.cluster, rig.features, rig.encoder, fanouts, **kwargs
                )

    def test_batch_window_flush_answers_fresh(self):
        rig = _small_rig()
        service, network = rig.service, rig.cluster.network
        request = service.submit([1], kind="embed")
        assert request.answer is None
        assert service.next_flush_at() == pytest.approx(
            request.submitted_at + service.batch_window
        )
        network.sleep(service.batch_window)
        assert service.poll() == 1
        answer = request.answer
        assert answer is not None and answer.ok
        assert answer.status == "fresh" and not answer.degraded
        assert answer.embeddings.shape == (1, rig.encoder.layers[-1].out_dim)
        assert answer.latency >= service.batch_window
        # Slotted from 3.10: every attribute the service writes is a field.
        assert sys.version_info < (3, 10) or not any(
            hasattr(state, "__dict__") for state in (request, answer)
        )

    def test_full_queue_flushes_immediately(self):
        rig = _small_rig(max_batch=4)
        service = rig.service
        requests = [service.submit([v]) for v in range(4)]
        assert all(r.answer is not None for r in requests)
        assert service.stats.batches == 1
        assert service.stats.batched_requests == 4

    def test_link_requests_score_a_pair(self):
        rig = _small_rig()
        request = rig.service.submit([3, 5], kind="link")
        rig.service.flush()
        answer = request.answer
        assert answer.ok
        assert answer.score is not None
        assert answer.embeddings.shape[0] == 2
        # Normalised rows make the score a cosine similarity.
        assert -1.0 - 1e-5 <= answer.score <= 1.0 + 1e-5

    def test_hopeless_deadline_sheds_before_sampling(self):
        rig = _small_rig()
        service = rig.service
        request = service.submit([1], deadline=1e-4)  # < batch_window
        assert service.stats.shed_deadline_hopeless == 1
        assert service.stats.batches == 0
        # Pre-warmed cache rescues the shed request with a stale answer.
        assert request.answer.status == "degraded"
        assert request.answer.shed_cause == SHED_DEADLINE_HOPELESS

    def test_queue_full_sheds_with_cause(self):
        rig = _small_rig(
            max_queue=2, max_batch=64, admission_rate=1e6,
            admission_burst=1e6,
        )
        service = rig.service
        for v in range(2):
            service.submit([v])
        shed = service.submit([2])
        assert service.stats.shed_queue_full == 1
        assert shed.answer is not None
        assert shed.answer.shed_cause == SHED_QUEUE_FULL
        service.flush()

    def test_shedding_disabled_admits_everything(self):
        rig = _small_rig(shedding=False, max_queue=1, admission_rate=1.0)
        service = rig.service
        for v in range(8):
            service.submit([v])
        assert service.stats.shed_total == 0
        service.flush()
        assert service.stats.answered_fresh == 8

    def test_outage_serves_degraded_without_exceptions(self):
        rig = _small_rig()
        service = rig.service
        shard_for = rig.cluster.client.partitioner.shard_for
        on_zero = [v for v in range(64) if shard_for(v) == 0]
        rig.cluster.crash_shard(0)
        requests = [service.submit([v]) for v in on_zero[:4]]
        service.flush()
        for request in requests:
            assert request.answer is not None
            assert request.answer.status == "degraded"
            assert request.answer.embeddings is not None
        assert service.stats.answered_degraded == 4
        assert service.stats.failed == 0
        assert service.stats.cache_fallbacks == 4

    def test_breaker_opens_then_probes_closed_after_recovery(self):
        rig = _small_rig(breaker_threshold=3, breaker_reset=0.25)
        service, network = rig.service, rig.cluster.network
        shard_for = rig.cluster.client.partitioner.shard_for
        on_zero = [v for v in range(64) if shard_for(v) == 0]
        rig.cluster.crash_shard(0)

        # Three unavailable seeds in one batch trip the shard-0 breaker.
        for v in on_zero[:3]:
            service.submit([v])
        service.flush()
        assert service.breakers[0].state(network.now()) == "open"
        assert service.breakers[0].trips == 1

        # While open, shard-0 requests shed at submit (still rescued).
        shed = service.submit([on_zero[3]])
        assert service.stats.shed_breaker_open >= 1
        assert shed.answer.status == "degraded"
        # Other shards are unaffected.
        on_one = [v for v in range(64) if shard_for(v) == 1]
        fresh = service.submit([on_one[0]])
        service.flush()
        assert fresh.answer.status == "fresh"

        # After the reset timeout a recovered shard closes via one probe.
        rig.cluster.recover_all(sync=True)
        network.sleep(0.3)
        probe = service.submit([on_zero[4]])
        service.flush()
        assert probe.answer.status == "fresh"
        assert service.breakers[0].state(network.now()) == "closed"

    def _trip_then_half_open(self, rig):
        """Trip shard 0's breaker on a crashed shard, bring the shard
        back and wait out the reset timeout; returns the vertices of
        shard 0 and of shard 1 not used yet."""
        service, network = rig.service, rig.cluster.network
        shard_for = rig.cluster.client.partitioner.shard_for
        on_zero = [v for v in range(64) if shard_for(v) == 0]
        on_one = [v for v in range(64) if shard_for(v) == 1]
        rig.cluster.crash_shard(0)
        for v in on_zero[:3]:
            service.submit([v])
        service.flush()
        assert service.breakers[0].state(network.now()) == "open"
        rig.cluster.recover_all(sync=True)
        network.sleep(0.3)
        assert service.breakers[0].state(network.now()) == "half_open"
        return on_zero[3:], on_one

    def _healthy_shard_zero_answers_fresh(self, rig, on_zero):
        """Five seconds on, a batch on shard 0 (healthy again) probes
        it and closes the breaker instead of being shed."""
        service, network = rig.service, rig.cluster.network
        network.sleep(5.0)
        requests = [service.submit([v]) for v in on_zero[:5]]
        service.flush()
        assert [r.answer.status for r in requests] == ["fresh"] * 5
        assert [r.answer.shed_cause for r in requests] == [None] * 5
        assert service.breakers[0].state(network.now()) == "closed"

    def test_probe_batch_that_raised_fails_the_probe(self, monkeypatch):
        """A half-open probe whose batch raised counts as a failed
        probe: the timeout restarts, the slot is free again, and the
        next batch after it probes the shard instead of shedding it."""
        rig = _small_rig(breaker_threshold=3, breaker_reset=0.25)
        service, network = rig.service, rig.cluster.network
        on_zero, _ = self._trip_then_half_open(rig)

        def blown(*args, **kwargs):
            raise DeadlineExceededError("deadline blown mid-batch")

        monkeypatch.setattr(
            rig.cluster.client, "sample_neighbors_many", blown
        )
        probe = service.submit([on_zero.pop(0)])
        service.flush()
        monkeypatch.undo()
        assert service.stats.sample_errors == 1
        assert probe.answer.status == "degraded"
        breaker = service.breakers[0]
        assert not breaker.probing
        assert breaker.state(network.now()) == "open"  # timeout restarted
        self._healthy_shard_zero_answers_fresh(rig, on_zero)

    def test_shed_request_takes_no_probe_slot(self):
        """A half-open shard gives its probe slot only to a batch that
        runs a request on it: a request shed for another shard's open
        breaker leaves the slot free."""
        rig = _small_rig(breaker_threshold=3, breaker_reset=0.25)
        service, network = rig.service, rig.cluster.network
        on_zero, on_one = self._trip_then_half_open(rig)
        link = service.submit([on_zero.pop(0), on_one[0]], kind="link")
        # Shard 1's breaker opens while the request waits in the queue.
        for _ in range(3):
            service.breakers[1].record_failure(network.now())
        service.flush()
        assert link.answer.shed_cause == SHED_BREAKER_OPEN
        assert not service.breakers[0].probing
        self._healthy_shard_zero_answers_fresh(rig, on_zero)

    @pytest.mark.parametrize("crashed", [False, True])
    def test_answers_equal_the_pipeline_run_by_hand(self, crashed):
        """A flush's answers are exactly sample -> gather -> encode ->
        normalise run by hand on the same seeds and generator state —
        all fresh, or with a crashed shard's seeds from the cache."""
        rig = _small_rig()
        service = rig.service
        shard_for = rig.cluster.client.partitioner.shard_for
        on_zero = [v for v in range(64) if shard_for(v) == 0]
        on_one = [v for v in range(64) if shard_for(v) == 1]
        batch = [
            ([on_one[0]], "embed"),
            ([on_zero[0], on_one[1]], "link"),
            ([on_one[2], on_one[3], on_zero[1]], "embed"),
            ([on_one[0]], "embed"),
        ]
        if crashed:
            rig.cluster.crash_shard(0)
        now = rig.cluster.network.now()
        stale = {v: service.cache.get(v, now) for v in on_zero[:2]}
        requests = [service.submit(vs, kind=kind) for vs, kind in batch]
        rng = copy.deepcopy(service.rng)
        service.flush()

        seeds = [v for vs, _ in batch for v in vs]
        blocks, served, unavailable = sample_blocks_partial(
            service.client, seeds, service.fanouts, rng, service.etype
        )
        assert [seeds[i] for i in unavailable] == (
            on_zero[:2] if crashed else []
        )
        feats = service.features.gather_levels(
            service.feat_name, blocks.levels
        )
        out = service.encoder.forward(feats, blocks.fanouts)
        rows = dict(zip(served, l2_normalize(out.astype(np.float32))))
        at = 0
        for request in requests:
            n = len(request.vertices)
            expected = np.stack([
                rows[i] if i in rows else stale[seeds[i]]
                for i in range(at, at + n)
            ])
            answer = request.answer
            assert answer.status == (
                "degraded" if any(i not in rows for i in range(at, at + n))
                else "fresh"
            )
            assert np.array_equal(answer.embeddings, expected)
            if request.kind == "link":
                assert answer.score == float(expected[0] @ expected[1])
            at += n

    def test_warm_flush_python_call_budget(self):
        """One warm 4-request flush pays its fixed costs once per flush
        and once per shard RPC, not per request, seed or layer: its
        Python-level call count is pinned."""
        rig = build_serving_rig(
            num_shards=4, num_sources=4000, degree=16, fanouts=(5, 5)
        )
        service = rig.service
        for _ in range(2):  # the first flush warms the read images
            for v in (1, 2, 3, 4):
                service.submit([v])
            calls = python_calls(service.flush)
        assert service.stats.answered_fresh == 8
        assert calls <= 322

    def test_terminal_accounting_invariant(self):
        rig = _small_rig(max_queue=2, max_batch=64)
        service = rig.service
        rig.cluster.crash_shard(0)
        for v in range(16):
            service.submit([v])
        service.flush()
        stats = service.stats
        assert stats.submitted == 16
        assert (
            stats.answered_fresh + stats.answered_degraded + stats.failed
            == stats.submitted
        )
        assert 0.0 <= stats.availability <= 1.0

    def test_metrics_registered_once_per_cluster(self):
        rig = _small_rig()
        registry = rig.cluster.registry
        assert registry.has("repro_serving_submitted")
        # A replacement service on the same cluster must not trip the
        # duplicate-registration guard.
        InferenceService(
            rig.cluster, rig.features, rig.encoder, (3, 2)
        )

    def test_cluster_reset_stats_reaches_the_service(self):
        rig = _small_rig()
        rig.service.submit([1])
        rig.service.flush()
        assert rig.service.stats.submitted == 1
        rig.cluster.reset_stats()
        assert rig.service.stats.submitted == 0
        assert rig.service.stats.answered_fresh == 0

    def test_cluster_reset_stats_zeroes_breaker_trips(self):
        """After a breaker tripped, ``reset_stats`` leaves no counter of
        the cluster's registry non-zero but the monitor's and the
        recorder's own history; the breaker stays open."""
        rig = _small_rig(breaker_threshold=3)
        rig.cluster.attach_recorder()
        service, network = rig.service, rig.cluster.network
        shard_for = rig.cluster.client.partitioner.shard_for
        rig.cluster.crash_shard(0)
        for v in [v for v in range(64) if shard_for(v) == 0][:3]:
            service.submit([v])
        service.flush()
        assert service.breakers[0].trips == 1
        rig.cluster.reset_stats()
        snap = rig.cluster.registry.snapshot()
        counters = {
            key: value
            for key, value in snap.scalars.items()
            if snap.kinds[key] == "counter"
            and not key.startswith(("repro_monitor_", "repro_recorder_"))
        }
        assert counters["repro_serving_breaker_trips"] == 0.0
        assert all(value == 0.0 for value in counters.values()), counters
        assert service.breakers[0].state(network.now()) == "open"


# ---------------------------------------------------------------------------
# scenarios + SLO reports
# ---------------------------------------------------------------------------
def _run_scenario(name, seed, **rig_kwargs):
    """Build a rig and run one named scenario through the spec path the
    CLI and incident replay use; returns ``(rig, report)``."""
    spec = make_spec(name, seed=seed, rig_kwargs=rig_kwargs)
    rig = build_rig_from_spec(spec)
    scenario = scenario_from_spec(spec, rig.num_sources)
    return rig, ScenarioRunner(rig, scenario).run()


class TestScenarios:
    def test_a_second_run_counts_only_its_own_breaker_trips(self):
        spec = make_spec(
            "regional_outage",
            seed=0,
            rig_kwargs={"num_shards": 4, "num_sources": 400},
        )
        rig = build_rig_from_spec(spec)
        reports = [
            ScenarioRunner(rig, scenario_from_spec(spec, rig.num_sources)).run()
            for _ in range(2)
        ]
        assert reports[0].submitted == reports[1].submitted
        assert reports[0].breaker_trips >= 1
        assert reports[1].breaker_trips == reports[0].breaker_trips
    def test_regional_outage_degrades_instead_of_failing(self):
        _rig, report = _run_scenario(
            "regional_outage", seed=11, num_sources=400, num_shards=4
        )
        assert report.failed == 0
        assert report.sample_errors == 0
        assert report.answered_degraded > 0
        assert report.availability >= 0.99
        assert report.meets_target

    def test_flash_crowd_shedding_beats_the_control_arm(self):
        shed_rig, shed = _run_scenario(
            "flash_crowd", seed=11, num_sources=400, num_shards=4
        )
        _noshed_rig, noshed = _run_scenario(
            "flash_crowd",
            seed=11,
            shedding=False,
            num_sources=400,
            num_shards=4,
        )
        _calm_rig, calm = _run_scenario(
            "calm", seed=11, num_sources=400, num_shards=4
        )
        assert shed.availability >= 0.99
        assert sum(shed.shed.values()) > 0
        # Shedding keeps the flash-crowd tail within twice the calm tail.
        assert shed.p99_seconds <= 2.0 * calm.p99_seconds
        # The control arm collapses below the target, so the scenario
        # really overloads the tier.
        assert noshed.availability < 0.99
        assert noshed.availability < shed.availability
        assert sum(noshed.shed.values()) == 0
        # Every shed is accounted to exactly one cause on the service.
        stats = shed_rig.service.stats
        assert stats.shed_total == sum(shed.shed.values())

    def test_report_shape_and_render(self):
        _rig, report = _run_scenario(
            "calm", seed=3, num_sources=200, num_shards=2
        )
        payload = report.to_dict()
        assert payload["scenario"] == "calm"
        assert payload["submitted"] == report.submitted
        assert set(payload["shed"]) == {
            "queue_full", "deadline_hopeless", "breaker_open",
        }
        assert payload["meets_target"] == report.meets_target
        text = report.render()
        assert "calm" in text and "availability" in text

    def test_build_report_validates_target(self):
        rig = _small_rig()
        with pytest.raises(ConfigurationError):
            build_report(rig.service, target_availability=1.0)
        with pytest.raises(ConfigurationError):
            build_report(rig.service, target_availability=0.0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec("tsunami")
