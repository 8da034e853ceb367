"""Tests for the fault-tolerance layer: fault injection, retry/backoff,
crash/recover durability, shard replication, and graceful degradation."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.ingest import EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.core.types import OP_DELETE, OP_INSERT
from repro.distributed import (
    UNAVAILABLE,
    FaultInjector,
    FaultPolicy,
    GraphServer,
    LocalCluster,
    NetworkModel,
    RetryPolicy,
)
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    RetryExhaustedError,
    ShardUnavailableError,
    TransientRPCError,
)
from repro.storage.wal import ShardWAL


# ---------------------------------------------------------------------------
# FaultPolicy / FaultInjector
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPolicy(transient_error_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPolicy(crash_rate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPolicy(latency_spike_seconds=-1.0)

    def _run_sequence(self, seed, n=400):
        server = GraphServer(0, config=SamtreeConfig(capacity=8))
        injector = FaultInjector(
            FaultPolicy(transient_error_rate=0.2, latency_spike_rate=0.1),
            seed=seed,
        )
        outcomes = []
        for _ in range(n):
            try:
                injector.on_request(server, "x")
                outcomes.append("ok")
            except TransientRPCError:
                outcomes.append("transient")
        return outcomes, injector.stats

    def test_seeded_determinism(self):
        a, stats_a = self._run_sequence(42)
        b, stats_b = self._run_sequence(42)
        c, _ = self._run_sequence(43)
        assert a == b
        assert a != c
        assert stats_a.transient_errors == stats_b.transient_errors > 0
        assert stats_a.latency_spikes > 0

    def test_latency_spike_charges_network(self):
        net = NetworkModel()
        server = GraphServer(0)
        injector = FaultInjector(
            FaultPolicy(latency_spike_rate=1.0, latency_spike_seconds=0.25),
            seed=0,
            network=net,
        )
        injector.on_request(server, "x")
        assert net.stats.slept_seconds == pytest.approx(0.25)
        assert net.stats.simulated_seconds == pytest.approx(0.25)

    def test_injected_crash_downs_server(self):
        server = GraphServer(0, config=SamtreeConfig(capacity=8))
        injector = FaultInjector(FaultPolicy(crash_rate=1.0), seed=1)
        with pytest.raises(ShardUnavailableError):
            injector.on_request(server, "x")
        assert not server.alive
        assert injector.stats.crashes == 1

    def test_pause_resume(self):
        server = GraphServer(0)
        injector = FaultInjector(
            FaultPolicy(transient_error_rate=1.0), seed=0
        )
        armed = injector.set_policy(FaultPolicy())
        injector.on_request(server, "x")  # no raise while paused
        assert injector.set_policy(armed) == FaultPolicy()
        with pytest.raises(TransientRPCError):
            injector.on_request(server, "x")


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_seconds=0.0)

    def test_succeeds_after_transient_failures(self):
        policy = RetryPolicy(max_attempts=5, base_backoff_seconds=1e-3)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientRPCError("boom")
            return "done"

        assert policy.run(flaky) == "done"
        assert calls["n"] == 3
        assert policy.stats.retries == 2
        assert policy.stats.recoveries == 1
        assert policy.stats.backoff_seconds > 0

    def test_exhaustion_chains_last_error(self):
        policy = RetryPolicy(max_attempts=3)

        def always():
            raise TransientRPCError("nope")

        with pytest.raises(RetryExhaustedError) as exc_info:
            policy.run(always)
        assert isinstance(exc_info.value.__cause__, TransientRPCError)
        assert policy.stats.exhausted == 1
        assert policy.stats.attempts == 3

    def test_non_transient_errors_propagate_untouched(self):
        policy = RetryPolicy(max_attempts=5)
        attempts = {"n": 0}

        def down():
            attempts["n"] += 1
            raise ShardUnavailableError("dead")

        with pytest.raises(ShardUnavailableError):
            policy.run(down)
        assert attempts["n"] == 1  # not retried

    def test_deadline_on_simulated_clock(self):
        net = NetworkModel(latency_seconds=0.4)
        policy = RetryPolicy(
            max_attempts=10, base_backoff_seconds=0.5, jitter=0.0,
            deadline_seconds=1.0,
        )

        def flaky():
            net.send(0)  # 0.4 simulated seconds per attempt
            raise TransientRPCError("boom")

        with pytest.raises(DeadlineExceededError):
            policy.run(flaky, now=net.now, sleep=net.sleep)
        assert policy.stats.deadline_exceeded == 1
        # The simulated clock never advanced past deadline + one backoff.
        assert net.stats.simulated_seconds < 3.0

    def test_backoff_grows_geometrically_with_bounded_jitter(self):
        policy = RetryPolicy(
            base_backoff_seconds=1.0, backoff_multiplier=2.0, jitter=0.5,
            seed=3,
        )
        for attempt in (1, 2, 3, 4):
            nominal = 2.0 ** (attempt - 1)
            d = policy.backoff_for(attempt)
            assert 0.5 * nominal <= d <= 1.5 * nominal


# ---------------------------------------------------------------------------
# Server crash / checkpoint / WAL recovery
# ---------------------------------------------------------------------------
class TestServerDurability:
    def _server(self, wal=True):
        return GraphServer(
            0,
            config=SamtreeConfig(capacity=8),
            wal=ShardWAL(shard_id=0) if wal else None,
        )

    def test_crashed_endpoints_refuse(self):
        server = self._server()
        server.apply_op(OP_INSERT, 1, 2, 1.0, 0)
        server.crash()
        for call in (
            lambda: server.apply_op(OP_INSERT, 3, 4, 1.0, 0),
            lambda: server.ingest_batch(EdgeBatch.inserts([1], [5])),
            lambda: server.sample_neighbors_many([1], 2),
            lambda: server.degrees([1]),
            lambda: server.neighbors_batch([1]),
            lambda: server.checkpoint(),
        ):
            with pytest.raises(ShardUnavailableError):
                call()

    def test_recover_from_wal_only(self):
        server = self._server()
        server.ingest_batch(EdgeBatch.inserts([1, 1], [2, 3], [0.5, 1.5]))
        server.ingest_batch(EdgeBatch.inserts([9, 9], [1, 2], [2.0, 3.0]))
        server.apply_op(OP_DELETE, 1, 3, 0.0, 0)
        before = {s: dict(server.store.neighbors(s)) for s in (1, 9)}
        server.crash()
        replayed = server.recover()
        assert replayed == 3
        for s in (1, 9):
            assert dict(server.store.neighbors(s)) == pytest.approx(before[s])
        assert server.stats.recoveries == 1

    def test_recover_from_checkpoint_plus_tail(self):
        server = self._server()
        server.ingest_batch(
            EdgeBatch.inserts(list(range(20)), list(range(100, 120)))
        )
        server.checkpoint()
        assert not list(server.wal.replay())
        server.apply_op(OP_INSERT, 0, 999, 2.0, 0)
        server.crash()
        replayed = server.recover()
        assert replayed == 1  # only the tail
        assert server.store.edge_weight(0, 999) == pytest.approx(2.0)
        assert server.store.num_edges == 21

    def test_recover_without_durability_starts_empty(self):
        server = self._server(wal=False)
        server.apply_op(OP_INSERT, 1, 2, 1.0, 0)
        server.crash()
        server.recover()
        assert server.store.num_edges == 0  # volatile state truly lost

    def test_uniform_request_accounting(self):
        server = self._server(wal=False)
        endpoints = [
            lambda: server.apply_op(OP_INSERT, 1, 2, 1.0, 0),
            lambda: server.ingest_batch(EdgeBatch.inserts([1], [3])),
            lambda: server.freeze(),
            lambda: server.sample_neighbors_many([1], 2),
            lambda: server.neighbors_batch([1]),
            lambda: server.degrees([1]),
            lambda: server.edge_weights([(1, 2)]),
        ]
        stats = server.stats

        def identity_holds() -> bool:
            return stats.requests == stats.refused_requests + (
                stats.update_requests
                + stats.ingest_requests
                + stats.sample_requests
            )

        for call in endpoints:
            call()
        assert stats.requests == len(endpoints)
        assert stats.refused_requests == 0
        assert identity_holds()
        assert stats.update_requests == 2  # apply_op + freeze
        assert stats.ingest_requests == 1
        assert stats.sample_requests == 4
        assert stats.ops_applied == 2

        # Every endpoint, crashed: each arrival is counted and refused,
        # none reaches its per-endpoint counter.
        server.crash()
        for call in endpoints:
            with pytest.raises(ShardUnavailableError):
                call()
        assert stats.requests == 2 * len(endpoints)
        assert stats.refused_requests == len(endpoints)
        assert identity_holds()

        stats.reset()
        assert stats.update_requests == stats.ingest_requests == 0
        assert stats.sample_requests == 0
        assert stats.ops_applied == stats.recoveries == 0
        assert stats.wal_records_replayed == 0
        assert stats.requests == stats.refused_requests == 0


# ---------------------------------------------------------------------------
# Server-vs-injector request-ledger reconciliation
# ---------------------------------------------------------------------------
class TestRequestReconciliation:
    """The server's own request ledger must agree with the fault
    injector's across crash/recover cycles (the two were maintained in
    different layers and could silently drift)."""

    def _endpoint_total(self, stats) -> int:
        return (
            stats.update_requests
            + stats.ingest_requests
            + stats.sample_requests
        )

    def test_single_server_ledgers_reconcile(self):
        injector = FaultInjector(FaultPolicy(), seed=3)
        server = GraphServer(
            0,
            config=SamtreeConfig(capacity=8),
            wal=ShardWAL(),
            faults=injector,
        )
        server.apply_op(OP_INSERT, 1, 2, 1.0, 0)
        server.sample_neighbors_many([1], 2)
        server.crash()
        for _ in range(4):  # refused while down
            with pytest.raises(ShardUnavailableError):
                server.sample_neighbors_many([1], 2)
        server.recover()
        server.sample_neighbors_many([1], 2)
        stats = server.stats
        assert stats.requests == 7
        assert stats.refused_requests == 4
        # server ledger == injector ledger, on both sides of the split
        assert stats.refused_requests == injector.stats.refused_while_down
        assert (
            stats.requests - stats.refused_requests
            == injector.stats.requests
        )
        # and the per-endpoint counters cover every served request
        assert (
            stats.requests
            == stats.refused_requests + self._endpoint_total(stats)
        )

    def test_cluster_ledgers_reconcile_under_outage(self):
        cluster = LocalCluster(
            num_servers=2,
            config=SamtreeConfig(capacity=8),
            replication_factor=2,
            durable=True,
            fault_policy=FaultPolicy(),  # injector attached, no chaos
            degraded_reads=True,
        )
        rng = random.Random(0)
        for i in range(40):
            cluster.client.add_edge(rng.randrange(10), rng.randrange(10))
        cluster.crash(0, 0)  # primary of shard 0 down -> failover reads
        cluster.client.sample_neighbors_many(list(range(10)), 3, rng)
        cluster.crash_shard(1)  # total outage -> degraded reads
        cluster.client.sample_neighbors_many(list(range(10)), 3, rng)
        cluster.recover_all()
        cluster.client.sample_neighbors_many(list(range(10)), 3, rng)
        servers = [s for g in cluster.replica_groups for s in g]
        total_requests = sum(s.stats.requests for s in servers)
        total_refused = sum(s.stats.refused_requests for s in servers)
        total_endpoint = sum(self._endpoint_total(s.stats) for s in servers)
        injector = cluster.fault_injector
        assert total_refused > 0  # the outage really refused requests
        assert total_refused == injector.stats.refused_while_down
        assert total_requests - total_refused == injector.stats.requests
        assert total_requests == total_refused + total_endpoint


# ---------------------------------------------------------------------------
# Client retry integration + network accounting
# ---------------------------------------------------------------------------
class TestClientRetryIntegration:
    def test_account_propagates_send_cost(self):
        net = NetworkModel(latency_seconds=1e-3, bandwidth_bytes_per_second=1e6)
        cluster = LocalCluster(num_servers=2, network=net)
        cluster.client.add_edge(1, 2, 1.0)
        assert net.stats.last_send_seconds == pytest.approx(
            1e-3 + 21 / 1e6
        )

    def test_transient_faults_retried_to_success(self):
        net = NetworkModel()
        retry = RetryPolicy(max_attempts=8, base_backoff_seconds=1e-4, seed=5)
        cluster = LocalCluster(
            num_servers=2,
            config=SamtreeConfig(capacity=8),
            network=net,
            fault_policy=FaultPolicy(transient_error_rate=0.3),
            fault_seed=17,
            retry=retry,
        )
        rng = random.Random(1)
        for _ in range(200):
            cluster.client.add_edge(rng.randrange(30), rng.randrange(90), 1.0)
        assert cluster.fault_injector.stats.transient_errors > 0
        assert retry.stats.retries > 0
        assert retry.stats.recoveries > 0
        assert retry.stats.exhausted == 0
        # Retries cost extra simulated messages.
        assert net.stats.messages > 200
        # Backoff advanced the simulated clock.
        assert net.stats.slept_seconds > 0

    def test_without_retry_transient_surfaces(self):
        cluster = LocalCluster(
            num_servers=1,
            fault_policy=FaultPolicy(transient_error_rate=1.0),
        )
        with pytest.raises(TransientRPCError):
            cluster.client.add_edge(1, 2, 1.0)


# ---------------------------------------------------------------------------
# Replication: primary-backup writes, read failover, peer resync
# ---------------------------------------------------------------------------
#: The client makes an attempt inline without a retry policy and through
#: ``RetryPolicy.run`` with one; failover must read the same either way.
ATTEMPT_BRANCHES = pytest.mark.parametrize(
    "retry", [False, True], ids=["no_retry", "retry"]
)


def _policy(retry: bool):
    return RetryPolicy() if retry else None


def assert_attempts_reconcile(cluster):
    """Each server's ledger reconciles, and every attempt was one
    message that reached one server."""
    servers = [s for group in cluster.replica_groups for s in group]
    for server in servers:
        s = server.stats
        assert s.requests == s.refused_requests + (
            s.update_requests + s.ingest_requests + s.sample_requests
        )
    attempts = sum(server.stats.requests for server in servers)
    assert cluster.network.stats.messages == attempts
    if cluster.retry is not None:
        assert cluster.retry.stats.attempts == attempts


class TestReplication:
    def _cluster(self, **kw):
        return LocalCluster(
            num_servers=2,
            config=SamtreeConfig(capacity=8),
            replication_factor=2,
            durable=True,
            **kw,
        )

    def test_writes_land_on_all_replicas(self):
        cluster = self._cluster()
        for src in range(40):
            cluster.client.add_edge(src, src + 100, 1.0)
        for shard, group in enumerate(cluster.replica_groups):
            primary, backup = group
            assert primary.store.num_edges == backup.store.num_edges
            for s in primary.store.sources():
                assert dict(primary.store.neighbors(s)) == dict(
                    backup.store.neighbors(s)
                )

    @ATTEMPT_BRANCHES
    def test_read_failover_to_backup(self, retry):
        cluster = self._cluster(network=NetworkModel(), retry=_policy(retry))
        for src in range(40):
            cluster.client.add_edge(src, src + 100, 2.0)
        cluster.crash(0, replica=0)  # primary of shard 0 down
        cluster.crash(1, replica=0)
        for src in range(40):
            assert cluster.client.degree(src) == 1
            assert cluster.client.edge_weight(src, src + 100) == pytest.approx(2.0)
        rows = cluster.client.sample_neighbors_many(list(range(40)), 3).rows()
        assert all(row == [s + 100] * 3 for s, row in enumerate(rows))
        assert cluster.client.num_edges == 40
        assert sum(s.stats.refused_requests for s in cluster.servers) > 0
        assert_attempts_reconcile(cluster)

    def test_recover_resyncs_missed_writes_from_peer(self):
        cluster = self._cluster()
        cluster.client.add_edge(1, 2, 1.0)
        cluster.crash(0, replica=1)
        cluster.crash(1, replica=1)
        # Writes continue against the primaries while backups are down.
        for src in range(30):
            cluster.client.add_edge(src, src + 500, 1.0)
        assert cluster.recover_all(sync=True) == 0  # state transfer, no WAL
        for shard, group in enumerate(cluster.replica_groups):
            primary, backup = group
            assert backup.store.num_edges == primary.store.num_edges
            for s in primary.store.sources():
                assert dict(backup.store.neighbors(s)) == dict(
                    primary.store.neighbors(s)
                )

    def test_total_shard_outage_recovers_from_wal(self):
        cluster = self._cluster()
        for src in range(40):
            cluster.client.add_edge(src, src + 100, 1.0)
        cluster.crash_shard(0)
        with pytest.raises(ShardUnavailableError):
            # Some src of shard 0 must exist among 0..39; find one.
            for src in range(40):
                cluster.client.degree(src)
        replayed = cluster.recover_all()
        assert replayed > 0
        assert cluster.client.num_edges == 40

    @ATTEMPT_BRANCHES
    def test_write_fails_only_when_all_replicas_down(self, retry):
        cluster = self._cluster(network=NetworkModel(), retry=_policy(retry))
        shard = cluster.partitioner.shard_for(7)
        cluster.crash(shard, replica=0)
        assert cluster.client.add_edge(7, 8, 1.0) is True  # backup took it
        cluster.crash(shard, replica=1)
        with pytest.raises(ShardUnavailableError):
            cluster.client.add_edge(7, 9, 1.0)
        assert cluster.network.stats.messages == 4
        assert_attempts_reconcile(cluster)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LocalCluster(num_servers=2, replication_factor=0)
        with pytest.raises(ConfigurationError):
            LocalCluster(num_servers=2, wal_dir="/tmp/x")  # needs durable


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------
class TestDegradedReads:
    def _down_shard_cluster(self, **kw):
        cluster = LocalCluster(
            num_servers=3,
            config=SamtreeConfig(capacity=8),
            degraded_reads=True,
            **kw,
        )
        for src in range(60):
            cluster.client.add_edge(src, src + 1000, 1.0)
        cluster.crash_shard(1)
        owned = [
            s for s in range(60) if cluster.partitioner.shard_for(s) == 1
        ]
        assert owned  # 60 sources over 3 shards: shard 1 owns some
        return cluster, owned

    @ATTEMPT_BRANCHES
    def test_partial_batch_with_unavailable_markers(self, retry):
        cluster, owned = self._down_shard_cluster(
            network=NetworkModel(), retry=_policy(retry)
        )
        srcs = list(range(60))
        rows = cluster.client.sample_neighbors_many(srcs, 4).rows()
        for s, row in zip(srcs, rows):
            if s in owned:
                assert row is UNAVAILABLE
            else:
                assert list(row) == [s + 1000] * 4
        # The marker degrades like an empty row.
        assert not UNAVAILABLE
        assert len(UNAVAILABLE) == 0
        assert list(UNAVAILABLE) == []
        assert cluster.servers[1].stats.refused_requests == 1
        assert_attempts_reconcile(cluster)

    def test_scalar_reads_degrade(self):
        cluster, owned = self._down_shard_cluster()
        src = owned[0]
        assert cluster.client.degree(src) is UNAVAILABLE
        assert cluster.client.edge_weight(src, src + 1000) is None
        assert cluster.client.neighbors(src) is UNAVAILABLE

    @ATTEMPT_BRANCHES
    def test_without_degraded_mode_reads_raise(self, retry):
        cluster = LocalCluster(
            num_servers=2,
            config=SamtreeConfig(capacity=8),
            network=NetworkModel(),
            retry=_policy(retry),
        )
        cluster.client.add_edge(1, 2, 1.0)
        cluster.crash_shard(cluster.partitioner.shard_for(1))
        with pytest.raises(ShardUnavailableError):
            cluster.client.sample_neighbors_many([1], 3)
        assert cluster.network.stats.messages == 2
        assert_attempts_reconcile(cluster)


# ---------------------------------------------------------------------------
# Cluster control plane
# ---------------------------------------------------------------------------
class TestClusterControlPlane:
    def test_dead_replicas_and_shard_infos(self):
        cluster = LocalCluster(
            num_servers=2, replication_factor=2, durable=True
        )
        cluster.client.add_edge(1, 2, 1.0)
        assert not cluster.dead_replicas()
        cluster.crash(0, replica=1)
        assert cluster.dead_replicas() == [(0, 1)]
        infos = cluster.shard_infos()
        assert infos[0].live_replicas == 1
        assert infos[1].live_replicas == 2
        cluster.crash_shard(0)
        infos = cluster.shard_infos()
        assert infos[0].live_replicas == 0
        assert infos[0].num_edges == 0

    def test_reset_stats_covers_everything(self):
        net = NetworkModel()
        retry = RetryPolicy(max_attempts=4, seed=2)
        cluster = LocalCluster(
            num_servers=2,
            network=net,
            fault_policy=FaultPolicy(transient_error_rate=0.5),
            fault_seed=3,
            retry=retry,
        )
        for src in range(50):
            cluster.client.add_edge(src, src + 1, 1.0)
        assert cluster.fault_injector.stats.requests > 0
        cluster.reset_stats()
        assert cluster.fault_injector.stats.requests == 0
        assert retry.stats.attempts == 0
        assert net.stats.messages == 0
        assert all(
            s.stats.update_requests == 0 for s in cluster.servers
        )

    def test_checkpoint_all_skips_dead(self):
        cluster = LocalCluster(num_servers=2, durable=True)
        cluster.client.add_edge(1, 2, 1.0)
        cluster.crash(0)
        assert cluster.checkpoint_all() > 0  # live shard checkpointed
