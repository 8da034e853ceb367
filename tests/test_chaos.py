"""Seeded chaos soak for the fault-tolerant distributed tier.

The acceptance bar for the robustness work: drive a churn + sampling
workload against a :class:`LocalCluster` while a seeded
:class:`FaultInjector` throws transient RPC errors, latency spikes, and
hard crashes at it — and while an explicit schedule crashes **every**
shard at least once.  After the dust settles the recovered cluster must
be *indistinguishable* from a fault-free reference store:

* full adjacency (every source's neighbor/weight map) is equal;
* weighted neighbor sampling is chi-square-equivalent;
* the run finished with bounded retries, and the fault/retry counters
  tell a coherent story (faults were actually injected, retries
  actually recovered).

Everything is seeded; these tests are deterministic.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.ingest import OP_DELETE, OP_INSERT, OP_UPDATE, EdgeBatch
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.distributed import (
    FaultPolicy,
    LocalCluster,
    NetworkModel,
    RetryPolicy,
)
from repro.errors import RetryExhaustedError, ShardUnavailableError

try:
    from scipy import stats as _scipy_stats
except ImportError:  # pragma: no cover
    _scipy_stats = None


def _chi2_pvalue(observed, expected):
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if _scipy_stats is not None:
        return float(_scipy_stats.chisquare(observed, expected).pvalue)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    k = len(observed) - 1
    z = ((chi2 / k) ** (1.0 / 3.0) - (1 - 2.0 / (9 * k))) / np.sqrt(
        2.0 / (9 * k)
    )
    from math import erf, sqrt

    return float(0.5 * (1.0 - erf(z / sqrt(2.0))))


# ---------------------------------------------------------------------------
# workload helpers
# ---------------------------------------------------------------------------

_NSRC = 60
_NDST = 120


def _churn_batch(rng: random.Random, n: int) -> EdgeBatch:
    src = [rng.randrange(_NSRC) for _ in range(n)]
    dst = [rng.randrange(_NDST) for _ in range(n)]
    weight = [round(rng.random() * 4 + 0.01, 4) for _ in range(n)]
    etype = [rng.randrange(2) for _ in range(n)]
    op = [
        rng.choices([OP_INSERT, OP_UPDATE, OP_DELETE], weights=[6, 2, 2])[0]
        for _ in range(n)
    ]
    return EdgeBatch(src, dst, weight, etype, op)


_OUTAGE_ERRORS = (ShardUnavailableError, RetryExhaustedError)


def _apply_with_recovery(cluster: LocalCluster, batch: EdgeBatch,
                         max_tries: int = 8) -> int:
    """Apply one batch, recovering crashed shards and re-submitting.

    Whole-batch re-submission is safe because the columnar fold is
    last-wins: re-applying an already-applied batch is a no-op
    (the same property that makes WAL-tail replay idempotent).
    Returns the number of tries it took; the cap makes runaway fault
    storms fail the test instead of hanging it.
    """
    for attempt in range(1, max_tries + 1):
        try:
            cluster.client.apply_edge_batch(batch)
            return attempt
        except _OUTAGE_ERRORS:
            cluster.recover_all(sync=True)
    raise AssertionError(f"batch did not apply within {max_tries} tries")


def _sample_with_recovery(cluster: LocalCluster, srcs, k, rng,
                          max_tries: int = 8):
    for _ in range(max_tries):
        try:
            return cluster.client.sample_neighbors_many(srcs, k, rng).rows()
        except _OUTAGE_ERRORS:
            cluster.recover_all(sync=True)
    raise AssertionError(f"sampling did not finish within {max_tries} tries")


def _reference_adjacency(store: DynamicGraphStore) -> dict:
    out = {}
    for etype in store.etypes():
        for src in store.sources(etype):
            out[(etype, src)] = dict(store.neighbors(src, etype))
    return out


def _assert_cluster_matches_reference(cluster: LocalCluster,
                                      reference: DynamicGraphStore) -> None:
    assert cluster.client.num_edges == reference.num_edges
    for (etype, src), expected in _reference_adjacency(reference).items():
        got = dict(cluster.client.neighbors(src, etype))
        assert got.keys() == expected.keys(), (etype, src)
        assert got == pytest.approx(expected), (etype, src)


def _assert_sampling_chi2_equivalent(cluster: LocalCluster,
                                     reference: DynamicGraphStore) -> None:
    """Weighted sampling through the recovered cluster matches the
    reference store's weight distribution (chi-square, p > 1e-3)."""
    # Pick the reference source with the largest neighborhood so the
    # chi-square test has cells to work with.
    src = max(
        reference.sources(0),
        key=lambda s: reference.degree(s, 0),
    )
    neighbors = dict(reference.neighbors(src, 0))
    assert len(neighbors) >= 5, "workload too sparse for a chi-square test"
    total = sum(neighbors.values())
    draws = 6000
    samples = cluster.client.sample_neighbors(
        src, draws, random.Random(424242), etype=0
    )
    assert len(samples) == draws
    counts = {nbr: 0 for nbr in neighbors}
    for nbr in samples:
        counts[nbr] += 1  # KeyError ⇒ sampled a non-neighbor: hard fail
    observed = [counts[n] for n in sorted(neighbors)]
    expected = [draws * neighbors[n] / total for n in sorted(neighbors)]
    p = _chi2_pvalue(observed, expected)
    assert p > 1e-3, f"sampling distribution diverged (p={p:.2e})"


# ---------------------------------------------------------------------------
# the soak
# ---------------------------------------------------------------------------


class TestChaosSoak:
    def test_crash_every_shard_and_recover_equivalence(self, tmp_path):
        """Every shard hard-crashes (and recovers) at least once during a
        seeded churn+sampling workload with fault injection on; the
        recovered cluster equals a fault-free reference, sampling is
        chi-square-equivalent, and the counters are coherent."""
        rng = random.Random(20240806)
        num_servers = 3
        config = SamtreeConfig(capacity=8)
        retry = RetryPolicy(
            max_attempts=6, base_backoff_seconds=1e-4, seed=11
        )
        network = NetworkModel()
        cluster = LocalCluster(
            num_servers=num_servers,
            config=config,
            network=network,
            durable=True,
            wal_dir=str(tmp_path / "wal"),
            fault_policy=FaultPolicy(
                transient_error_rate=0.04,
                latency_spike_rate=0.02,
                crash_rate=0.004,
            ),
            fault_seed=97,
            retry=retry,
        )
        reference = DynamicGraphStore(config)

        steps = 30
        for step in range(steps):
            batch = _churn_batch(rng, 80)
            reference.apply_edge_batch(batch)
            _apply_with_recovery(cluster, batch)

            # Explicit crash schedule: shard (step mod N) goes down hard,
            # so every shard crashes at least `steps / N` times.
            if step % 3 == 2:
                cluster.crash_shard(step // 3 % num_servers)
            # Periodic sampling keeps the read path under fire too.
            if step % 5 == 4:
                frontier = [rng.randrange(_NSRC) for _ in range(16)]
                rows = _sample_with_recovery(
                    cluster, frontier, 4, random.Random(step)
                )
                assert len(rows) == len(frontier)
            # Mid-run checkpoint: later recoveries replay only the tail.
            if step == steps // 2:
                cluster.recover_all(sync=True)
                assert cluster.checkpoint_all() > 0

        # Settle: recover everything, stop injecting, then compare.
        cluster.recover_all(sync=True)
        assert not cluster.dead_replicas()
        injector = cluster.fault_injector
        injector.set_policy(FaultPolicy())  # stop injecting

        _assert_cluster_matches_reference(cluster, reference)
        _assert_sampling_chi2_equivalent(cluster, reference)
        for shard in range(num_servers):
            cluster.servers[shard].store.check_invariants()

        # Counter coherence.  The explicit schedule alone produced 10
        # hard crashes (steps // 3, round-robin over the shards), each
        # followed by a recovery; requests kept flowing throughout; and
        # at least one request was refused by a down shard before its
        # recovery (that refusal is what *triggers* the recovery loop).
        stats = injector.stats
        assert stats.requests > steps
        recoveries = sum(
            s.stats.recoveries for g in cluster.replica_groups for s in g
        )
        assert recoveries >= 10
        assert stats.refused_while_down > 0
        replayed = sum(
            s.stats.wal_records_replayed
            for g in cluster.replica_groups
            for s in g
        )
        assert replayed > 0  # recoveries actually exercised the WAL

    def test_transient_storm_finishes_with_bounded_retries(self):
        """With transient faults + latency spikes (no crashes) the whole
        workload completes with zero intervention, retries stay bounded,
        and the final graph equals the fault-free reference."""
        rng = random.Random(7)
        config = SamtreeConfig(capacity=8)
        retry = RetryPolicy(
            max_attempts=8, base_backoff_seconds=1e-4, seed=3
        )
        network = NetworkModel()
        cluster = LocalCluster(
            num_servers=3,
            config=config,
            network=network,
            fault_policy=FaultPolicy(
                transient_error_rate=0.15, latency_spike_rate=0.05
            ),
            fault_seed=5,
            retry=retry,
        )
        reference = DynamicGraphStore(config)

        for step in range(20):
            batch = _churn_batch(rng, 60)
            reference.apply_edge_batch(batch)
            cluster.client.apply_edge_batch(batch)  # no recovery loop!
            if step % 4 == 3:
                frontier = [rng.randrange(_NSRC) for _ in range(12)]
                cluster.client.sample_neighbors_many(
                    frontier, 3, random.Random(step)
                )

        injector = cluster.fault_injector
        injector.set_policy(FaultPolicy())  # stop injecting
        # Every retry-wrapped client attempt is exactly one server-side
        # request arrival: the two independent counters must agree.
        assert retry.stats.attempts == injector.stats.requests

        _assert_cluster_matches_reference(cluster, reference)

        # Faults were actually thrown, retries actually recovered...
        assert injector.stats.transient_errors > 0
        assert injector.stats.latency_spikes > 0
        assert retry.stats.retries > 0
        assert retry.stats.recoveries > 0
        assert retry.stats.exhausted == 0
        # ...and stayed bounded: at most `max_attempts` tries per call.
        calls = retry.stats.attempts - retry.stats.retries
        assert retry.stats.attempts <= retry.max_attempts * calls
        # Backoff and spikes advanced the simulated clock, not wall time.
        assert network.stats.slept_seconds > 0
        assert network.stats.simulated_seconds > network.stats.slept_seconds

    def test_replicated_soak_survives_primary_crashes_without_recovery(
        self,
    ):
        """With R=2, crashing every primary mid-stream never surfaces an
        error — reads fail over and writes land on the backups — and a
        later sync-recovery converges both replicas to the reference."""
        rng = random.Random(99)
        config = SamtreeConfig(capacity=8)
        cluster = LocalCluster(
            num_servers=2,
            config=config,
            replication_factor=2,
            durable=True,
            retry=RetryPolicy(max_attempts=4, base_backoff_seconds=1e-4),
        )
        reference = DynamicGraphStore(config)

        for step in range(12):
            batch = _churn_batch(rng, 50)
            reference.apply_edge_batch(batch)
            cluster.client.apply_edge_batch(batch)
            if step == 4:  # both primaries go down; backups carry on
                cluster.crash(0, replica=0)
                cluster.crash(1, replica=0)
            if step == 8:  # primaries resync from their live backups
                cluster.recover_all(sync=True)
                assert not cluster.dead_replicas()

        _assert_cluster_matches_reference(cluster, reference)
        # Both replicas of each shard independently hold the full state.
        for group in cluster.replica_groups:
            primary, backup = group
            assert primary.store.num_edges == backup.store.num_edges
            primary.store.check_invariants()
            backup.store.check_invariants()

    def test_hot_replication_and_rebalance_soak_under_faults(self, tmp_path):
        """Mid-soak control-plane actions under fault injection: the
        hot-set tracker drives ``replicate_hot`` and an online
        ``plan_rebalance``/``execute_plan`` migration while transient
        faults, latency spikes, and an explicit crash schedule run —
        afterwards the cluster still equals the fault-free reference
        and weighted sampling is chi-square-equivalent."""
        from repro.datasets.stream import RequestStream
        from repro.distributed.rebalance import execute_plan, plan_rebalance

        rng = random.Random(20240808)
        num_servers = 3
        config = SamtreeConfig(capacity=8)
        retry = RetryPolicy(
            max_attempts=8, base_backoff_seconds=1e-4, seed=13
        )
        cluster = LocalCluster(
            num_servers=num_servers,
            config=config,
            durable=True,
            wal_dir=str(tmp_path / "wal"),
            fault_policy=FaultPolicy(
                transient_error_rate=0.03, latency_spike_rate=0.02
            ),
            fault_seed=41,
            retry=retry,
            hot_set_capacity=64,
        )
        reference = DynamicGraphStore(config)
        # Power-law read traffic, so the tracker has a real hot head to
        # replicate and the traffic-aware planner has skew to fix.
        requests = RequestStream(_NSRC, exponent=1.2, seed=5)
        sample_rng = np.random.default_rng(8)

        steps = 24
        replicated = migrated = False
        for step in range(steps):
            batch = _churn_batch(rng, 70)
            reference.apply_edge_batch(batch)
            _apply_with_recovery(cluster, batch)
            frontier = requests.batch(24)
            rows = _sample_with_recovery(cluster, frontier, 4, sample_rng)
            assert len(rows) == len(frontier)
            # Explicit crash schedule on top of the injected faults.
            if step % 6 == 5:
                cluster.crash_shard(step // 6 % num_servers)
                cluster.recover_all(sync=True)
            if step == steps // 3:
                installed = cluster.replicate_hot(
                    top_n=4, copies=1, min_count=1
                )
                replicated = bool(installed)
            if step == 2 * steps // 3:
                moves = plan_rebalance(cluster, tolerance=0.05, max_moves=8)
                if moves:
                    execute_plan(cluster, moves, verify=True)
                    migrated = True

        assert replicated, "tracker never produced a hot set to replicate"
        assert migrated, "planner found no moves; soak exercised nothing"

        cluster.recover_all(sync=True)
        assert not cluster.dead_replicas()
        cluster.fault_injector.set_policy(FaultPolicy())  # stop injecting

        _assert_cluster_matches_reference(cluster, reference)
        _assert_sampling_chi2_equivalent(cluster, reference)
        for group in cluster.replica_groups:
            for server in group:
                if server.store is not None:
                    server.store.check_invariants()
        # The chaos actually happened: faults were injected and the
        # control-plane work rode through retries.
        stats = cluster.fault_injector.stats
        assert stats.transient_errors > 0
        assert retry.stats.recoveries > 0

    def test_chaos_schedule_records_deterministically(self):
        """The flight recorder captures the chaos schedule (crashes,
        recoveries, policy swaps) with the scenario seed, and two
        independent runs of the same outage spec produce byte-identical
        event streams — the property incident replay rests on."""
        import json

        from repro.obs.replay import (
            build_rig_from_spec,
            make_spec,
            scenario_from_spec,
        )
        from repro.serving.scenarios import ScenarioRunner

        spec = make_spec(
            "regional_outage",
            seed=0,
            rig_kwargs={"num_shards": 3, "num_sources": 200},
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
        assert [e["kind"] for e in chaos] == ["crash", "recover"]
        assert all(e["seed"] == spec["scenario_seed"] for e in chaos)
        assert chaos[0]["shard"] == 0
        # the crash itself also landed in the fault ring, cause->effect
        fault_kinds = [e["kind"]
                       for e in first["categories"]["fault"]["events"]]
        assert "crash" in fault_kinds

    def test_soak_reports_stats(self, capsys, tmp_path):
        """The soak surfaces its fault/retry counters (acceptance asks
        for them to be *reported*, not silently swallowed)."""
        rng = random.Random(1)
        retry = RetryPolicy(max_attempts=6, base_backoff_seconds=1e-4)
        cluster = LocalCluster(
            num_servers=2,
            config=SamtreeConfig(capacity=8),
            durable=True,
            wal_dir=str(tmp_path / "wal"),
            fault_policy=FaultPolicy(
                transient_error_rate=0.1, latency_spike_rate=0.05
            ),
            fault_seed=2,
            retry=retry,
        )
        for _ in range(6):
            _apply_with_recovery(cluster, _churn_batch(rng, 40))
        report = {
            "faults": cluster.fault_injector.stats.to_dict(),
            "retries": {
                "attempts": retry.stats.attempts,
                "retries": retry.stats.retries,
                "recoveries": retry.stats.recoveries,
                "exhausted": retry.stats.exhausted,
            },
        }
        print(f"chaos soak stats: {report}")
        out = capsys.readouterr().out
        assert "chaos soak stats" in out
        assert report["faults"]["requests"] > 0
