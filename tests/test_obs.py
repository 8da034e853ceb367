"""Tests for the unified telemetry layer (``repro.obs``).

Covers the histogram's exact bucketing (property-tested), concurrent
merge, the metrics registry (owned metrics, views, snapshot diff), the
tracer (parentage, sampling, rings), the instrumentation of every legacy
``*Stats`` holder, the exporters (Prometheus lint round-trip, JSON), the
``repro obs`` CLI, and the trainer's per-phase timers.

The acceptance scenario of the issue — a traced distributed batched
sample under fault injection yielding a span tree that links client
attempt → retry → shard RPC → server endpoint with correct parentage and
simulated-clock durations — lives in :class:`TestDistributedTracing`.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.samtree import SamtreeConfig
from repro.core.topology import DynamicGraphStore
from repro.distributed import (
    FaultPolicy,
    LocalCluster,
    NetworkModel,
    RetryPolicy,
)
from repro.errors import ConfigurationError
from repro.gnn.models import GraphSAGE
from repro.gnn.training import Trainer
from repro.obs import (
    MetricsRegistry,
    PrometheusFormatError,
    TimeSeriesStore,
    Tracer,
    lint_prometheus,
    to_json,
    to_prometheus_text,
)
from repro.obs.hist import NUM_BUCKETS, LatencyHistogram
from repro.obs.report import render_report
from repro.storage.attributes import AttributeStore


# ---------------------------------------------------------------------------
# LatencyHistogram: exact bucketing (satellite a)
# ---------------------------------------------------------------------------
class TestHistogramBucketing:
    def test_bounds_partition_the_line(self):
        bounds = LatencyHistogram.bucket_bounds()
        assert len(bounds) == NUM_BUCKETS
        assert bounds[0] == (0.0, 1e-6)
        assert bounds[-1][1] == math.inf
        for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
            assert hi == lo2  # contiguous, no gaps or overlaps

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(
            min_value=0.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    def test_every_value_lands_in_its_reported_bucket(self, seconds):
        """The property the exact bucketing is pinned by: recording a
        value increments exactly the bucket whose [lo, hi) contains it."""
        hist = LatencyHistogram()
        hist.record(seconds)
        counts = hist.bucket_counts()
        assert sum(counts) == 1
        idx = counts.index(1)
        lo, hi = LatencyHistogram.bucket_bounds()[idx]
        assert lo <= seconds < hi

    def test_documented_edges(self):
        # 2^i µs is the *lower* edge of bucket i+1, not the top of i.
        for i in range(1, 10):
            edge = (1 << i) * 1e-6
            assert LatencyHistogram.bucket_index(edge) == i + 1
            assert LatencyHistogram.bucket_index(edge * 0.999) == i
        # fractional microseconds stay in bucket 0
        assert LatencyHistogram.bucket_index(0.4e-6) == 0
        assert LatencyHistogram.bucket_index(0.0) == 0

    def test_overflow_bucket_is_honest(self):
        hist = LatencyHistogram()
        huge = (1 << NUM_BUCKETS) * 1e-6  # beyond the last finite bound
        hist.record(huge)
        assert hist.bucket_counts()[-1] == 1
        # percentile reports the recorded max, not a fabricated 2^k bound
        assert hist.percentile(1.0) == huge
        lo, hi = LatencyHistogram.bucket_bounds()[-1]
        assert lo <= huge < hi

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyHistogram().record(-1e-9)

    def test_percentiles_monotone(self):
        hist = LatencyHistogram()
        rng = random.Random(7)
        for _ in range(500):
            hist.record(rng.random() * 1e-2)
        qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
        vals = [hist.percentile(q) for q in qs]
        assert vals == sorted(vals)


class TestHistogramMerge:
    def test_from_state_roundtrip(self):
        h = LatencyHistogram()
        for v in (1e-6, 3e-4, 2e-2, 7.0):
            h.record(v)
        clone = LatencyHistogram.from_state(h.state())
        assert clone.state() == h.state()
        assert clone.percentile(0.99) == h.percentile(0.99)


# ---------------------------------------------------------------------------
# Windowed quantiles: the monitor's state-subtraction must agree with a
# histogram fed the same observations (PR 9 satellite)
# ---------------------------------------------------------------------------
class TestWindowedQuantileProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=1e3,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=0,
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_window_delta_equals_direct_histogram(self, batches, q):
        """``quantile_over_time`` over a window spanning N scrape
        intervals answers exactly what a single histogram fed all the
        window's observations would — and the merge of the per-interval
        window deltas is that same histogram."""
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds")
        now = [0.0]
        store = TimeSeriesStore(reg, clock=lambda: now[0])
        store.scrape()  # empty baseline
        for batch in batches:
            for v in batch:
                h.record(v)
            now[0] += 1.0
            store.scrape()

        direct = LatencyHistogram()
        for v in (x for batch in batches for x in batch):
            direct.record(v)

        whole = store.window_histogram(
            "repro_lat_seconds", len(batches) + 0.5
        )
        assert whole.state() == direct.state()
        assert store.quantile_over_time(
            q, "repro_lat_seconds", len(batches) + 0.5
        ) == direct.percentile(q)

        # Per-interval deltas add back up to the whole window.
        parts = [
            store.window_histogram("repro_lat_seconds", 1.0, at=float(i + 1))
            for i in range(len(batches))
        ]
        merged = LatencyHistogram.from_state((
            tuple(map(sum, zip(*(p.bucket_counts() for p in parts)))),
            sum(p.count for p in parts),
            sum(p.state()[2] for p in parts),
            max(p.max for p in parts),
        ))
        assert merged.bucket_counts() == direct.bucket_counts()
        assert merged.count == direct.count
        assert merged.percentile(q) == direct.percentile(q)


# ---------------------------------------------------------------------------
# MetricsRegistry: owned metrics, views, snapshot diff (satellite c)
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", "help text", shard="0")
        g = reg.gauge("repro_test_gauge")
        h = reg.histogram("repro_test_seconds")
        c.inc(3)
        g.set(1.5)
        h.record(2e-6)
        snap = reg.snapshot()
        assert snap.get('repro_test_total{shard="0"}') == 3.0
        assert snap.get("repro_test_gauge") == 1.5
        assert snap.histograms["repro_test_seconds"][1] == 1  # count

    def test_create_or_get_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_x") is reg.counter("repro_x")

    def test_name_and_kind_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("bad name!")
        reg.counter("repro_y")
        with pytest.raises(ConfigurationError):
            reg.gauge("repro_y")  # kind conflict on the same family
        with pytest.raises(ConfigurationError):
            reg.counter("repro_neg").inc(-1)

    def test_views_read_live(self):
        class Holder:
            __slots__ = ("hits",)

            def __init__(self):
                self.hits = 0

        reg = MetricsRegistry()
        holder = Holder()
        reg.register_view("repro_v_hits", lambda: float(holder.hits))
        assert reg.snapshot().get("repro_v_hits") == 0.0
        holder.hits = 41
        holder.hits += 1
        assert reg.snapshot().get("repro_v_hits") == 42.0
        with pytest.raises(ConfigurationError):  # duplicate view slot
            reg.register_view("repro_v_hits", lambda: 0.0)

    def test_snapshot_diff_isolates_a_workload(self):
        """before/after diff equals the workload's own counts — the
        registry-level guarantee satellite (c) asks for."""
        cluster = LocalCluster(
            num_servers=2, config=SamtreeConfig(capacity=8)
        )
        rng = random.Random(1)
        for _ in range(10):
            cluster.client.add_edge(rng.randrange(8), rng.randrange(8))
        before = cluster.registry.snapshot()
        # the measured workload: exactly 7 batched sample requests
        for _ in range(7):
            cluster.client.sample_neighbors_many([0, 1, 2, 3], 2, rng)
        after = cluster.registry.snapshot()
        delta = after.diff(before)
        sample_delta = sum(
            v
            for k, v in delta.scalars.items()
            if k.startswith("repro_server_sample_requests")
        )
        update_delta = sum(
            v
            for k, v in delta.scalars.items()
            if k.startswith("repro_server_update_requests")
        )
        assert sample_delta == 7 * 2  # 7 rounds x 2 shards touched
        assert update_delta == 0  # no writes in the window
        assert json.dumps(delta.to_dict())  # JSON-ready

    def test_diff_clamps_counter_resets(self):
        """A counter that went backwards between snapshots (crash,
        ``reset_stats``) yields a zero delta — never negative work —
        and the snapshot reports how many series were clamped."""
        reg = MetricsRegistry()
        c = reg.counter("repro_work_total")
        g = reg.gauge("repro_depth")
        h = reg.histogram("repro_lat_seconds")
        c.inc(10)
        g.set(5.0)
        h.record(1e-3)
        h.record(1e-3)
        before = reg.snapshot()
        reg.reset_owned()  # the reset event
        c.inc(3)
        g.set(2.0)
        h.record(2e-3)
        delta = reg.snapshot().diff(before)
        # Counter 13 -> 3: clamped to 0, not -7.
        assert delta.scalars["repro_work_total"] == 0.0
        # Gauges keep signed deltas (5 -> 2 is a real -3).
        assert delta.scalars["repro_depth"] == -3.0
        # Histogram count 2 -> 1: bucket-wise clamp, reset counted.
        assert delta.histograms["repro_lat_seconds"][1] == 0
        assert delta.resets == 2
        assert delta.to_dict()["resets"] == 2

    def test_diff_without_reset_reports_zero_resets(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_work_total")
        c.inc(4)
        before = reg.snapshot()
        c.inc(6)
        delta = reg.snapshot().diff(before)
        assert delta.scalars["repro_work_total"] == 6.0
        assert delta.resets == 0

    def test_snapshot_prefix_filter(self):
        """The pushed-down keep-list (the monitor's scrape path) must
        not invoke the view callbacks of filtered-out series."""
        reg = MetricsRegistry()
        reg.counter("repro_keep_total").inc(1)
        calls = []
        reg.register_view(
            "repro_drop_total", lambda: calls.append(1) or 0.0
        )
        snap = reg.snapshot(prefixes=("repro_keep_",))
        assert set(snap.scalars) == {"repro_keep_total"}
        assert calls == []  # filtered view never ran


# ---------------------------------------------------------------------------
# Stats holders registered into the cluster registry
# ---------------------------------------------------------------------------
def _stats_classes():
    from repro.core.frozen import FrozenStats
    from repro.core.ingest import IngestStats
    from repro.core.samtree import OpStats
    from repro.core.snapshot import SnapshotCacheStats
    from repro.distributed.client import ServingStats
    from repro.distributed.faults import FaultStats
    from repro.distributed.hotset import HotSetStats
    from repro.distributed.rebalance import MigrationStats
    from repro.distributed.retry import RetryStats
    from repro.distributed.rpc import NetworkStats
    from repro.distributed.server import ServerStats
    from repro.serving.service import ServiceStats

    return [
        OpStats, IngestStats, SnapshotCacheStats, FrozenStats, ServerStats,
        ServingStats, NetworkStats, RetryStats, FaultStats, HotSetStats,
        MigrationStats, ServiceStats,
    ]


class TestStatsInstrumentation:
    @pytest.mark.parametrize("cls", _stats_classes(), ids=lambda c: c.__name__)
    def test_reset_zeroes_exactly_the_reported_fields(self, cls):
        """One declaration drives ``reset`` / ``to_dict`` / the
        registry's ``counters()``: a field added to a ``*Stats`` class
        cannot be forgotten by one of them."""
        stats = cls()
        counters = list(stats.counters())
        assert counters, cls.__name__
        assert tuple(counters) == stats.counters()
        assert list(stats.to_dict()) == counters + list(cls.DERIVED)
        extras = sorted(set(vars(stats)) - set(counters))
        for i, name in enumerate(counters, start=1):
            setattr(stats, name, type(getattr(stats, name))(i))
        for name in extras:  # non-counter state, e.g. a per-shard dict
            getattr(stats, name)[0] = 1.0
        assert [stats.to_dict()[n] for n in counters] == list(
            range(1, len(counters) + 1)
        )
        other = cls()
        other.merge_from(stats)
        other.merge_from(stats)
        assert [getattr(other, n) for n in counters] == [
            2 * i for i in range(1, len(counters) + 1)
        ]
        stats.reset()
        assert stats == cls()
        assert all(stats.to_dict()[n] == 0 for n in counters)
        assert all(not getattr(stats, name) for name in extras)

    def _cluster(self, **kw):
        kw.setdefault("num_servers", 2)
        kw.setdefault("config", SamtreeConfig(capacity=8))
        return LocalCluster(**kw)

    def test_all_seven_holders_have_views(self):
        cluster = self._cluster(
            network=NetworkModel(),
            replication_factor=2,
            durable=True,
            fault_policy=FaultPolicy(),
            retry=RetryPolicy(),
        )
        rng = random.Random(0)
        cluster.client.bulk_load(
            [rng.randrange(8) for _ in range(30)],
            [rng.randrange(8) for _ in range(30)],
        )
        cluster.client.sample_neighbors_many(list(range(8)), 3, rng)
        names = set(cluster.registry.names())
        for expected in (
            "repro_server_sample_requests",  # ServerStats
            "repro_network_messages",  # NetworkStats
            "repro_retry_attempts",  # RetryStats
            "repro_faults_transient_errors",  # FaultStats
            "repro_ingest_ops",  # IngestStats
            "repro_snapshot_cache_hits",  # SnapshotCacheStats
            "repro_samtree_leaf_ops",  # OpStats
            "repro_wal_records_appended",  # WAL ledger
        ):
            assert expected in names, expected
        snap = cluster.registry.snapshot()
        # the views agree with the holders they watch
        total_ingest = sum(
            s.stats.ingest_requests
            for g in cluster.replica_groups
            for s in g
        )
        seen = sum(
            v
            for k, v in snap.scalars.items()
            if k.startswith("repro_server_ingest_requests")
        )
        assert seen == total_ingest > 0

    def test_views_survive_crash_recover(self):
        """GraphServer.recover() swaps the store object; views must
        resolve through the server and keep reporting afterwards."""
        cluster = self._cluster(durable=True)
        rng = random.Random(0)
        for _ in range(20):
            cluster.client.add_edge(rng.randrange(8), rng.randrange(8))
        key = 'repro_samtree_leaf_ops{replica="0",shard="0"}'
        before = cluster.registry.snapshot().get(key)
        assert before > 0
        cluster.crash(0)
        assert cluster.registry.snapshot().get(key) == 0.0  # down -> 0
        cluster.recover(0)
        # recovery replays the WAL through the bulk path; the new store's
        # counters are live again (value is the new store's, not stale)
        after = cluster.registry.snapshot().get(key)
        assert after >= 0.0
        cluster.replica_groups[0][0].store.add_edge(100, 101, 1.0)
        assert cluster.registry.snapshot().get(key) > after

    def test_reset_stats_clears_views_and_traces(self):
        tracer = Tracer()
        cluster = self._cluster(network=NetworkModel(), tracer=tracer)
        cluster.client.add_edge(1, 2, 1.0)
        assert len(tracer.finished) > 0
        snap = cluster.registry.snapshot()
        assert any(
            v for k, v in snap.scalars.items() if k.startswith("repro_")
        )
        cluster.reset_stats()
        snap = cluster.registry.snapshot()
        counters = {
            k: v
            for k, v in snap.scalars.items()
            if snap.kinds.get(k) == "counter"
        }
        assert all(v == 0.0 for v in counters.values()), counters
        assert len(tracer.finished) == 0


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------
class TestTracer:
    def test_parentage_and_walk(self):
        tracer = Tracer()
        with tracer.span("root", a=1) as root:
            with tracer.span("child1") as c1:
                with tracer.span("leaf") as leaf:
                    pass
            with tracer.span("child2"):
                pass
        assert root.parent_id is None
        assert c1.parent_id == root.span_id
        assert leaf.parent_id == c1.span_id
        assert [s.name for s in root.walk()] == [
            "root",
            "child1",
            "leaf",
            "child2",
        ]
        assert root.find("leaf") == [leaf]
        assert len(tracer.finished) == 1  # only roots archived

    def test_error_status_and_tag(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        root = tracer.traces()[0]
        assert root.status == "error"
        assert root.tags["error"] == "ValueError"

    def test_head_sampling_drops_whole_trees(self):
        tracer = Tracer(sample_rate=0.5, seed=123)
        kept = 0
        for _ in range(200):
            with tracer.span("root"):
                with tracer.span("inner"):  # must not become a root
                    pass
        kept = len(tracer.finished)
        assert 0 < kept < 200
        assert all(s.parent_id is None for s in tracer.finished)
        assert all(len(s.children) == 1 for s in tracer.finished)
        # determinism: the same seed keeps the same count
        tracer2 = Tracer(sample_rate=0.5, seed=123)
        for _ in range(200):
            with tracer2.span("root"):
                with tracer2.span("inner"):
                    pass
        assert len(tracer2.finished) == kept

    def test_rings_are_bounded(self):
        tracer = Tracer(max_traces=8, slow_threshold_seconds=0.0,
                        max_slow_traces=4)
        for _ in range(50):
            with tracer.span("r"):
                pass
        assert len(tracer.finished) == 8
        assert len(tracer.slow) == 4

    def test_simulated_clock_durations(self):
        net = NetworkModel(latency_seconds=1e-3)
        tracer = Tracer(clock=net.now)
        with tracer.span("op") as span:
            net.send(100)  # advances the simulated clock
        assert span.duration == pytest.approx(net.stats.last_send_seconds)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ConfigurationError):
            Tracer(max_traces=0)
        with pytest.raises(ConfigurationError):
            Tracer(slow_threshold_seconds=-1)

    def test_chrome_trace_export(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        with tracer.span("serve.batch", shard=3, policy=object()) as root:
            now[0] += 0.25
            with tracer.span("rpc.read_shard"):
                now[0] += 0.5
            now[0] += 0.25
        payload = tracer.to_chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert [e["name"] for e in events] == ["serve.batch", "rpc.read_shard"]
        for e in events:
            assert e["ph"] == "X"  # complete events: one per finished span
            assert e["cat"] == "repro"
            assert e["pid"] == 0
        root_ev, child_ev = events
        # chrome://tracing wants microseconds
        assert root_ev["ts"] == pytest.approx(0.0)
        assert root_ev["dur"] == pytest.approx(1.0e6)
        assert child_ev["ts"] == pytest.approx(0.25e6)
        assert child_ev["dur"] == pytest.approx(0.5e6)
        # one lane per trace: tid is the shared trace id
        assert root_ev["tid"] == child_ev["tid"] == root.trace_id
        assert root_ev["args"]["span_id"] == root.span_id
        assert root_ev["args"]["parent_id"] is None
        assert child_ev["args"]["parent_id"] == root.span_id
        assert root_ev["args"]["status"] == "ok"
        # JSON-native tags pass through; anything else falls back to repr
        assert root_ev["args"]["shard"] == 3
        assert isinstance(root_ev["args"]["policy"], str)
        json.dumps(payload)  # the whole export must serialise

    def test_chrome_trace_skips_unfinished_spans(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        with tracer.span("root"):
            tracer.span("stuck")  # opened, never exited
            now[0] += 1.0
        events = tracer.to_chrome_trace()["traceEvents"]
        assert [e["name"] for e in events] == ["root"]

    def test_chrome_trace_explicit_span_subset(self):
        tracer = Tracer()
        for name in ("a", "b"):
            with tracer.span(name):
                pass
        subset = [s for s in tracer.traces() if s.name == "b"]
        events = tracer.to_chrome_trace(spans=subset)["traceEvents"]
        assert [e["name"] for e in events] == ["b"]


# ---------------------------------------------------------------------------
# The acceptance scenario: traced distributed sampling under faults
# ---------------------------------------------------------------------------
class TestDistributedTracing:
    def _traced_cluster(self):
        net = NetworkModel(latency_seconds=1e-4)
        tracer = Tracer(clock=net.now)
        cluster = LocalCluster(
            num_servers=3,
            config=SamtreeConfig(capacity=8),
            network=net,
            replication_factor=2,
            durable=True,
            fault_policy=FaultPolicy(transient_error_rate=0.25),
            fault_seed=5,
            retry=RetryPolicy(max_attempts=8, base_backoff_seconds=1e-3),
            tracer=tracer,
        )
        return cluster, tracer, net

    def test_span_tree_links_every_layer(self):
        cluster, tracer, _ = self._traced_cluster()
        rng = random.Random(0)
        srcs = [rng.randrange(30) for _ in range(120)]
        dsts = [rng.randrange(30) for _ in range(120)]
        cluster.client.bulk_load(srcs, dsts, 1.0)
        tracer.reset()
        rows = cluster.client.sample_neighbors_many(
            list(range(30)), 4, rng
        ).rows()
        assert len(rows) == 30
        assert len(tracer.finished) == 1
        root = tracer.traces()[0]
        # layer linkage: client -> shard RPC -> attempt -> server -> samtree
        assert root.name == "client.sample_neighbors_many"
        reads = root.find("rpc.read_shard")
        assert len(reads) == 3  # one per shard
        for read in reads:
            assert read.parent_id == root.span_id
            attempts = read.find("rpc.attempt")
            assert attempts  # at least one attempt per shard read
            for att in attempts:
                assert att.parent_id == read.span_id
            ok = [a for a in attempts if a.status == "ok"]
            assert len(ok) == 1  # exactly one attempt succeeded
            server_spans = ok[0].find("server.sample_neighbors_many")
            assert len(server_spans) == 1
            samtree = server_spans[0].find("samtree.sample_many")
            assert len(samtree) == 1
            assert samtree[0].parent_id == server_spans[0].span_id
        # every span's window nests inside its parent's
        for span in root.walk():
            for child in span.children:
                assert child.start >= span.start
                assert child.end <= span.end

    def test_retries_appear_as_error_attempts(self):
        cluster, tracer, _ = self._traced_cluster()
        rng = random.Random(0)
        for i in range(120):
            cluster.client.add_edge(rng.randrange(30), rng.randrange(30))
        failed = [
            s
            for root in tracer.traces()
            for s in root.find("rpc.attempt")
            if s.status == "error"
        ]
        assert failed  # 25% transient rate over 120 writes must retry
        for att in failed:
            assert att.tags["error"] == "TransientRPCError"
        # attempt numbering restarts per replica call and increments
        retried = [a for a in failed if a.tags["attempt"] >= 1]
        assert retried
        assert cluster.retry.stats.retries > 0

    def test_durations_run_on_the_simulated_clock(self):
        cluster, tracer, net = self._traced_cluster()
        rng = random.Random(0)
        cluster.client.bulk_load([1, 2, 3], [4, 5, 6], 1.0)
        t0 = net.now()
        cluster.client.sample_neighbors_many([1, 2, 3], 2, rng)
        elapsed = net.now() - t0
        root = tracer.traces()[-1]
        assert root.name == "client.sample_neighbors_many"
        # the root span covers exactly the simulated time the batch took
        assert root.duration == pytest.approx(elapsed)
        assert root.duration > 0.0


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
class TestExporters:
    def _loaded_cluster(self):
        net = NetworkModel()
        tracer = Tracer(clock=net.now)
        cluster = LocalCluster(
            num_servers=2,
            config=SamtreeConfig(capacity=8),
            network=net,
            tracer=tracer,
        )
        rng = random.Random(0)
        cluster.client.bulk_load(
            [rng.randrange(16) for _ in range(60)],
            [rng.randrange(16) for _ in range(60)],
        )
        cluster.client.sample_neighbors_many(list(range(16)), 3, rng)
        return cluster, tracer

    def test_prometheus_round_trip_lints(self):
        cluster, _ = self._loaded_cluster()
        cluster.registry.histogram(
            "repro_demo_seconds", phase="x"
        ).record(3e-4)
        text = to_prometheus_text(cluster.registry)
        result = lint_prometheus(text)
        assert result["families"] > 10
        assert result["samples"] > 20
        assert "# TYPE repro_demo_seconds histogram" in text
        assert 'repro_demo_seconds_bucket{phase="x",le="+Inf"} 1' in text

    def test_lint_rejects_malformed_expositions(self):
        with pytest.raises(PrometheusFormatError):
            lint_prometheus("bad name{} 1\n")
        with pytest.raises(PrometheusFormatError):
            lint_prometheus("x 1\nx 2\n")  # duplicate series
        with pytest.raises(PrometheusFormatError):
            lint_prometheus("x notanumber\n")
        with pytest.raises(PrometheusFormatError):
            lint_prometheus("# TYPE h histogram\nh_bucket{le=\"1\"} 1\n"
                            "h_sum 1\nh_count 1\n")  # no +Inf bucket
        with pytest.raises(PrometheusFormatError):
            lint_prometheus("x{a=\"1\"b=\"2\"} 1\n")  # malformed labels

    def test_json_payload(self):
        cluster, tracer = self._loaded_cluster()
        doc = to_json(cluster.registry, tracer, top_slow=3)
        blob = json.dumps(doc)
        assert "repro_server_sample_requests" in blob
        assert doc["traces_archived"] == len(tracer.finished)
        assert len(doc["slow_traces"]) <= 3
        if doc["slow_traces"]:
            span = doc["slow_traces"][0]
            assert {"trace_id", "span_id", "children"} <= set(span)

    def test_report_renders_shards_counters_traces(self):
        cluster, tracer = self._loaded_cluster()
        text = render_report(cluster, tracer=tracer, top_k=2)
        assert "per-shard load" in text
        assert "skew: edges max/mean" in text
        assert "cache" in text and "network" in text
        assert "slow traces" in text
        assert "client.sample_neighbors_many" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestObsCLI:
    def test_human_report(self, capsys):
        assert cli_main([
            "obs", "--shards", "2", "--edges", "200", "--rounds", "3",
            "--vertices", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro observability report" in out
        assert "per-shard load" in out

    def test_prometheus_output_lints(self, capsys):
        assert cli_main([
            "obs", "--format", "prometheus", "--shards", "2",
            "--edges", "200", "--rounds", "2", "--vertices", "50",
        ]) == 0
        out = capsys.readouterr().out
        result = lint_prometheus(out)
        assert result["samples"] > 0

    def test_json_output_with_faults(self, capsys):
        assert cli_main([
            "obs", "--format", "json", "--shards", "2", "--replicas", "2",
            "--fault-rate", "0.1", "--edges", "200", "--rounds", "2",
            "--vertices", "50",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traces_archived"] > 0
        assert any(
            k.startswith("repro_retry_attempts") for k in doc["metrics"]
        )


# ---------------------------------------------------------------------------
# Trainer phase spans
# ---------------------------------------------------------------------------
class TestTrainerTelemetry:
    def _problem(self, n=40, dim=4):
        rng = random.Random(0)
        nprng = np.random.default_rng(0)
        store = DynamicGraphStore(SamtreeConfig(capacity=8))
        feats = AttributeStore()
        feats.register("feat", dim)
        for v in range(n):
            feats.put("feat", v, nprng.normal(0, 1, dim).astype(np.float32))
        for _ in range(n * 4):
            store.add_edge(rng.randrange(n), rng.randrange(n), 1.0)
        seeds = [v for v in range(n) if store.degree(v) > 0]
        labels = [v % 2 for v in seeds]
        return store, feats, seeds, labels

    def test_train_step_span_nests_phases(self):
        store, feats, seeds, labels = self._problem()
        tracer = Tracer()
        model = GraphSAGE(4, 8, 2, num_layers=2,
                          rng=np.random.default_rng(0))
        trainer = Trainer(
            store, feats, model, fanouts=[3, 3], tracer=tracer
        )
        trainer.train_step(seeds[:8], labels[:8])
        root = tracer.traces()[-1]
        assert root.name == "train.step"
        names = [s.name for s in root.children]
        assert names == ["train.sample", "train.gather", "train.compute"]
        hops = root.find("sampler.hop")
        assert len(hops) == 2  # one per fanout
        assert all(h.parent_id == root.children[0].span_id for h in hops)
