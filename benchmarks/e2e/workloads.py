"""The four workloads, driven through the program's public API only.

Each workload is ``setup`` (timed by the caller), ``measure`` (fixed-count
windows; one discarded warm-up window first) and ``verify`` (correctness
checks against a reference model, after the measured work so the model
never sits in memory beside it).  Drivers touch ``LocalCluster``,
``GraphClient`` writes / ``bulk_load`` / ``freeze_all``,
``Trainer.train_step``, ``build_serving_rig`` and
``InferenceService.submit`` / ``poll`` / ``next_flush_at`` / ``flush``;
checks additionally read through ``client.sample_neighbors``,
``client.neighbors``, ``client.sources`` and ``client.num_edges``.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Tuple

import numpy as np

from calibrate import Calibrator
from inputs import (
    Churn,
    Graph,
    Shape,
    ingest_inputs,
    serve_windows,
    train_inputs,
)
from ladder import run_ladder
from repro.core.ingest import OP_INSERT, OP_UPDATE
from repro.distributed import LocalCluster
from repro.distributed.rpc import NetworkModel
from repro.gnn.models import GraphSAGE
from repro.gnn.training import Trainer
from repro.serving.scenarios import build_serving_rig
from repro.storage.attributes import AttributeStore

NUM_SHARDS = 4


@dataclass
class Outcome:
    """What one pass over a workload produced."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Issue-named end-to-end figures, raw wall clock:
    #: name -> (value, samples).
    named: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: The two speed figures the driver gates, calibrated to machine
    #: speed 1 (see calibrate.py).
    gated: Dict[str, float] = field(default_factory=dict)
    #: Raw program counters accumulated over the measured windows.
    counters: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    #: Ungated timings (spec.TIMINGS names).
    timings: Dict[str, float] = field(default_factory=dict)
    #: ``perf_counter_ns`` bounds of every measured window, the
    #: calibration seconds inside them and the machine speed of each.
    windows: List[Tuple[int, int]] = field(default_factory=list)
    calibration_s: float = 0.0
    speeds: List[float] = field(default_factory=list)
    #: Program operations inside the measured windows (the ``per_op``
    #: denominators) and seed vertices among them.
    ops: int = 0
    seeds: int = 0

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(why)

    def check(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(1, why)


def _p(samples: List[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


class Window:
    """Work seconds (calibration excluded) and machine speed of one
    window; both are known once the ``with`` block has closed."""

    seconds = 0.0
    speed = 1.0


@contextmanager
def _window(out: Optional[Outcome], cal: Calibrator, measured: bool,
            counters=None):
    """One fixed-count window: collect garbage, bracket the body with the
    clock and the calibrator, and (for a measured window) add the
    program-counter deltas ``counters()`` saw across it to ``out``."""
    keep = measured and out is not None
    gc.collect()
    before = counters() if keep and counters else {}
    win = Window()
    cal.start()
    w0 = perf_counter_ns()
    try:
        yield win
    finally:
        w1 = perf_counter_ns()
        spent, win.speed = cal.stop()
        win.seconds = (w1 - w0) / 1e9 - spent
        if keep:
            out.windows.append((w0, w1))
            out.calibration_s += spent
            out.speeds.append(win.speed)
            for key, value in (counters() if counters else {}).items():
                out.counters[key] += value - before[key]


# ---------------------------------------------------------------------------
# reference model
# ---------------------------------------------------------------------------
class RefGraph:
    """Dict-of-dicts adjacency with the store's sequential semantics:
    insert upserts, update touches existing edges only, delete removes."""

    def __init__(self, graph: Graph) -> None:
        self.adj: Dict[int, Dict[int, float]] = {}
        for s, d, w in zip(
            graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist()
        ):
            self.adj.setdefault(s, {})[d] = w

    def apply(self, batch: Churn) -> None:
        adj = self.adj
        for s, d, w, o in zip(
            batch.src.tolist(), batch.dst.tolist(),
            batch.weight.tolist(), batch.op.tolist(),
        ):
            if o == OP_INSERT:
                adj.setdefault(s, {})[d] = w
                continue
            row = adj.get(s)
            if row is None or d not in row:
                continue
            if o == OP_UPDATE:
                row[d] = w
            else:
                del row[d]
                if not row:
                    del adj[s]

    @property
    def num_edges(self) -> int:
        return sum(len(row) for row in self.adj.values())

    def bad_rows(self, srcs: List[int], rows: List[List[int]]) -> int:
        """Probe rows holding an id that is not a neighbour of its
        source (an isolated source must draw nothing)."""
        bad = 0
        for src, row in zip(srcs, rows):
            nbrs = self.adj.get(src)
            if not nbrs:
                bad += bool(len(row))
            else:
                bad += not len(row) or any(int(v) not in nbrs for v in row)
        return bad

    def mismatched_edges(self, adjacency: Dict[int, Dict[int, float]]) -> int:
        """Edges present, absent or weighted differently than here."""
        bad = 0
        for src in self.adj.keys() | adjacency.keys():
            mine = self.adj.get(src, {})
            theirs = adjacency.get(src, {})
            if mine != theirs:
                bad += len(mine.items() ^ theirs.items())
        return bad


def read_adjacency(client) -> Dict[int, Dict[int, float]]:
    return {
        int(src): dict(client.neighbors(int(src)))
        for src in list(client.sources())
    }


def graph_of(adjacency: Dict[int, Dict[int, float]], num_sources: int) -> Graph:
    src = [s for s, row in adjacency.items() for _ in row]
    dst = [d for row in adjacency.values() for d in row]
    w = [x for row in adjacency.values() for x in row.values()]
    return Graph(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
        num_sources,
    )


def check_graph(out: Outcome, client, ref: RefGraph, what: str) -> None:
    edges = ref.num_edges
    out.attempted += edges
    bad = ref.mismatched_edges(read_adjacency(client))
    if bad:
        out.fail(bad, f"{what}: {bad} edges differ from the reference model")
    out.check(
        client.num_edges == edges,
        f"{what}: num_edges {client.num_edges} != reference {edges}",
    )


# ---------------------------------------------------------------------------
# program counters
# ---------------------------------------------------------------------------
def _get(obj, path: str) -> float:
    """``obj.a.b.c`` as a number; 0 when any link is missing, so a
    renamed stats field zeroes one counter and fails nothing."""
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return 0.0
    return float(obj)


def read_counters(cluster, service=None) -> Dict[str, float]:
    c: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        c[key] = c.get(key, 0.0) + value

    for i, server in enumerate(cluster.servers):
        store = getattr(server, "store", None)
        add("snapshot.hits", _get(store, "snapshot_cache.stats.hits"))
        add("snapshot.misses", _get(store, "snapshot_cache.stats.misses"))
        add("snapshot.builds", _get(store, "snapshot_cache.stats.builds"))
        add("frozen.vertices", _get(store, "frozen_stats.vertices"))
        add("frozen.stale_misses", _get(store, "frozen_stats.stale_misses"))
        add("wal.bytes", _get(server, "wal.bytes_appended"))
        rows = _get(server, "stats.sample_sources")
        add("server.rows", rows)
        c[f"server.rows.{i}"] = rows
    client = cluster.client
    c["client.sources"] = _get(client, "serving_stats.sources")
    c["client.coalesced"] = _get(client, "serving_stats.coalesced_sources")
    c["net.messages"] = _get(cluster, "network.stats.messages")
    c["net.bytes"] = _get(cluster, "network.stats.payload_bytes")
    if service is not None:
        for name in ("submitted", "batches", "batched_requests",
                     "shed_total", "answered_degraded"):
            c[f"service.{name}"] = _get(service, f"stats.{name}")
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derived_counters(out: Outcome, final_loss: float = 0.0) -> Dict[str, float]:
    """spec.COUNTERS from the raw deltas."""
    c = out.counters
    shard_rows = [v for k, v in c.items() if k.startswith("server.rows.")]
    mean_rows = _ratio(sum(shard_rows), len(shard_rows))
    return {
        "core.snapshot.hit_rate": _ratio(
            c["snapshot.hits"], c["snapshot.hits"] + c["snapshot.misses"]
        ),
        "core.snapshot.builds": c["snapshot.builds"],
        "core.frozen.served_share": _ratio(
            c["frozen.vertices"], c["server.rows"]
        ),
        "core.frozen.stale_misses": c["frozen.stale_misses"],
        "distributed.client.coalesce_rate": _ratio(
            c["client.coalesced"], c["client.sources"]
        ),
        "distributed.rpc.messages_per_op": _ratio(c["net.messages"], out.ops),
        "distributed.rpc.bytes_per_op": _ratio(c["net.bytes"], out.ops),
        "distributed.server.shard_imbalance": _ratio(
            max(shard_rows, default=0.0), mean_rows
        ),
        "gnn.samplers.expanded_per_seed": _ratio(
            c["client.sources"], out.seeds
        ),
        "gnn.training.final_loss": final_loss,
        "storage.wal.bytes_per_op": _ratio(c["wal.bytes"], out.ops),
        "serving.service.mean_batch_size": _ratio(
            c["service.batched_requests"], c["service.batches"]
        ),
        "serving.admission.shed_share": _ratio(
            c["service.shed_total"], c["service.submitted"]
        ),
        "serving.degraded.answer_share": _ratio(
            c["service.answered_degraded"], c["service.submitted"]
        ),
    }


def _apply(client, batch: Churn) -> None:
    client.apply_edge_batch(batch.src, batch.dst, batch.weight, None, batch.op)


def _probe(client, srcs: List[int], k: int, rng: random.Random):
    """Scalar draws for the membership check (its own RNG, so the
    workload's draw stream is the same with and without checks)."""
    return [list(client.sample_neighbors(src, k, rng)) for src in srcs]


def bytes_per_edge(cluster) -> float:
    return _ratio(cluster.total_nbytes(), cluster.client.num_edges)


# ---------------------------------------------------------------------------
# train_frozen / train_churn
# ---------------------------------------------------------------------------
@dataclass
class TrainState:
    cluster: LocalCluster
    features: AttributeStore
    model: GraphSAGE
    trainer: Trainer
    final_loss: float = 0.0
    first_loss: float = 0.0
    probes: List[Tuple[List[int], List[List[int]]]] = field(
        default_factory=list
    )


class TrainWorkload:
    """Closed loop, one caller: ``Trainer.train_step`` per mini-batch,
    with a columnar churn batch before every 4th step when ``churn``."""

    def __init__(self, churn: bool) -> None:
        self.churn = churn
        self.name = "train_churn" if churn else "train_frozen"

    def inputs(self, seed: int, shape: Shape, windows: int):
        return train_inputs(seed, shape, windows, self.churn)

    def setup(self, inp, shape: Shape, work_dir: str) -> TrainState:
        cluster = LocalCluster(num_servers=NUM_SHARDS, network=NetworkModel())
        g = inp.graph
        cluster.client.bulk_load(g.src, g.dst, g.weight)
        if not self.churn:
            cluster.freeze_all()
        features = AttributeStore()
        features.register("feat", shape.feat_dim)
        features.put_many("feat", list(range(g.num_sources)), inp.feats)
        model = GraphSAGE(
            shape.feat_dim, shape.hidden_dim, shape.classes,
            num_layers=len(shape.fanouts),
            rng=np.random.default_rng(inp.model_seed),
        )
        trainer = Trainer(
            cluster.client, features, model, shape.fanouts,
            rng=random.Random(inp.model_seed + 1),
        )
        return TrainState(cluster, features, model, trainer)

    def teardown(self, state: TrainState) -> None:
        pass

    def extras(self, state: TrainState, inp, shape: Shape, seed: int):
        """The ladder runs on ``train_frozen``'s graph and cluster (which
        it thaws: call this after the pass is measured and verified)."""
        if self.churn:
            return {}
        return run_ladder(
            inp, shape, state.cluster, state.features, state.model, seed
        )

    def measure(self, state: TrainState, inp, shape: Shape, out: Outcome):
        client, trainer = state.cluster.client, state.trainer
        probe_rng = random.Random(inp.model_seed + 2)
        cal = Calibrator()

        def counters():
            return read_counters(state.cluster)

        n_windows, steps, batch = inp.seeds.shape
        every = shape.churn_every
        churn_points = len(range(0, steps, every)) if self.churn else 0
        planned = steps + churn_points * shape.churn_ops
        step_s: List[float] = []
        step_cal_s: List[float] = []
        churn_s: List[float] = []
        seeds_per_s: List[float] = []
        seeds_per_cal_s: List[float] = []
        batches = iter(inp.churn or ())
        for w in range(n_windows):
            measured = w > 0
            seed_rows = inp.seeds[w].tolist()
            labels = inp.labels[inp.seeds[w]]
            losses: List[float] = []
            steps_s: List[float] = []
            done = 0
            with _window(out, cal, measured, counters) as win:
                try:
                    for i in range(steps):
                        if self.churn and i % every == 0:
                            b = next(batches)
                            t0 = perf_counter()
                            _apply(client, b)
                            dt = perf_counter() - t0
                            done += shape.churn_ops
                            if measured:
                                churn_s.append(dt)
                            cal.tick()
                        t0 = perf_counter()
                        loss, _ = trainer.train_step(seed_rows[i], labels[i])
                        steps_s.append(perf_counter() - t0)
                        done += 1
                        losses.append(float(loss))
                        cal.tick()
                except Exception as exc:  # counted, reported, run goes on
                    out.fail(planned - done, f"window {w}: {exc!r}")
            mean_loss = float(np.mean(losses)) if losses else float("nan")
            if w == 0:
                state.first_loss = mean_loss
            state.final_loss = mean_loss
            if measured:
                out.attempted += planned
                out.ops += steps + churn_points
                out.seeds += steps * batch
                rate = steps * batch / win.seconds
                seeds_per_s.append(rate)
                seeds_per_cal_s.append(rate / win.speed)
                step_s.extend(steps_s)
                step_cal_s.extend(dt * win.speed for dt in steps_s)
            probe = seed_rows[0][: shape.probe_rows]
            state.probes.append(
                (probe, _probe(client, probe, shape.fanouts[0], probe_rng))
            )
        out.named["train_seeds_per_s"] = (median(seeds_per_s), len(seeds_per_s))
        out.named["train_step_ms_p50"] = (_p(step_s, 50) * 1e3, len(step_s))
        out.gated["throughput_per_s"] = median(seeds_per_cal_s)
        out.gated["latency_ms_p50"] = _p(step_cal_s, 50) * 1e3
        out.timings["gnn.training.step_ms_p99"] = _p(step_s, 99) * 1e3
        if self.churn:
            ops_per_s = [shape.churn_ops / dt for dt in churn_s]
            out.named["update_ops_per_s"] = (median(ops_per_s), len(ops_per_s))
            out.timings["core.topology.update_batch_ms_p99"] = (
                _p(churn_s, 99) * 1e3
            )
            out.timings["distributed.client.update_ops_per_s"] = median(
                ops_per_s
            )
        out.named["bytes_per_edge"] = (bytes_per_edge(state.cluster), 1)

    def verify(self, state: TrainState, inp, shape: Shape, out: Outcome):
        ref = RefGraph(inp.graph)
        n_windows, steps, _ = inp.seeds.shape
        per_window = len(range(0, steps, shape.churn_every))
        for w, (srcs, rows) in enumerate(state.probes):
            if self.churn:
                for b in inp.churn[w * per_window:(w + 1) * per_window]:
                    ref.apply(b)
            out.attempted += len(srcs)
            bad = ref.bad_rows(srcs, rows)
            if bad:
                out.fail(bad, f"window {w}: {bad} probe rows drew a non-neighbour")
        check_graph(out, state.cluster.client, ref, self.name)
        out.check(
            np.isfinite(state.final_loss)
            and state.final_loss < 0.5 * state.first_loss,
            f"loss {state.first_loss:.4f} -> {state.final_loss:.4f} "
            f"did not halve",
        )


# ---------------------------------------------------------------------------
# ingest_churn
# ---------------------------------------------------------------------------
@dataclass
class IngestState:
    cluster: LocalCluster
    wal_dir: str
    #: Figures timed inside set-up; the caller takes their median over
    #: the repeated set-ups.
    setup_named: Dict[str, float]


class IngestWorkload:
    """Closed loop, one writer, file-backed WAL.  The bulk load is this
    workload's set-up (it is what later phases stand on), so a slower
    ``bulk_load`` shows in ``setup_s`` as well as ``ingest_edges_per_s``."""

    name = "ingest_churn"

    def inputs(self, seed: int, shape: Shape, windows: int):
        return ingest_inputs(seed, shape, windows)

    def setup(self, inp, shape: Shape, work_dir: str) -> IngestState:
        wal_dir = tempfile.mkdtemp(prefix="wal.", dir=work_dir)
        cluster = LocalCluster(
            num_servers=NUM_SHARDS, network=NetworkModel(), durable=True,
            wal_dir=wal_dir,
        )
        g = inp.graph
        t0 = perf_counter()
        cluster.client.bulk_load(g.src, g.dst, g.weight)
        rate = g.src.size / (perf_counter() - t0)
        return IngestState(cluster, wal_dir, {"ingest_edges_per_s": rate})

    def teardown(self, state: IngestState) -> None:
        shutil.rmtree(state.wal_dir, ignore_errors=True)

    def extras(self, state: IngestState, inp, shape: Shape, seed: int):
        return {}

    def measure(self, state: IngestState, inp, shape: Shape, out: Outcome):
        cluster, client = state.cluster, state.cluster.client
        cal = Calibrator()

        def counters():
            return read_counters(cluster)

        per_window = shape.ingest_batches
        n_windows = len(inp.scalar)
        batch_s: List[float] = []
        batch_ops_per_cal_s: List[float] = []
        for w in range(n_windows):
            measured = w > 0
            mine: List[float] = []
            with _window(out, cal, measured, counters) as win:
                try:
                    for b in inp.churn[w * per_window:(w + 1) * per_window]:
                        t0 = perf_counter()
                        _apply(client, b)
                        mine.append(perf_counter() - t0)
                        cal.tick()
                except Exception as exc:
                    out.fail((per_window - len(mine)) * shape.ingest_ops,
                             f"churn window {w}: {exc!r}")
            if measured:
                out.attempted += per_window * shape.ingest_ops
                out.ops += per_window
                batch_s.extend(mine)
                batch_ops_per_cal_s.extend(
                    shape.ingest_ops / dt / win.speed for dt in mine
                )
        scalar_ops_per_s: List[float] = []
        scalar_op_cal_ms: List[float] = []
        for w, b in enumerate(inp.scalar):
            measured = w > 0
            rows = list(zip(b.src.tolist(), b.dst.tolist(),
                            b.weight.tolist(), b.op.tolist()))
            done = 0
            with _window(out, cal, measured, counters) as win:
                try:
                    for s, d, wt, o in rows:
                        if o == OP_INSERT:
                            client.add_edge(s, d, wt)
                        elif o == OP_UPDATE:
                            client.update_edge(s, d, wt)
                        else:
                            client.remove_edge(s, d)
                        done += 1
                        cal.tick()
                except Exception as exc:
                    out.fail(len(rows) - done, f"scalar window {w}: {exc!r}")
            if measured:
                out.attempted += len(rows)
                out.ops += len(rows)
                scalar_ops_per_s.append(len(rows) / win.seconds)
                scalar_op_cal_ms.append(
                    1e3 * win.seconds * win.speed / len(rows)
                )
        batch_ops_per_s = [shape.ingest_ops / dt for dt in batch_s]
        out.named["update_ops_per_s"] = (
            median(batch_ops_per_s), len(batch_ops_per_s)
        )
        out.named["scalar_ops_per_s"] = (
            median(scalar_ops_per_s), len(scalar_ops_per_s)
        )
        out.named["bytes_per_edge"] = (bytes_per_edge(cluster), 1)
        out.gated["throughput_per_s"] = median(batch_ops_per_cal_s)
        out.gated["latency_ms_p50"] = median(scalar_op_cal_ms)
        out.timings["core.topology.update_batch_ms_p99"] = _p(batch_s, 99) * 1e3
        out.timings["distributed.client.update_ops_per_s"] = median(
            batch_ops_per_s
        )
        out.timings["distributed.client.scalar_ops_per_s"] = median(
            scalar_ops_per_s
        )
        out.timings["distributed.client.ingest_edges_per_s"] = (
            state.setup_named["ingest_edges_per_s"]
        )

    def verify(self, state: IngestState, inp, shape: Shape, out: Outcome):
        cluster, client = state.cluster, state.cluster.client
        ref = RefGraph(inp.graph)
        for b in inp.churn:
            ref.apply(b)
        for b in inp.scalar:
            ref.apply(b)
        check_graph(out, client, ref, "after churn")
        # Durability: checkpoint, lose every shard's volatile state, come
        # back from checkpoint + WAL tail, and compare again.
        with _window(out, Calibrator(), True):
            t0 = perf_counter()
            cluster.checkpoint_all()
            out.timings["storage.checkpoint.checkpoint_s"] = (
                perf_counter() - t0
            )
            t0 = perf_counter()
            for shard in range(len(cluster.servers)):
                cluster.crash(shard)
                cluster.recover(shard)
            out.timings["storage.checkpoint.recover_s"] = perf_counter() - t0
        check_graph(out, client, ref, "after recover")


# ---------------------------------------------------------------------------
# serve_zipf
# ---------------------------------------------------------------------------
@dataclass
class ServeState:
    rig: object
    seed: int
    handles: list = field(default_factory=list)
    churned: List[List[Churn]] = field(default_factory=list)
    probes: List[Tuple[List[int], List[List[int]]]] = field(
        default_factory=list
    )
    graph: Optional[Graph] = None


def _sleep_to(network, t: float) -> None:
    delta = t - network.now()
    if delta > 0:
        network.sleep(delta)


def drive_service(rig, windows, out: Optional[Outcome], state=None,
                  probe_rows: int = 0, fanout: int = 0):
    """Replay an arrival schedule as fast as the process can go.

    Open loop on the *simulated* clock: each request is handed over at
    its scheduled arrival (``arrival=`` keeps latency honest if the
    simulated server ran late), micro-batches flush when their window
    closes.  Wall figures are therefore service capacity, not response
    time.  Returns per measured window ``(requests per work second,
    machine speed, flush seconds)`` and all submit seconds.
    """
    service, network = rig.service, rig.cluster.network
    client = rig.cluster.client
    probe_rng = random.Random(17)
    cal = Calibrator()

    def counters():
        return read_counters(rig.cluster, service)

    base = network.now()
    per_window: List[Tuple[float, float, List[float]]] = []
    submit_s: List[float] = []
    for w, win_in in enumerate(windows):
        measured = w > 0
        handles = []
        applied: List[Churn] = []
        flush_s: List[float] = []
        with _window(out, cal, measured, counters) as win:
            try:
                for t, payload, kind in win_in.events:
                    due_at = base + t
                    while True:
                        flush_at = service.next_flush_at()
                        if flush_at is None or flush_at > due_at:
                            break
                        _sleep_to(network, flush_at)
                        t0 = perf_counter()
                        flushed = service.poll()
                        dt = perf_counter() - t0
                        if flushed:
                            flush_s.append(dt / flushed)
                    _sleep_to(network, due_at)
                    if kind is None:
                        _apply(client, payload)
                        applied.append(payload)
                    else:
                        t0 = perf_counter()
                        handles.append(
                            service.submit(payload, kind=kind, arrival=due_at)
                        )
                        if measured:
                            submit_s.append(perf_counter() - t0)
                    cal.tick()
            except Exception as exc:
                if out is not None:
                    out.fail(win_in.requests - len(handles),
                             f"window {w}: {exc!r}")
        if measured:
            per_window.append(
                (win_in.requests / win.seconds, win.speed, flush_s)
            )
            if out is not None:
                out.attempted += win_in.requests + win_in.churn_ops
                out.ops += win_in.requests
                out.seeds += sum(len(h.vertices) for h in handles)
        if state is not None:
            state.churned.append(applied)
            if measured:
                state.handles.extend(handles)
            probe = [h.vertices[0] for h in handles[:probe_rows]]
            state.probes.append(
                (probe, _probe(client, probe, fanout, probe_rng))
            )
    service.flush()
    return per_window, submit_s


class ServeWorkload:
    """Open loop on the simulated clock, replayed at full wall speed."""

    name = "serve_zipf"

    def inputs(self, seed: int, shape: Shape, windows: int):
        # The schedule's churn aims at the rig's own edges, which exist
        # only after set-up; ``measure`` generates it from the same seed.
        return (seed, windows)

    def setup(self, inp, shape: Shape, work_dir: str) -> ServeState:
        seed, _ = inp
        rig = build_serving_rig(
            num_shards=NUM_SHARDS,
            num_sources=shape.serve_sources,
            degree=shape.serve_degree,
            fanouts=shape.serve_fanouts,
            seed=seed,
        )
        return ServeState(rig, seed)

    def teardown(self, state: ServeState) -> None:
        pass

    def measure(self, state: ServeState, inp, shape: Shape, out: Outcome):
        seed, windows = inp
        rig = state.rig
        state.graph = graph_of(
            read_adjacency(rig.cluster.client), shape.serve_sources
        )
        schedule = serve_windows(seed, shape, windows, state.graph)
        per_window, submit_s = drive_service(
            rig, schedule, out, state,
            probe_rows=shape.probe_rows, fanout=shape.serve_fanouts[0],
        )
        rate = [r for r, _, _ in per_window]
        flush_s = [dt for _, _, mine in per_window for dt in mine]
        out.named["serve_requests_per_s"] = (median(rate), len(rate))
        out.named["serve_flush_ms_p50"] = (_p(flush_s, 50) * 1e3, len(flush_s))
        out.named["bytes_per_edge"] = (bytes_per_edge(rig.cluster), 1)
        out.gated["throughput_per_s"] = median(
            r / speed for r, speed, _ in per_window
        )
        out.gated["latency_ms_p50"] = 1e3 * _p(
            [dt * speed for _, speed, mine in per_window for dt in mine], 50
        )
        out.timings["serving.service.flush_ms_p99"] = _p(flush_s, 99) * 1e3
        out.timings["serving.service.submit_us_p50"] = _p(submit_s, 50) * 1e6

    def extras(self, state: ServeState, inp, shape: Shape, seed: int):
        """The capacity sweep: the same rig at batch ~1 (250 req/s) and at shedding load
        (4000 req/s): median wall ms per flush at each offered rate."""
        result = {}
        for rate, tag in ((250.0, 7), (4000.0, 8)):
            count = int(shape.sweep_requests * max(1.0, rate / 1000.0))
            schedule = serve_windows(
                state.seed, shape, 1, state.graph, rate=rate,
                requests=count, churn=False, tag=tag,
            )
            per_window, _ = drive_service(state.rig, schedule, None)
            flush_s = [dt for _, _, mine in per_window for dt in mine]
            result[f"serving.service.flush_ms_p50.r{int(rate)}"] = (
                _p(flush_s, 50) * 1e3
            )
        return result

    def verify(self, state: ServeState, inp, shape: Shape, out: Outcome):
        stats = state.rig.service.stats
        out.check(
            stats.submitted
            == stats.answered_fresh + stats.answered_degraded + stats.failed,
            "submitted != fresh + degraded + failed",
        )
        out_dim = None
        bad = 0
        for handle in state.handles:
            a = handle.answer
            good = (
                a is not None
                and a.status == "fresh"
                and a.shed_cause is None
                and a.completed_at <= handle.deadline
            )
            if good:
                emb = a.embeddings
                out_dim = emb.shape[1] if out_dim is None else out_dim
                good = (
                    emb.shape == (len(handle.vertices), out_dim)
                    and bool(np.isfinite(emb).all())
                    and bool(np.allclose((emb * emb).sum(axis=1), 1.0,
                                         atol=1e-3))
                )
                if good and handle.kind == "link":
                    good = abs(a.score - float(emb[0] @ emb[1])) < 1e-5
            bad += not good
        if bad:
            out.fail(bad, f"{bad} requests not answered fresh, in deadline "
                          f"and well-formed")
        ref = RefGraph(state.graph)
        for (srcs, rows), applied in zip(state.probes, state.churned):
            for b in applied:
                ref.apply(b)
            out.attempted += len(srcs)
            wrong = ref.bad_rows(srcs, rows)
            if wrong:
                out.fail(wrong, f"{wrong} probe rows drew a non-neighbour")
        check_graph(out, state.rig.cluster.client, ref, "after churn")


WORKLOADS = {
    "train_frozen": TrainWorkload(churn=False),
    "train_churn": TrainWorkload(churn=True),
    "ingest_churn": IngestWorkload(),
    "serve_zipf": ServeWorkload(),
}
