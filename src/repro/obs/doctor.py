"""Samtree doctor: structural health + memory breakdown (DESIGN.md §12).

The paper's structural claims — leaves stay within the ``[c/2 - α, c]``
occupancy band, α-Split pivots land near the median (Theorem 1), trees
stay shallow (``H = O(log_c n)``), and the samtree layout undercuts
key-value stores byte-for-byte (Table IV) — are *invariants of a running
deployment*, not one-shot build facts.  Under churn they can silently
rot: merges can thrash, a degenerate pivot distribution can skew leaves,
snapshot caches can balloon.  The doctor makes those properties
observable:

* :func:`diagnose` walks a :class:`~repro.core.topology.DynamicGraphStore`
  (or every live primary of a
  :class:`~repro.distributed.cluster.LocalCluster`) and produces a
  :class:`DoctorReport` — a slab row counts as the depth-1 one-leaf tree
  it stands for, with fill ``length / c`` — depth histogram, leaf
  fill-factor histogram
  (root leaves tracked separately from non-root leaves, whose occupancy
  the paper actually bounds), FSTable/CSTable node counts, mean internal
  fan-out, split/merge/rebuild counters, and the α-Split pivot-imbalance
  readout accumulated by :class:`~repro.core.samtree.OpStats`;
* the report carries a byte breakdown (under the fixed layout of
  :mod:`repro.core.memory`) by component (``leaf_nodes`` / ``fstables`` /
  ``internal_nodes`` / ``cstables`` / ``directory`` /
  ``snapshot_cache``, plus ``wal`` at cluster level)
  whose sum **equals** the store's ``nbytes()`` by construction — the
  invariant ``tests/test_doctor.py`` pins under bulk build, churn, and
  crash/recovery;
* :func:`check_thresholds` turns a report into a pass/fail health gate
  (``repro doctor --fail-on fill=0.4,depth=4``), and
  :meth:`DoctorReport.to_registry` derives one ``repro_doctor_*`` gauge
  per numeric field of :meth:`DoctorReport.to_dict`, so the same readout
  ships through the Prometheus exposition.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.memory import humanize_bytes
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry

__all__ = [
    "DoctorReport",
    "FILL_BINS",
    "check_thresholds",
    "diagnose",
    "diagnose_cluster",
    "diagnose_store",
    "parse_fail_on",
]

#: Leaf fill-factor histogram resolution: bin ``i`` covers
#: ``(i/FILL_BINS, (i+1)/FILL_BINS]`` (empty leaves land in bin 0).
FILL_BINS = 10


class _FillStats:
    """Streaming min/mean/max + fixed-bin histogram over ``[0, 1]``."""

    __slots__ = ("count", "sum", "min", "max", "bins")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0
        self.bins = [0] * FILL_BINS

    def add(self, fill: float, times: int = 1) -> None:
        if self.count == 0 or fill < self.min:
            self.min = fill
        if fill > self.max:
            self.max = fill
        self.count += times
        self.sum += fill * times
        if fill <= 0.0:
            idx = 0
        else:
            # fill in (i/FILL_BINS, (i+1)/FILL_BINS] -> bin i
            idx = min(FILL_BINS - 1, int((fill * FILL_BINS) - 1e-9))
        self.bins[idx] += times

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "bins": list(self.bins),
        }


class DoctorReport:
    """Aggregate structural-health readout of one store or cluster.

    The byte ``components`` dict is an exact partition:
    ``total_bytes == sum(components.values())`` and, for a single store,
    ``total_bytes == store.nbytes()`` (plus WAL bytes at cluster
    level) — both equalities are pinned by ``tests/test_doctor.py``.
    """

    def __init__(self, scope: str, capacity: int) -> None:
        self.scope = scope  #: ``"store"`` or ``"cluster"``
        self.capacity = capacity
        self.num_trees = 0
        self.num_edges = 0
        self.num_leaves = 0  #: == number of FSTables
        self.num_internal = 0  #: == number of CSTables
        self.depth_hist: Dict[int, int] = {}
        self.fill = _FillStats()  #: every leaf
        self.fill_nonroot = _FillStats()  #: leaves of multi-node trees
        self.fanout_sum = 0
        #: Structural-update counters (summed ``OpStats``).
        self.counters: Dict[str, float] = {
            "leaf_ops": 0,
            "internal_ops": 0,
            "leaf_splits": 0,
            "internal_splits": 0,
            "merges": 0,
            "split_imbalance_sum": 0.0,
            "trees_rebuilt": 0,
            "trees_incremental": 0,
            "trees_created": 0,
        }
        self.directory_entries = 0
        self.directory_load_factor = 0.0
        #: Sources held as slab rows and as promoted samtrees, and the
        #: slab's arena slots handed out / left behind by relocated or
        #: released rows (compacted past a fixed share, as the image's).
        self.slab_rows = 0
        self.promoted = 0
        self.slab_slots = 0
        self.slab_garbage = 0
        #: Read-image occupancy (:meth:`ReadImage.occupancy`, summed over
        #: shards): row slots held, the clean ones (``entries``), the
        #: clean ones with an alias table, the ones a frozen relation
        #: pins, the arena slots clean rows own and the ones none does.
        self.cache_rows = 0
        self.cache_entries = 0
        self.cache_aliased = 0
        self.cache_pinned = 0
        self.cache_edges = 0
        self.cache_garbage = 0
        self.cache_hit_rate = 0.0  #: worst single-shard rate (health signal)
        #: Raw snapshot-cache counters summed over shards — the exact
        #: aggregate rates the per-shard worst-rate above can't give.
        self.cache_hits = 0
        self.cache_misses = 0
        #: Clean read-image rows that are not their tree's current
        #: flatten: a tree was mutated behind the store's entry points.
        self.cache_stale_rows = 0
        #: Frontier rows of frozen relations drawn by the alias kernel,
        #: and drawn by binary search instead because they were written
        #: after ``freeze()`` (summed ``FrozenStats``).
        self.alias_served = 0
        self.alias_missed = 0
        #: Cluster-scope serving readout: the client's ``ServingStats``
        #: dict (batches, coalesce rate, ...) — ``None`` at store scope.
        self.serving: Optional[Dict[str, object]] = None
        #: Online inference tier readout (``ServiceStats.to_dict`` of the
        #: cluster's attached ``InferenceService``) — ``None`` when no
        #: service is attached or at store scope.
        self.inference: Optional[Dict[str, float]] = None
        self.components: Dict[str, int] = {}
        self.num_shards_seen = 0  #: live primaries walked (cluster scope)

    # ------------------------------------------------------------------
    # derived readouts
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Exact sum of the per-component breakdown."""
        return sum(self.components.values())

    @property
    def max_depth(self) -> int:
        return max(self.depth_hist) if self.depth_hist else 0

    @property
    def mean_depth(self) -> float:
        if not self.num_trees:
            return 0.0
        return (
            sum(d * n for d, n in self.depth_hist.items()) / self.num_trees
        )

    @property
    def mean_fanout(self) -> float:
        """Mean children per internal node."""
        if not self.num_internal:
            return 0.0
        return self.fanout_sum / self.num_internal

    @property
    def mean_split_imbalance(self) -> float:
        """Mean α-Split pivot imbalance over every recorded leaf split."""
        splits = self.counters["leaf_splits"]
        if not splits:
            return 0.0
        return self.counters["split_imbalance_sum"] / splits

    @property
    def cache_hit_rate_aggregate(self) -> float:
        """Exact hit rate over every shard's raw counters."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def alias_share(self) -> float:
        """Fraction of the frontier rows of frozen relations that the
        alias kernel drew (the rest were written since ``freeze()``)."""
        total = self.alias_served + self.alias_missed
        return self.alias_served / total if total else 0.0

    @property
    def slab_garbage_share(self) -> float:
        """Share of the slab's arena slots no live row owns."""
        return self.slab_garbage / self.slab_slots if self.slab_slots else 0.0

    @property
    def check_fill(self) -> float:
        """The fill figure the ``fill=`` threshold gates on: mean
        *non-root* leaf fill when any exist (the occupancy band the
        paper bounds), else mean fill over all leaves."""
        if self.fill_nonroot.count:
            return self.fill_nonroot.mean
        return self.fill.mean

    # ------------------------------------------------------------------
    # ingestion (one tree at a time)
    # ------------------------------------------------------------------
    def observe_tree(self, tree) -> None:
        """Fold one samtree's structure into the aggregate."""
        self.num_trees += 1
        self.num_edges += tree.degree
        cap = tree.config.capacity
        height = tree.height
        self.depth_hist[height] = self.depth_hist.get(height, 0) + 1
        multi_node = height > 1
        for node, _depth in tree.iter_nodes():
            if node.is_leaf:
                self.num_leaves += 1
                fill = node.size / cap
                self.fill.add(fill)
                if multi_node:
                    self.fill_nonroot.add(fill)
            else:
                self.num_internal += 1
                self.fanout_sum += node.size

    def observe_slab(self, slab) -> None:
        """Fold the slab's rows in, each as the depth-1 one-leaf tree it
        stands for (fill ``length / c``), from its columns in one pass."""
        lengths = slab.length[slab.live_rows()].tolist()
        for length, rows in sorted(Counter(lengths).items()):
            self.num_edges += length * rows
            self.fill.add(length / slab.capacity, rows)
        if lengths:
            self.depth_hist[1] = self.depth_hist.get(1, 0) + len(lengths)
        self.num_trees += len(lengths)
        self.num_leaves += len(lengths)
        self.slab_rows += len(lengths)
        self.slab_slots += slab.used
        self.slab_garbage += slab.garbage

    def observe_counters(self, op_stats, ingest_stats) -> None:
        """Fold structural-update counters (``OpStats`` +
        ``IngestStats``) into the aggregate."""
        c = self.counters
        c["leaf_ops"] += op_stats.leaf_ops
        c["internal_ops"] += op_stats.internal_ops
        c["leaf_splits"] += op_stats.leaf_splits
        c["internal_splits"] += op_stats.internal_splits
        c["merges"] += op_stats.merges
        c["split_imbalance_sum"] += op_stats.split_imbalance_sum
        c["trees_rebuilt"] += ingest_stats.trees_rebuilt
        c["trees_incremental"] += ingest_stats.trees_incremental
        c["trees_created"] += ingest_stats.trees_created

    def add_components(self, parts: Dict[str, int]) -> None:
        for name, nbytes in parts.items():
            self.components[name] = self.components.get(name, 0) + nbytes

    # ------------------------------------------------------------------
    # export: dict / human / registry
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (``repro doctor --format json``)."""
        return {
            "scope": self.scope,
            "capacity": self.capacity,
            "num_trees": self.num_trees,
            "num_edges": self.num_edges,
            "num_leaves": self.num_leaves,
            "num_internal": self.num_internal,
            "num_fstables": self.num_leaves,
            "num_cstables": self.num_internal,
            "num_shards_seen": self.num_shards_seen,
            "depth": {
                "histogram": {
                    str(d): n for d, n in sorted(self.depth_hist.items())
                },
                "max": self.max_depth,
                "mean": self.mean_depth,
            },
            "fill": self.fill.to_dict(),
            "fill_nonroot": self.fill_nonroot.to_dict(),
            "mean_fanout": self.mean_fanout,
            "counters": dict(self.counters),
            "mean_split_imbalance": self.mean_split_imbalance,
            "directory": {
                "entries": self.directory_entries,
                "load_factor": self.directory_load_factor,
            },
            "slab": {
                "rows": self.slab_rows,
                "promoted": self.promoted,
                "slots": self.slab_slots,
                "garbage": self.slab_garbage,
                "garbage_share": self.slab_garbage_share,
            },
            "snapshot_cache": {
                "rows": self.cache_rows,
                "entries": self.cache_entries,
                "aliased": self.cache_aliased,
                "pinned": self.cache_pinned,
                "edges": self.cache_edges,
                "garbage": self.cache_garbage,
                "hit_rate": self.cache_hit_rate,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate_aggregate": self.cache_hit_rate_aggregate,
                "stale_rows": self.cache_stale_rows,
                "alias_served": self.alias_served,
                "alias_missed": self.alias_missed,
                "alias_share": self.alias_share,
            },
            "serving": self.serving,
            "inference": self.inference,
            "memory": {
                "components": dict(sorted(self.components.items())),
                "total_bytes": self.total_bytes,
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human health report (the default ``repro doctor`` output)."""
        lines: List[str] = []
        lines.append(f"samtree doctor — scope={self.scope}")
        lines.append(
            f"  trees={self.num_trees}  edges={self.num_edges}  "
            f"capacity c={self.capacity}"
        )
        lines.append(
            f"  nodes: {self.num_leaves} leaves (FSTables) + "
            f"{self.num_internal} internal (CSTables)"
        )
        depth_parts = "  ".join(
            f"H={d}:{n}" for d, n in sorted(self.depth_hist.items())
        )
        lines.append(
            f"  depth: max={self.max_depth} mean={self.mean_depth:.2f}  "
            f"[{depth_parts}]"
        )
        for label, fs in (
            ("fill (all leaves)", self.fill),
            ("fill (non-root) ", self.fill_nonroot),
        ):
            if fs.count:
                lines.append(
                    f"  {label}: mean={fs.mean:.3f} "
                    f"min={fs.min:.3f} max={fs.max:.3f} n={fs.count}"
                )
            else:
                lines.append(f"  {label}: (none)")
        if self.fill.count:
            bars = []
            peak = max(self.fill.bins) or 1
            for i, n in enumerate(self.fill.bins):
                bar = "#" * max(1 if n else 0, round(8 * n / peak))
                bars.append(f"    ({i / FILL_BINS:.1f},"
                            f"{(i + 1) / FILL_BINS:.1f}] {n:>8} {bar}")
            lines.append("  fill histogram (all leaves):")
            lines.extend(bars)
        lines.append(f"  mean internal fan-out: {self.mean_fanout:.2f}")
        c = self.counters
        lines.append(
            "  updates: "
            f"leaf_ops={int(c['leaf_ops'])} "
            f"internal_ops={int(c['internal_ops'])} "
            f"leaf_splits={int(c['leaf_splits'])} "
            f"internal_splits={int(c['internal_splits'])} "
            f"merges={int(c['merges'])}"
        )
        lines.append(
            "  ingest: "
            f"rebuilt={int(c['trees_rebuilt'])} "
            f"incremental={int(c['trees_incremental'])} "
            f"created={int(c['trees_created'])}"
        )
        lines.append(
            f"  alpha-split pivot imbalance: "
            f"mean={self.mean_split_imbalance:.4f} "
            f"(0=perfect median, over {int(c['leaf_splits'])} splits)"
        )
        lines.append(
            f"  directory: entries={self.directory_entries} "
            f"load={self.directory_load_factor:.2f}"
        )
        lines.append(
            f"  slab: rows={self.slab_rows} promoted={self.promoted} "
            f"slots={self.slab_slots} garbage={self.slab_garbage} "
            f"({self.slab_garbage_share:.2f})"
        )
        lines.append(
            f"  read image: rows={self.cache_rows} "
            f"clean={self.cache_entries} aliased={self.cache_aliased} "
            f"pinned={self.cache_pinned} edges={self.cache_edges} "
            f"garbage={self.cache_garbage} "
            f"hit_rate={self.cache_hit_rate:.2f} "
            f"(aggregate={self.cache_hit_rate_aggregate:.2f}, "
            f"{self.cache_hits} hits / {self.cache_misses} misses, "
            f"stale_rows={self.cache_stale_rows})"
        )
        if self.alias_served or self.alias_missed:
            lines.append(
                f"    frozen relations: alias_share={self.alias_share:.2f} "
                f"({self.alias_served} rows by the alias kernel, "
                f"{self.alias_missed} written since freeze)"
            )
        if self.serving is not None:
            s = self.serving
            lines.append(
                "  serving: "
                f"batches={int(s.get('batches', 0))} "
                f"sources={int(s.get('sources', 0))} "
                f"coalesce_rate={float(s.get('coalesce_rate', 0.0)):.2f}"
            )
        if self.inference is not None:
            i = self.inference
            lines.append(
                "  inference tier: "
                f"submitted={int(i.get('submitted', 0))} "
                f"fresh={int(i.get('answered_fresh', 0))} "
                f"degraded={int(i.get('answered_degraded', 0))} "
                f"failed={int(i.get('failed', 0))} "
                f"shed={int(i.get('shed_total', 0))} "
                f"missed={int(i.get('deadline_missed', 0))} "
                f"availability={float(i.get('availability', 1.0)):.2%}"
            )
        lines.append("  memory breakdown:")
        total = self.total_bytes or 1
        for name, nbytes in sorted(
            self.components.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"    {name:<14} {humanize_bytes(nbytes):>10}  "
                f"{100.0 * nbytes / total:5.1f}%"
            )
        lines.append(
            f"    {'total':<14} {humanize_bytes(self.total_bytes):>10}"
        )
        return "\n".join(lines)

    def to_registry(self) -> MetricsRegistry:
        """:meth:`to_dict` as ``repro_doctor_*`` gauges, one per numeric
        leaf: the leaf at ``a.b.c`` is ``repro_doctor_a_b_c``.  A key that
        is not an identifier becomes a label instead — ``key`` for a dict
        key (a depth-histogram height), ``index`` for a list position.
        Strings and ``None`` are skipped.  The registry is a fresh one,
        so the point-in-time gauges never collide with a live cluster's.
        """
        reg = MetricsRegistry()

        def flatten(node, path: Tuple[str, ...], labels: Dict[str, object]):
            if isinstance(node, dict):
                label, items = "key", node.items()
            elif isinstance(node, list):
                label, items = "index", enumerate(node)
            else:
                if isinstance(node, (int, float)):
                    reg.gauge(
                        "_".join(("repro_doctor",) + path),
                        f"doctor readout {'.'.join(path)}",
                        **labels,
                    ).set(node)
                return
            for key, child in items:
                if isinstance(key, str) and key.isidentifier():
                    flatten(child, path + (key,), labels)
                else:
                    flatten(child, path, {**labels, label: key})

        flatten(self.to_dict(), (), {})
        return reg


# ---------------------------------------------------------------------------
# diagnosis entry points
# ---------------------------------------------------------------------------
def _samtree_store(store):
    """``store``, when it is the samtree store the doctor walks; a
    baseline store has no samtrees, slab or read image, and is refused
    the way :meth:`GraphServer.checkpoint` refuses it."""
    from repro.core.topology import DynamicGraphStore  # core imports obs

    if not isinstance(store, DynamicGraphStore):
        raise ConfigurationError(
            f"the doctor walks the samtree-backed DynamicGraphStore; "
            f"a {type(store).__name__} has no samtrees to diagnose"
        )
    return store


def _observe_store(report: DoctorReport, store) -> None:
    slab = store.slab
    for tree in store.directory.trees.values():
        report.observe_tree(tree)
        report.promoted += 1
    report.observe_slab(slab)
    report.observe_counters(store.stats, store.ingest_stats)
    directory = store.directory
    report.directory_entries += len(directory)
    # Cluster scope keeps the *max* shard load factor (skew indicator);
    # a single store just reports its own.
    report.directory_load_factor = max(
        report.directory_load_factor, directory.load_factor
    )
    cache = store.snapshot_cache
    for name, count in cache.occupancy().items():
        name = f"cache_{name}"
        setattr(report, name, getattr(report, name) + count)
    # Worst (lowest) single-shard rate is the health signal; the raw
    # counters below give the exact aggregate alongside it.
    rate = cache.stats.hit_rate
    if report.num_shards_seen <= 1:
        report.cache_hit_rate = rate
    else:
        report.cache_hit_rate = min(report.cache_hit_rate, rate)
    report.cache_hits += cache.stats.hits
    report.cache_misses += cache.stats.misses
    report.cache_stale_rows += len(cache.stale_rows(directory, slab))
    report.alias_served += store.frozen_stats.vertices
    report.alias_missed += store.frozen_stats.stale_misses
    report.add_components(store.nbytes_breakdown())


def diagnose_store(store) -> DoctorReport:
    """Walk one :class:`DynamicGraphStore` into a :class:`DoctorReport`.

    ``report.total_bytes == store.nbytes()`` exactly — both sides
    are the same component sum.  A baseline store raises
    :class:`~repro.errors.ConfigurationError`.
    """
    report = DoctorReport("store", _samtree_store(store).config.capacity)
    report.num_shards_seen = 1
    _observe_store(report, store)
    return report


def diagnose_cluster(cluster) -> DoctorReport:
    """Walk every live *primary* replica of a ``LocalCluster``.

    Matches :meth:`LocalCluster.total_nbytes` semantics (primaries only,
    comparable across replication factors); adds a ``wal`` byte
    component on top of the store breakdown, so
    ``total_bytes == cluster.total_nbytes() + Σ wal bytes`` on a
    fully-live cluster.  A cluster of baseline stores raises
    :class:`~repro.errors.ConfigurationError`.
    """
    live = [s for s in cluster.servers if s.alive and s.store is not None]
    stores = [_samtree_store(server.store) for server in live]
    report = DoctorReport("cluster", stores[0].config.capacity if stores else 0)
    wal_bytes = 0
    for server, store in zip(live, stores):
        report.num_shards_seen += 1
        _observe_store(report, store)
        if server.wal is not None:
            wal_bytes += server.wal.nbytes
    report.add_components({"wal": wal_bytes})
    serving = getattr(getattr(cluster, "client", None), "serving_stats", None)
    if serving is not None:
        report.serving = serving.to_dict()
    inference = getattr(cluster, "inference_service", None)
    if inference is not None:
        report.inference = inference.stats.to_dict()
    return report


def diagnose(target) -> DoctorReport:
    """Dispatch on the target's shape: store or cluster."""
    if hasattr(target, "iter_trees"):
        return diagnose_store(target)
    if hasattr(target, "replica_groups"):
        return diagnose_cluster(target)
    raise ConfigurationError(
        f"doctor cannot diagnose a {type(target).__name__}; expected a "
        f"DynamicGraphStore or LocalCluster"
    )


# ---------------------------------------------------------------------------
# threshold gate (``--fail-on``)
# ---------------------------------------------------------------------------
_BYTE_SUFFIXES = {
    "kb": 1 << 10,
    "mb": 1 << 20,
    "gb": 1 << 30,
    "tb": 1 << 40,
    "b": 1,
}


def _parse_bytes(text: str) -> float:
    low = text.strip().lower()
    for suffix, mult in _BYTE_SUFFIXES.items():
        if low.endswith(suffix):
            return float(low[: -len(suffix)]) * mult
    return float(low)


def parse_fail_on(spec: str) -> List[Tuple[str, float]]:
    """Parse ``"fill=0.4,depth=4"`` into ``[(key, bound), ...]``.

    Known keys: ``fill`` (lower bound on mean non-root leaf fill),
    ``depth`` (upper bound on max height), ``imbalance`` (upper bound on
    mean α-Split pivot imbalance), ``bytes`` (upper bound on total
    modeled bytes; accepts ``64MB``-style suffixes).
    """
    checks: List[Tuple[str, float]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(
                f"--fail-on entries must be key=value, got {part!r}"
            )
        key, _, raw = part.partition("=")
        key = key.strip().lower()
        if key == "bytes":
            value = _parse_bytes(raw)
        else:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigurationError(
                    f"--fail-on {key} needs a number, got {raw!r}"
                )
        if key not in ("fill", "depth", "imbalance", "bytes"):
            raise ConfigurationError(
                f"unknown --fail-on key {key!r}; expected "
                f"fill|depth|imbalance|bytes"
            )
        checks.append((key, value))
    return checks


def check_thresholds(
    report: DoctorReport, checks: Iterable[Tuple[str, float]]
) -> List[str]:
    """Evaluate parsed ``--fail-on`` checks; return violation strings.

    Empty list == healthy.  ``fill`` is a *lower* bound (occupancy must
    not rot below it); the rest are upper bounds.
    """
    violations: List[str] = []
    for key, bound in checks:
        if key == "fill":
            actual = report.check_fill
            if actual < bound:
                violations.append(
                    f"fill: mean non-root leaf fill {actual:.3f} "
                    f"< bound {bound:.3f}"
                )
        elif key == "depth":
            actual = report.max_depth
            if actual > bound:
                violations.append(
                    f"depth: max tree height {actual} > bound {bound:g}"
                )
        elif key == "imbalance":
            actual = report.mean_split_imbalance
            if actual > bound:
                violations.append(
                    f"imbalance: mean split imbalance {actual:.4f} "
                    f"> bound {bound:.4f}"
                )
        elif key == "bytes":
            actual = report.total_bytes
            if actual > bound:
                violations.append(
                    f"bytes: total {humanize_bytes(actual)} "
                    f"> bound {humanize_bytes(bound)}"
                )
    return violations
