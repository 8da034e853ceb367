"""Live shard rebalancing: moving hot sources between graph servers.

Hash-by-source placement balances *counts* but not *load*: power-law
graphs put multi-million-edge hub vertices on arbitrary shards, and one
hub can dominate a server's memory and sampling traffic.  Production
deployments therefore run a rebalancer: measure per-shard load, pick
source vertices to migrate, move their adjacencies, and record the
overrides in a routing table consulted before the hash.

This module implements that loop online for the in-process cluster:

* :func:`plan_rebalance` — a greedy planner that relocates the heaviest
  sources from overloaded shards to underloaded ones until every shard
  is within ``tolerance`` of the mean (or no single move helps).  Load
  is measured either in **edges** (memory balance — per-source degrees)
  or in **traffic** (serving balance): traffic mode consumes the same
  per-shard ``repro_server_sample_requests`` series the obs report's
  skew table renders, and ranks per-source candidates by the cluster's
  decayed :class:`~repro.distributed.hotset.HotSetTracker` counts — no
  shard re-scan on the planning path;
* :func:`execute_plan` — migrates each planned source's adjacency
  through the **columnar EdgeBatch write path** (WAL-covered,
  replica-group coherent) with an **epoch-coherent cutover**: the copy
  is re-read while the source keeps serving writes, the samtree version
  is compared before/after, and the override is installed only once a
  copy round observed no concurrent mutation — so no write is lost and
  the migrated adjacency (hence the sampled distribution) is exactly
  the reference;
* :class:`OverridePartitioner` — a partitioner wrapper the client uses,
  so reads/writes/samples route to the new owner transparently; it is
  picklable (RPC-shippable) and vectorizes ``shards_for_array`` with a
  sorted override patch over the base partitioner's hash pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.ingest import OP_DELETE
from repro.core.types import DEFAULT_ETYPE
from repro.distributed.cluster import LocalCluster, read_adjacency
from repro.distributed.partition import Partitioner
from repro.errors import ConfigurationError, PartitionError
from repro.obs.telemetry import Stats

__all__ = [
    "Move",
    "MigrationStats",
    "OverridePartitioner",
    "plan_rebalance",
    "execute_plan",
]


@dataclass(frozen=True)
class Move:
    """One planned source migration."""

    src: int
    from_shard: int
    to_shard: int
    load: int  # edges (by="edges") or decayed read count (by="traffic")


@dataclass
class MigrationStats(Stats):
    """Outcome counters of one :func:`execute_plan` run."""

    moves: int = 0
    edges_moved: int = 0
    recopies: int = 0
    skipped: int = 0


class OverridePartitioner(Partitioner):
    """A partitioner with an explicit per-source override table.

    Plain attributes only (base partitioner + a dict), so it pickles
    through any RPC/checkpoint path unchanged.
    """

    def __init__(self, base: Partitioner) -> None:
        super().__init__(base.num_shards)
        self.base = base
        self.overrides: Dict[int, int] = {}

    def shard_for(self, src: int) -> int:
        override = self.overrides.get(int(src))
        if override is not None:
            return override
        return self.base.shard_for(src)

    def shards_for_array(self, srcs) -> np.ndarray:
        """Vectorized routing: one base hash pass, then a sorted-key
        patch for the (few) overridden sources."""
        out = self.base.shards_for_array(srcs)
        if self.overrides:
            keys = np.fromiter(
                self.overrides.keys(), dtype=np.int64, count=len(self.overrides)
            )
            vals = np.fromiter(
                self.overrides.values(), dtype=np.int64,
                count=len(self.overrides),
            )
            order = np.argsort(keys)
            keys, vals = keys[order], vals[order]
            flat = np.asarray(srcs, dtype=np.int64).ravel()
            idx = np.searchsorted(keys, flat)
            idx_clipped = np.minimum(idx, keys.size - 1)
            hit = keys[idx_clipped] == flat
            out[hit] = vals[idx_clipped[hit]]
        return out

    def add_override(self, src: int, shard: int) -> None:
        """Route ``src`` to ``shard`` regardless of the base hash.

        Overriding a source to its base shard is legal and normalised
        away (the table stays minimal, so pickled routing state never
        carries no-op entries).
        """
        if not 0 <= shard < self.num_shards:
            raise PartitionError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        src = int(src)
        if self.base.shard_for(src) == shard:
            self.overrides.pop(src, None)
        else:
            self.overrides[src] = shard


# ---------------------------------------------------------------------------
# load measurement
# ---------------------------------------------------------------------------
def _shard_loads(cluster: LocalCluster, by: str) -> List[int]:
    """Per-shard load: the primary's edge count, or sampling traffic —
    the ``sample_sources`` *row volume* (RPC counts would hide skew: the
    client ships one batched message per shard per window regardless of
    how many rows it carries), summed over each shard's replicas."""
    if by == "edges":
        return [server.store.num_edges for server in cluster.servers]
    return [
        sum(server.stats.sample_sources for server in group)
        for group in cluster.replica_groups
    ]


def _source_loads(
    cluster: LocalCluster, shard: int, by: str
) -> List[Tuple[int, int]]:
    """(load, src) pairs of move candidates on one shard, heaviest first.

    ``by="traffic"`` reads the decayed counts of the cluster's
    :class:`HotSetTracker` — only tracked (i.e. recently hot) sources
    are candidates, and **no shard re-scan happens at all**.
    ``by="edges"`` keeps the degree-walk semantics (memory balance needs
    every source's size, which no traffic sketch carries).
    """
    partitioner = cluster.client.partitioner
    if by == "traffic":
        tracker = cluster.hot_tracker
        out = [
            (int(entry.count), int(entry.src))
            for entry in tracker.top(len(tracker))
            if partitioner.shard_for(entry.src) == shard
        ]
        out.sort(reverse=True)
        return out
    server = cluster.servers[shard]
    loads: Dict[int, int] = {}
    etypes = getattr(server.store, "etypes", lambda: [DEFAULT_ETYPE])()
    for etype in etypes:
        for src in server.store.sources(etype):
            loads[src] = loads.get(src, 0) + server.store.degree(src, etype)
    out = [(load, src) for src, load in loads.items()]
    out.sort(reverse=True)
    return out


def plan_rebalance(
    cluster: LocalCluster,
    tolerance: float = 0.1,
    max_moves: int = 64,
    by: str = "auto",
) -> List[Move]:
    """Greedy plan bringing every shard within ``tolerance`` of the mean.

    Repeatedly takes the heaviest candidate on the most loaded shard and
    assigns it to the least loaded shard, while the move reduces the
    spread; sources whose load exceeds the imbalance are skipped in
    favour of smaller ones.  ``by`` selects the load dimension:
    ``"edges"`` (memory), ``"traffic"`` (serving; requires the obs
    registry plus a :class:`HotSetTracker` for per-source ranking), or
    ``"auto"`` — traffic when a tracker with observations exists,
    edges otherwise.  Sources currently in the hot-replica directory
    are never planned (they are already load-spread across copies).
    """
    if not 0.0 < tolerance < 1.0:
        raise ConfigurationError(
            f"tolerance must be in (0, 1), got {tolerance}"
        )
    if max_moves < 0:
        raise ConfigurationError(f"max_moves must be >= 0, got {max_moves}")
    if by not in ("auto", "edges", "traffic"):
        raise ConfigurationError(
            f"by must be 'auto', 'edges', or 'traffic', got {by!r}"
        )
    if by == "auto":
        tracker = cluster.hot_tracker
        by = (
            "traffic"
            if tracker is not None and tracker.stats.observations > 0
            else "edges"
        )
    if by == "traffic" and cluster.hot_tracker is None:
        raise ConfigurationError(
            "by='traffic' requires a cluster with hot_set_capacity > 0"
        )
    loads = _shard_loads(cluster, by)
    total = sum(loads)
    if total == 0:
        return []
    mean = total / len(loads)
    band = tolerance * mean
    replicated = {src for src, _ in cluster.client.hot_replicas.items()}
    # Per-shard candidate lists, fetched lazily.
    candidates: Dict[int, List[Tuple[int, int]]] = {}
    moves: List[Move] = []
    moved: set = set()
    while len(moves) < max_moves:
        hot = max(range(len(loads)), key=lambda i: loads[i])
        cold = min(range(len(loads)), key=lambda i: loads[i])
        gap = loads[hot] - loads[cold]
        if loads[hot] <= mean + band and loads[cold] >= mean - band:
            break
        if hot not in candidates:
            candidates[hot] = _source_loads(cluster, hot, by)
        # Largest source that still shrinks the gap (moving more than the
        # gap would just swap the roles of the two shards).
        pick = None
        for load, src in candidates[hot]:
            if src in moved or src in replicated:
                continue
            if 0 < load < gap:
                pick = (load, src)
                break
        if pick is None:
            break
        load, src = pick
        moved.add(src)
        moves.append(Move(src=src, from_shard=hot, to_shard=cold, load=load))
        loads[hot] -= load
        loads[cold] += load
    return moves


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
def _tree_versions(store, src: int) -> Optional[Dict[int, int]]:
    """Per-etype samtree versions of one source (``None`` when the store
    has no version API — baseline stores recopy unconditionally once)."""
    tree_fn = getattr(store, "tree", None)
    if tree_fn is None:
        return None
    etypes = getattr(store, "etypes", lambda: [DEFAULT_ETYPE])()
    versions: Dict[int, int] = {}
    for etype in etypes:
        tree = tree_fn(src, etype)
        if tree is not None:
            versions[etype] = tree.version
    return versions


def execute_plan(
    cluster: LocalCluster,
    moves: List[Move],
    partitioner: Optional[OverridePartitioner] = None,
    verify: bool = True,
    before_cutover: Optional[Callable[[Move], None]] = None,
    max_recopy: int = 8,
    stats: Optional[MigrationStats] = None,
) -> OverridePartitioner:
    """Migrate each planned source online and install routing overrides.

    Per move, the epoch-coherent cutover protocol:

    1. **Copy** — read the source's full adjacency off the current owner
       and ship it to the target through the columnar
       :class:`EdgeBatch` ingest path (WAL append-before-apply on every
       target replica), noting the source samtrees' versions first;
    2. **Converge** — run the optional ``before_cutover`` hook (tests
       inject concurrent churn here), then re-read the versions: if any
       tree mutated since the copy, retract the target copy and recopy
       (bounded by ``max_recopy``) — writes during the copy window are
       therefore never lost;
    3. **Verify** — with ``verify=True``, assert the target adjacency
       equals the source's byte-for-byte (equal adjacency + equal
       weights ⇒ the sampled distribution is identical, which the
       chi-square tests pin end-to-end);
    4. **Cutover** — install the override (atomic w.r.t. this thread:
       nothing runs between the coherence check and the override), so
       subsequent reads *and writes* route to the new owner;
    5. **Retract** — delete the adjacency from the old owner through the
       same columnar path.

    Returns the :class:`OverridePartitioner` (created around the
    cluster's partitioner when not supplied) after swapping it into the
    cluster's client **before** the first move, so every cutover takes
    effect the moment its override lands.
    """
    if max_recopy < 1:
        raise ConfigurationError(
            f"max_recopy must be >= 1, got {max_recopy}"
        )
    if partitioner is None:
        if isinstance(cluster.partitioner, OverridePartitioner):
            partitioner = cluster.partitioner
        else:
            partitioner = OverridePartitioner(cluster.partitioner)
    # Online cutover: routing must follow each override immediately.
    cluster.partitioner = partitioner
    cluster.client.partitioner = partitioner
    if stats is None:
        stats = MigrationStats()
    for move in moves:
        if move.from_shard == move.to_shard:
            partitioner.add_override(move.src, move.to_shard)
            stats.skipped += 1
            continue
        source_store = cluster.client._live_store(move.from_shard)
        target_store = cluster.client._live_store(move.to_shard)
        copied: Optional[Dict[int, List[Tuple[int, float]]]] = None
        for attempt in range(max_recopy):
            versions = _tree_versions(source_store, move.src)
            adjacency = read_adjacency(source_store, move.src)
            if copied is not None:
                # A previous round raced a concurrent write: retract it
                # before recopying (idempotent delete).
                cluster.ship_adjacency(
                    move.to_shard, move.src, copied, op=OP_DELETE
                )
                stats.recopies += 1
            rows = cluster.ship_adjacency(move.to_shard, move.src, adjacency)
            copied = adjacency
            if before_cutover is not None and attempt == 0:
                before_cutover(move)
            if versions is None:
                # No version API: one extra read confirms quiescence.
                if read_adjacency(source_store, move.src) == adjacency:
                    break
            elif _tree_versions(source_store, move.src) == versions:
                break
        else:
            raise ConfigurationError(
                f"source {move.src} mutated through {max_recopy} copy "
                f"rounds; rebalance it during a quieter window"
            )
        if verify:
            migrated = read_adjacency(target_store, move.src)
            reference = read_adjacency(source_store, move.src)
            for etype, edges in reference.items():
                if sorted(migrated.get(etype, [])) != sorted(edges):
                    raise ConfigurationError(
                        f"migration of source {move.src} diverged on "
                        f"etype {etype}: target adjacency != reference"
                    )
        # Cutover: atomic w.r.t. this thread — no mutation can interleave
        # between the coherence check above and this override.
        partitioner.add_override(move.src, move.to_shard)
        stats.moves += 1
        stats.edges_moved += rows
        cluster.telemetry.event(
            "migration",
            "cutover",
            src=move.src,
            from_shard=move.from_shard,
            to_shard=move.to_shard,
            edges=rows,
        )
        # Retract the old owner's copy (new traffic already routes away).
        cluster.ship_adjacency(move.from_shard, move.src, copied, op=OP_DELETE)
    return partitioner
