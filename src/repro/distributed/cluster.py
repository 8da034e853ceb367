"""LocalCluster: an in-process stand-in for the paper's 74-server rig.

Builds the partitioner, the graph servers, and a routing client in one
call; exposes per-shard statistics so benchmarks and examples can report
shard balance the way a production deployment dashboard would.

The fault-tolerant configuration adds, per shard:

* ``replication_factor=R`` — a replica group of R full servers
  (primary + R-1 backups); the client applies writes primary-backup and
  fails reads over to backups;
* ``durable=True`` — a per-replica write-ahead log
  (:class:`~repro.storage.wal.ShardWAL`) plus binary checkpoints, so a
  crashed replica recovers to exactly its pre-crash state;
* ``fault_policy`` — one seeded
  :class:`~repro.distributed.faults.FaultInjector` shared by every
  server, so a single seed reproduces the whole cluster's fault
  schedule;
* ``retry`` — the client-side :class:`~repro.distributed.retry.RetryPolicy`
  used by every read/write path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.ingest import OP_DELETE, OP_INSERT, EdgeBatch
from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.core.samtree import SamtreeConfig
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI
from repro.distributed.client import GraphClient
from repro.distributed.faults import FaultInjector, FaultPolicy
from repro.distributed.hotset import HotSetTracker
from repro.distributed.partition import HashBySourcePartitioner, Partitioner
from repro.distributed.retry import RetryPolicy
from repro.distributed.rpc import NetworkModel
from repro.distributed.server import GraphServer
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.storage.wal import ShardWAL

__all__ = ["LocalCluster", "ShardInfo"]


@dataclass(frozen=True)
class ShardInfo:
    """Snapshot of one shard's load (first live replica's view)."""

    shard_id: int
    num_sources: int
    num_edges: int
    nbytes: int
    live_replicas: int = 1


#: A topology store's ``*Stats`` holders: ``(metric prefix, attribute
#: path)``; a store without one (a baseline's) exports no such family.
_STORE_HOLDERS = (
    ("repro_samtree", ("stats",)),
    ("repro_snapshot_cache", ("snapshot_cache", "stats")),
    ("repro_ingest", ("ingest_stats",)),
    ("repro_frozen", ("frozen_stats",)),
)

# Read-outs no holder field carries, one table per owner
# (:meth:`LocalCluster._register_views`): ``(name, read(owner), help,
# kind)`` — the attached monitor's and flight recorder's own health, and
# the hot-set tracker's size.
_MONITOR_VIEWS = (
    ("repro_monitor_scrapes_total", lambda m: m.store.scrapes,
     "Registry scrapes taken by the attached monitor", "counter"),
    ("repro_monitor_resets_total", lambda m: m.store.resets_total,
     "Counter resets detected across scraped series", "counter"),
    ("repro_monitor_series", lambda m: m.store.num_series,
     "Series currently held by the time-series store", "gauge"),
    ("repro_monitor_points", lambda m: m.store.num_points,
     "Points across all series ring buffers", "gauge"),
    ("repro_alerts_evaluations_total", lambda m: m.alerts.evaluations,
     "Alert-rule evaluation passes", "counter"),
    ("repro_alerts_transitions_total", lambda m: m.alerts.transitions,
     "Alert lifecycle transitions recorded", "counter"),
    ("repro_alerts_pending", lambda m: len(m.alerts.pending()),
     "Alerts currently pending", "gauge"),
    ("repro_alerts_firing", lambda m: len(m.alerts.firing()),
     "Alerts currently firing", "gauge"),
)
_RECORDER_VIEWS = (
    ("repro_recorder_events_total", lambda r: r.events_total,
     "Events appended to the flight recorder's rings", "counter"),
    ("repro_recorder_dropped_total", lambda r: r.dropped_total,
     "Ring-evicted (overwritten) flight-recorder events", "counter"),
    ("repro_recorder_categories", lambda r: len(r.categories),
     "Event categories carried by the flight recorder", "gauge"),
)
_HOTSET_VIEWS = (
    ("repro_hotset_tracked", len,
     "Sources currently tracked by the hot-set sketch", "gauge"),
)


def _via(owner, *path):
    """A getter of ``owner.<path...>`` read afresh on every call:
    ``None`` as soon as a hop is missing (a crashed replica's store)."""

    def get():
        obj = owner
        for attr in path:
            obj = getattr(obj, attr, None)
        return obj

    return get


def read_adjacency(store, src: int) -> Dict[int, List[Tuple[int, float]]]:
    """One source's full adjacency off one store, per etype — what
    :meth:`LocalCluster.ship_adjacency` ships."""
    etypes = getattr(store, "etypes", lambda: [DEFAULT_ETYPE])()
    return {etype: store.neighbors(src, etype) for etype in list(etypes)}


class LocalCluster:
    """A fully wired single-process cluster.

    Parameters
    ----------
    num_servers:
        Shard count (the paper's storage tier uses 54 of 74 machines).
    config:
        Samtree parameters for the default PlatoD2GL store; ignored when
        ``store_factory`` is given.
    store_factory:
        Optional callable producing the per-shard topology store —
        passing ``PlatoGLStore`` or ``AliGraphStore`` runs the whole
        distributed stack over a baseline.
    network:
        Optional :class:`NetworkModel` accounting simulated traffic.
    replication_factor:
        Replicas per shard (1 = no replication).
    durable:
        Attach a write-ahead log to every replica (crash recovery via
        checkpoint + WAL-tail replay).
    wal_dir:
        Directory for file-backed WALs; ``None`` keeps logs in memory
        (the default for tests and simulations).
    fault_policy:
        Optional :class:`FaultPolicy`; when given, one seeded
        :class:`FaultInjector` is shared by every server.
    fault_seed:
        Seed of the shared fault injector.
    retry:
        Optional client-side :class:`RetryPolicy`.
    degraded_reads:
        Return per-source ``UNAVAILABLE`` markers instead of raising
        when every replica of a shard is down.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` for the cluster's
        :class:`~repro.obs.telemetry.Telemetry` hub, producing
        client→RPC→server span trees.
    hot_set_capacity:
        When > 0, attach a :class:`HotSetTracker` of that capacity to
        the client's batched read path (decayed SpaceSaving top-k of
        source read traffic) — the input of :meth:`replicate_hot` and
        the traffic-based rebalance planner.
    """

    def __init__(
        self,
        num_servers: int = 4,
        config: Optional[SamtreeConfig] = None,
        store_factory: Optional[Callable[[], GraphStoreAPI]] = None,
        network: Optional[NetworkModel] = None,
        partitioner: Optional[Partitioner] = None,
        replication_factor: int = 1,
        durable: bool = False,
        wal_dir: Optional[str] = None,
        fault_policy: Optional[FaultPolicy] = None,
        fault_seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        degraded_reads: bool = False,
        tracer=None,
        hot_set_capacity: int = 0,
    ) -> None:
        if num_servers < 1:
            raise ConfigurationError(
                f"num_servers must be >= 1, got {num_servers}"
            )
        if replication_factor < 1:
            raise ConfigurationError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if wal_dir is not None and not durable:
            raise ConfigurationError("wal_dir requires durable=True")
        self.partitioner = partitioner or HashBySourcePartitioner(num_servers)
        if self.partitioner.num_shards != num_servers:
            raise ConfigurationError(
                "partitioner shard count does not match num_servers"
            )
        self.replication_factor = replication_factor
        #: The cluster's one telemetry hub, shared by reference with
        #: every component wired below.
        self.telemetry = Telemetry(
            tracer=tracer,
            clock=network.now if network is not None else None,
        )
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(fault_policy, seed=fault_seed, network=network)
            if fault_policy is not None
            else None
        )
        self.retry = retry
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
        self.replica_groups: List[List[GraphServer]] = []
        for shard in range(num_servers):
            group: List[GraphServer] = []
            for r in range(replication_factor):
                store = store_factory() if store_factory is not None else None
                wal: Optional[ShardWAL] = None
                if durable:
                    path = (
                        os.path.join(wal_dir, f"shard{shard:04d}_r{r}.wal")
                        if wal_dir is not None
                        else None
                    )
                    wal = ShardWAL(path, shard_id=shard)
                group.append(
                    GraphServer(
                        shard,
                        store=store,
                        config=config,
                        wal=wal,
                        faults=self.fault_injector,
                        store_factory=store_factory,
                        replica_index=r,
                    )
                )
            self.replica_groups.append(group)
        self.servers: List[GraphServer] = [g[0] for g in self.replica_groups]
        self.network = network
        #: Decayed top-k read-frequency tracker (``hot_set_capacity=0``
        #: disables tracking — and with it ``replicate_hot``).
        self.hot_tracker: Optional[HotSetTracker] = (
            HotSetTracker(hot_set_capacity)
            if hot_set_capacity > 0
            else None
        )
        self.client = GraphClient(
            self.servers,
            self.partitioner,
            network,
            replica_groups=self.replica_groups,
            retry=retry,
            degraded_reads=degraded_reads,
            hot_tracker=self.hot_tracker,
        )
        for part in (
            self.fault_injector,
            retry,
            self.client,
            *(server for group in self.replica_groups for server in group),
        ):
            if part is not None:
                part.telemetry = self.telemetry
        self.hot_replicas = self.client.hot_replicas
        #: Every layer's stats holder as live ``repro_*`` series
        #: (DESIGN.md §11).
        self.registry = MetricsRegistry()
        #: Getters of the holders registered below; :meth:`reset_stats`
        #: zeroes exactly these.
        self._holders: List[Callable[[], object]] = []
        for prefix, holder, labels in self._holder_table():
            if self.registry.watch(prefix, holder, **labels):
                self._holders.append(holder)
        if self.hot_tracker is not None:
            self._register_views(_HOTSET_VIEWS, "hot_tracker")
        #: Continuous-monitoring loop over this cluster's registry
        #: (:meth:`attach_monitor`); ``None`` until attached.
        self.monitor = None

    def __len__(self) -> int:
        return len(self.servers)

    def _register_views(self, views, owner: str) -> None:
        """Register ``views`` once per registry, each reading through
        ``self.<owner>`` so a re-attach rebinds it to the new instance."""
        if self.registry.has(views[0][0]):
            return
        for name, read, help_text, kind in views:
            self.registry.register_view(
                name,
                lambda c=self, read=read: float(read(getattr(c, owner))),
                help=help_text,
                kind=kind,
            )

    def _holder_table(self):
        """``(prefix, getter, labels)`` of every ``*Stats`` holder:
        cluster-wide ones, then per replica, labelled ``{shard,
        replica}``, its server's, its WAL ledger and its store's — read
        through ``server.store``, so crash and recover need no case."""
        yield "repro_network", _via(self, "network", "stats"), {}
        yield "repro_faults", _via(self, "fault_injector", "stats"), {}
        yield "repro_retry", _via(self, "retry", "stats"), {}
        yield "repro_cache", _via(self, "client", "serving_stats"), {}
        yield "repro_hotset", _via(self, "hot_tracker", "stats"), {}
        for shard, group in enumerate(self.replica_groups):
            for r, server in enumerate(group):
                labels = {"shard": str(shard), "replica": str(r)}
                yield "repro_server", _via(server, "stats"), labels
                yield "repro_wal", _via(server, "wal"), labels
                for prefix, path in _STORE_HOLDERS:
                    yield prefix, _via(server, "store", *path), labels

    @property
    def tracer(self):
        """The hub's tracer (assignable; ``None`` = untraced)."""
        return self.telemetry.tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self.telemetry.tracer = tracer

    @property
    def recorder(self):
        """The hub's flight recorder (:meth:`attach_recorder`)."""
        return self.telemetry.recorder

    # ------------------------------------------------------------------
    # fault-tolerance control plane
    # ------------------------------------------------------------------
    def crash(self, shard: int, replica: int = 0) -> None:
        """Hard-crash one replica (volatile state lost)."""
        self.replica_groups[shard][replica].crash()

    def crash_shard(self, shard: int) -> None:
        """Crash *every* replica of a shard (total shard outage)."""
        for server in self.replica_groups[shard]:
            server.crash()

    def recover(self, shard: int, replica: int = 0, sync: bool = True) -> int:
        """Recover one replica; returns WAL records replayed.

        With ``sync=True`` and a live peer in the group, the replica
        rejoins via state transfer from that peer (it may have missed
        writes while down); otherwise it rebuilds from its own
        checkpoint + WAL tail.
        """
        target = self.replica_groups[shard][replica]
        peer: Optional[GraphServer] = None
        if sync:
            for candidate in self.replica_groups[shard]:
                if candidate is not target and candidate.alive:
                    peer = candidate
                    break
        return target.recover(sync_from=peer)

    def recover_all(self, sync: bool = True) -> int:
        """Recover every crashed replica; returns WAL records replayed."""
        return sum(
            self.recover(shard, r, sync=sync)
            for shard, r in self.dead_replicas()
        )

    def checkpoint_all(self) -> int:
        """Checkpoint every live replica; returns total image bytes."""
        total = 0
        for group in self.replica_groups:
            for server in group:
                if server.alive:
                    total += server.checkpoint()
        return total

    def freeze_all(self, etype: Optional[int] = None) -> int:
        """Freeze the read image of every live replica's store.

        One control-plane call after a bulk load (or between training
        epochs) gives every row an alias table, so each shard's
        batched-read RPC is one O(1)-per-draw kernel pass; returns the
        number of relations frozen (0 for stores without a read image).
        A later write thaws only its own row, and calling this again
        rebuilds only such rows — always safe after a write burst.
        """
        compiled = 0
        for group in self.replica_groups:
            for server in group:
                if server.alive:
                    compiled += server.freeze(etype)
        return compiled

    # ------------------------------------------------------------------
    # hot-vertex read replication (load, not fault-tolerance)
    # ------------------------------------------------------------------
    def replicate_hot(
        self,
        top_n: int = 8,
        copies: int = 1,
        min_count: int = 1,
    ) -> List[Tuple[int, List[int]]]:
        """Replicate the tracker's hottest sources to extra shards.

        For each of the ``top_n`` hottest tracked sources (with decayed
        count >= ``min_count``), copies its full adjacency to the
        ``copies`` least-sampled shards that do not already hold it —
        through the columnar ingest path via the client, so WALs and
        fault-tolerance replica groups stay consistent — then installs
        the source's read set in the hot-replica directory.  Reads
        rotate across the set from the next batch on; writes fan out to
        every copy (see :meth:`GraphClient._hot_write_extras`).

        Returns ``(src, read_set)`` pairs actually installed.  Requires
        ``hot_set_capacity > 0`` at construction.
        """
        if self.hot_tracker is None:
            raise ConfigurationError(
                "replicate_hot requires hot_set_capacity > 0"
            )
        if copies < 1:
            raise ConfigurationError(f"copies must be >= 1, got {copies}")
        num_shards = len(self.servers)
        if num_shards < 2:
            return []
        directory = self.client.hot_replicas
        installed: List[Tuple[int, List[int]]] = []
        # Projected per-shard load: seeded from measured sampling
        # traffic, then updated as each hot source's read set is placed —
        # otherwise every hot source would pick the SAME least-loaded
        # shards and simply mint new hot spots.
        projected = [
            float(server.stats.sample_sources) for server in self.servers
        ]
        for entry in self.hot_tracker.top(top_n):
            if entry.count < min_count:
                continue
            src = entry.src
            primary = self.partitioner.shard_for(src)
            current = directory.shards(src) or [primary]
            wanted = min(copies, num_shards - 1) - (len(current) - 1)
            if wanted <= 0:
                installed.append((src, list(current)))
                continue
            # Cheapest targets first: least projected sampling traffic.
            targets = sorted(
                (s for s in range(num_shards) if s not in current),
                key=lambda s: projected[s],
            )[:wanted]
            read_set = list(current)
            adjacency = read_adjacency(self.client._live_store(primary), src)
            for shard in targets:
                try:
                    if self.ship_adjacency(shard, src, adjacency):
                        read_set.append(shard)
                except Exception:
                    pass  # an unreachable target just gets no copy
            if len(read_set) > 1:
                directory.set_replicas(src, read_set)
                installed.append((src, read_set))
                # Round-robin reads split this source's traffic evenly
                # across the read set from now on.
                share = entry.count / len(read_set)
                projected[primary] -= entry.count - share
                for shard in read_set:
                    if shard != primary:
                        projected[shard] += share
        return installed

    def ship_adjacency(
        self,
        shard: int,
        src: int,
        adjacency: Dict[int, List[Tuple[int, float]]],
        op: int = OP_INSERT,
    ) -> int:
        """Ship one source's adjacency (as :func:`read_adjacency` returns
        it) to ``shard``: one columnar batch per etype through the client
        write path — WAL-covered, replica-group coherent — inserting, or
        retracting with ``op=OP_DELETE``; returns rows shipped."""
        rows = 0
        for etype, edges in adjacency.items():
            if not edges:
                continue
            dsts = np.asarray([d for d, _ in edges], dtype=np.int64)
            weights = np.asarray([w for _, w in edges], dtype=np.float64)
            batch = EdgeBatch(
                np.full(dsts.size, src, dtype=np.int64),
                dsts,
                1.0 if op == OP_DELETE else weights,
                etype,
                op,
            )
            self.client._write_shard(
                shard,
                batch.payload_nbytes(),
                lambda s, b=batch: s.ingest_batch(b),
            )
            rows += dsts.size
        return rows

    def dead_replicas(self) -> List[Tuple[int, int]]:
        """``(shard, replica)`` pairs currently down."""
        return [
            (shard, r)
            for shard, group in enumerate(self.replica_groups)
            for r, server in enumerate(group)
            if not server.alive
        ]

    # ------------------------------------------------------------------
    # dashboards
    # ------------------------------------------------------------------
    def shard_infos(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> List[ShardInfo]:
        """Per-shard load snapshot (balance diagnostics).

        Reports the first live replica's view; a fully-down shard
        reports zeros with ``live_replicas=0``.
        """
        infos: List[ShardInfo] = []
        for shard, group in enumerate(self.replica_groups):
            live = [s for s in group if s.alive]
            if live:
                view = live[0]
                infos.append(
                    ShardInfo(
                        shard_id=shard,
                        num_sources=view.store.num_sources,
                        num_edges=view.store.num_edges,
                        nbytes=view.nbytes(model),
                        live_replicas=len(live),
                    )
                )
            else:
                infos.append(
                    ShardInfo(
                        shard_id=shard,
                        num_sources=0,
                        num_edges=0,
                        nbytes=0,
                        live_replicas=0,
                    )
                )
        return infos

    def total_nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        """Cluster-wide modeled memory (primary replicas only, so the
        figure stays comparable across replication factors)."""
        return sum(s.nbytes(model) for s in self.servers)

    def attach_monitor(
        self,
        interval: float = 0.05,
        rules=None,
        max_points: int = 4096,
        name_filter=None,
    ):
        """Attach a continuous-monitoring scrape loop to this cluster.

        Creates a :class:`~repro.obs.monitor.Monitor` over the cluster's
        registry on the **simulated** clock (wall clock without a
        network model), with an :class:`~repro.obs.alerts.AlertManager`
        evaluating ``rules`` after every scrape.  The monitor's own
        health surfaces back into the registry as ``repro_monitor_*`` /
        ``repro_alerts_*`` series — views that follow re-attachment, so
        the exposition always describes the *current* monitor.

        :meth:`reset_stats` deliberately leaves the monitor alone: the
        time-series history is the flight recorder, and a stats reset
        mid-run is exactly the counter-reset event the store's
        adjustment logic exists to absorb.
        """
        from repro.obs.alerts import AlertManager
        from repro.obs.monitor import Monitor

        monitor = Monitor(
            self.registry,
            clock=self.telemetry.clock,
            interval=interval,
            alerts=AlertManager(list(rules) if rules else []),
            max_points=max_points,
            name_filter=name_filter,
        )
        self.monitor = monitor
        # Transitions reach whatever recorder the hub holds when they
        # happen, so monitor/recorder attach order is immaterial.
        monitor.alerts.add_listener(self.telemetry.on_alert)
        # Through ``self.monitor``: a re-attach (new interval / rules)
        # must not leave the views reading a stale monitor.
        self._register_views(_MONITOR_VIEWS, "monitor")
        return monitor

    def attach_recorder(self, recorder=None, capacity: int = 1024):
        """Attach a :class:`~repro.obs.flight.FlightRecorder` to every
        layer of this cluster.

        Creates one on the cluster's simulated clock when ``recorder``
        is ``None``; otherwise adopts the given instance (binding its
        clock if unset).  Attaching is one assignment on the shared
        :attr:`telemetry` hub, so it reaches every component — and an
        attached monitor's alert stream — whenever each was built.
        The recorder's own health surfaces as ``repro_recorder_*``
        views; like the monitor, :meth:`reset_stats` leaves it alone —
        its rings *are* the incident history.
        """
        from repro.obs.flight import FlightRecorder

        if recorder is None:
            recorder = FlightRecorder(
                clock=self.telemetry.clock, capacity=capacity
            )
        elif recorder.clock is None:
            recorder.clock = self.telemetry.clock
        self.telemetry.recorder = recorder
        self._register_views(_RECORDER_VIEWS, "recorder")
        return recorder

    def reset_stats(self) -> None:
        """Zero every registered holder (the list registration walked),
        the inference service's request stats, registry-owned metrics
        and archived traces.

        The attached monitor and flight recorder are deliberately left
        alone: their history *is* the incident evidence.
        """
        for holder in self._holders:
            stats = holder()
            if stats is not None:
                stats.reset()
        # The online inference tier (``repro.serving.service``) owns
        # breakers and a cache beside its holder; it resets them itself.
        service = getattr(self, "inference_service", None)
        if service is not None:
            service.reset_stats()
        self.registry.reset_owned()
        if self.tracer is not None:
            self.tracer.reset()
