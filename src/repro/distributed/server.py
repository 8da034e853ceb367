"""Graph server: one shard of the distributed storage layer (paper Fig. 1).

A server owns the topology of every source vertex hashed to it: one
:class:`~repro.core.topology.DynamicGraphStore` (samtrees and slab rows
behind a cuckoo directory).  Vertex features are not a shard's: the
paper keeps them in a separate key-value store, and every trainer and
serving path reads one local feature store
(:mod:`repro.storage.attributes`).  Its interface is batch-first — the
client ships one message per (server, request kind) per batch — and it
counts requests so benchmarks can report routing fan-out.

Fault tolerance (the production posture of the paper's 54-server
storage tier):

* every endpoint passes through :meth:`_serve`, which refuses requests
  while the server is down (:class:`~repro.errors.ShardUnavailableError`)
  and gives an attached :class:`~repro.distributed.faults.FaultInjector`
  the chance to inject transient errors, latency spikes, or crashes;
* when a :class:`~repro.storage.wal.ShardWAL` is attached, every
  mutation is appended to the log **before** it is applied (write-ahead),
  and :meth:`checkpoint` captures a full binary image and truncates the
  log;
* :meth:`crash` drops all volatile state (the store);
  :meth:`recover` rebuilds it from the last checkpoint plus a WAL-tail
  replay through the columnar bulk-ingest path — or, when a live peer
  replica is given, from a state transfer off that peer.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.ingest import EdgeBatch, chunked
from repro.core.samtree import SamtreeConfig
from repro.core.snapshot import RNGLike
from repro.core.topology import DynamicGraphStore
from repro.core.types import (
    DEFAULT_ETYPE,
    GraphStoreAPI,
    SampleBlock,
)
from repro.errors import ConfigurationError, ShardUnavailableError
from repro.obs.telemetry import Stats, Telemetry
from repro.storage.checkpoint import LOAD_CHUNK_EDGES, load_store, save_store
from repro.storage.wal import ShardWAL

__all__ = ["GraphServer", "ServerStats"]


@dataclass
class ServerStats(Stats):
    """Per-server request counters.

    Every endpoint bumps exactly one request counter — scalar op batches
    (``update_requests``) and columnar ingests (``ingest_requests``) are
    counted separately so dashboards can tell the two write shapes
    apart; all read endpoints (sampling, adjacency, degrees) count as
    ``sample_requests``.

    ``requests`` counts every arrival at the :meth:`GraphServer._serve`
    prologue, *including* requests refused while the replica is down
    (those also bump ``refused_requests``).  The accounting identity

    ``requests == refused_requests + sum(per-endpoint counters)``

    holds for every endpoint that reaches its counter — and, with a
    :class:`~repro.distributed.faults.FaultInjector` attached for the
    server's whole lifetime, ``refused_requests`` equals the injector's
    ``refused_while_down`` and ``requests - refused_requests`` equals
    its ``requests`` ledger (``tests/test_faults_retry.py`` pins both).
    """

    requests: int = 0
    refused_requests: int = 0
    update_requests: int = 0
    ingest_requests: int = 0
    sample_requests: int = 0
    #: Frontier rows served by the sampling/adjacency read endpoints —
    #: the per-shard *traffic volume* series (RPC counts hide skew once
    #: the client batches one message per shard per window).
    sample_sources: int = 0
    ops_applied: int = 0
    recoveries: int = 0
    wal_records_replayed: int = 0


class GraphServer:
    """One storage shard: one topology store.

    Parameters
    ----------
    shard_id:
        Which shard of the partitioner this server owns.
    store:
        Optional pre-built topology store (otherwise a fresh
        :class:`DynamicGraphStore` with ``config``).
    config:
        Samtree parameters of the default store.
    wal:
        Optional :class:`ShardWAL`; attaching one turns on write-ahead
        durability.
    faults:
        Optional :class:`FaultInjector` consulted on every endpoint.
    store_factory:
        How to rebuild an empty store on recovery without a checkpoint
        (defaults to ``DynamicGraphStore(config)``).
    replica_index:
        Position of this server inside its shard's replica group
        (0 = primary).
    """

    def __init__(
        self,
        shard_id: int,
        store: Optional[GraphStoreAPI] = None,
        config: Optional[SamtreeConfig] = None,
        wal: Optional[ShardWAL] = None,
        faults=None,
        store_factory: Optional[Callable[[], GraphStoreAPI]] = None,
        replica_index: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.replica_index = replica_index
        self._config = config
        self._store_factory = store_factory
        self.store: Optional[GraphStoreAPI] = (
            store if store is not None else self._fresh_store()
        )
        self.stats = ServerStats()
        self.wal = wal
        self.faults = faults
        #: Telemetry hub; a cluster swaps in the one it shares.
        self.telemetry = Telemetry()
        #: The tags every span and event of this replica leads with.
        self._where = {"shard": shard_id, "replica": replica_index}
        self._alive = True
        # Durable (survives crash) checkpoint images of this replica.
        self._checkpoint_topology: Optional[bytes] = None

    def _fresh_store(self) -> GraphStoreAPI:
        if self._store_factory is not None:
            return self._store_factory()
        return DynamicGraphStore(self._config)

    # ------------------------------------------------------------------
    # availability / fault hooks
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether this replica is serving requests."""
        return self._alive

    def _serve(self, endpoint: str) -> None:
        """Endpoint prologue: refuse while down, roll injected faults.

        Bumps ``stats.requests`` for every arrival and
        ``stats.refused_requests`` for refusals, so the server's own
        ledger reconciles with the fault injector's
        (``refused_requests == FaultStats.refused_while_down`` when an
        injector is attached for the server's whole lifetime).
        """
        self.stats.requests += 1
        if not self._alive:
            self.stats.refused_requests += 1
            if self.faults is not None:
                self.faults.note_refused()
            raise ShardUnavailableError(
                f"shard {self.shard_id} replica {self.replica_index} is "
                f"down (endpoint {endpoint!r})",
                shard=self.shard_id,
                endpoint=endpoint,
                timestamp=self.telemetry.now(),
            )
        if self.faults is not None:
            self.faults.on_request(self, endpoint)

    # ------------------------------------------------------------------
    # crash / checkpoint / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate a hard crash: all volatile state is lost.

        The WAL and checkpoint images model durable storage and
        survive; every endpoint raises :class:`ShardUnavailableError`
        until :meth:`recover` is called.  Idempotent.
        """
        self._alive = False
        self.store = None
        self.telemetry.event("fault", "crash", **self._where)

    def checkpoint(self) -> int:
        """Capture a durable binary image and truncate the WAL.

        Returns the checkpoint size in bytes.  Requires the samtree
        store (binary image format of :mod:`repro.storage.checkpoint`).
        """
        if not self._alive:
            raise ShardUnavailableError(
                f"cannot checkpoint crashed shard {self.shard_id} "
                f"replica {self.replica_index}"
            )
        if not isinstance(self.store, DynamicGraphStore):
            raise ConfigurationError(
                "checkpointing requires the samtree-backed "
                "DynamicGraphStore; baseline stores are not durable"
            )
        total = self._capture_image(self)
        self.telemetry.event("wal", "checkpoint", **self._where, bytes=total)
        return total

    def _capture_image(self, source: "GraphServer") -> int:
        """Serialise ``source``'s store into this replica's checkpoint
        buffer and truncate the local WAL (the image now covers, or
        supersedes, everything it logged); returns bytes."""
        buf = io.BytesIO()
        save_store(source.store, buf)
        self._checkpoint_topology = buf.getvalue()
        if self.wal is not None:
            self.wal.truncate()
        return len(self._checkpoint_topology)

    def recover(self, sync_from: Optional["GraphServer"] = None) -> int:
        """Rebuild state and come back up; returns WAL records replayed.

        Without ``sync_from``: load the last checkpoint into a store
        from the shard's factory (or start empty) and replay the WAL
        tail through the columnar bulk-ingest path, its records
        concatenated into batches of at most ``LOAD_CHUNK_EDGES`` rows.

        With a live ``sync_from`` peer replica: perform a state transfer
        (serialize the peer's store into this replica's checkpoint,
        truncate the local WAL) — the path a rejoining backup takes after
        missing writes while it was down.
        """
        if self._alive and self.store is not None:
            return 0
        if sync_from is not None:
            if not sync_from.alive:
                raise ShardUnavailableError(
                    f"cannot sync shard {self.shard_id} replica "
                    f"{self.replica_index} from a dead peer"
                )
            if not isinstance(sync_from.store, DynamicGraphStore):
                raise ConfigurationError(
                    "peer state transfer requires the samtree store"
                )
            self._capture_image(sync_from)
        if self._checkpoint_topology is not None:
            self.store = load_store(
                self._checkpoint_topology, self._fresh_store()
            )
        else:
            self.store = self._fresh_store()
        replayed = 0
        if self.wal is not None:
            for tail in chunked(self.wal.replay(), len, LOAD_CHUNK_EDGES):
                self.store.apply_edge_batch(EdgeBatch.concat(tail))
                replayed += len(tail)
        self._alive = True
        self.stats.recoveries += 1
        self.stats.wal_records_replayed += replayed
        self.telemetry.event(
            "fault",
            "recover",
            **self._where,
            replayed=replayed,
            synced=sync_from is not None,
        )
        return replayed

    # ------------------------------------------------------------------
    # update path
    # ------------------------------------------------------------------
    def apply_op(
        self, code: int, src: int, dst: int, weight: float, etype: int
    ) -> bool:
        """Apply one operation owned by this shard, by op code: WAL
        first, then the store.  The span and the fault endpoint are
        named ``apply_ops``, the names readouts and fault plans use for
        a shard's scalar writes."""
        with self.telemetry.span("server.apply_ops", **self._where, ops=1):
            self._serve("apply_ops")
            self.stats.update_requests += 1
            if self.wal is not None:
                self.wal.append_op(code, src, dst, weight, etype)
                self.telemetry.event("wal", "append", **self._where, ops=1)
            done = self.store.write_op(code, src, dst, weight, etype)
            self.stats.ops_applied += 1
            return done

    def ingest_batch(self, batch):
        """Apply one columnar :class:`~repro.core.ingest.EdgeBatch`.

        The bulk-write counterpart of :meth:`sample_neighbors_many`: the
        client ships one columnar message per shard and the store applies
        it through its vectorized path (bottom-up samtree builds on the
        samtree store, per-row replay elsewhere).  Returns the shard's
        :class:`~repro.core.ingest.IngestStats`.
        """
        with self.telemetry.span(
            "server.ingest_batch", **self._where, ops=len(batch)
        ):
            self._serve("ingest_batch")
            self.stats.ingest_requests += 1
            if self.wal is not None:
                self.wal.append_batch(batch)
                self.telemetry.event(
                    "wal", "append", **self._where, ops=len(batch)
                )
            stats = self.store.apply_edge_batch(batch)
            self.stats.ops_applied += len(batch)
            return stats

    def freeze(self, etype: Optional[int] = None) -> int:
        """Freeze the store's read image for the hot read path.

        Counted as an ``update_request`` (it replaces server-side state),
        keeping the per-endpoint accounting identity intact.  Returns
        the number of relations frozen; 0 for a store with no read image
        to freeze (a baseline store).
        Subsequent ``sample_neighbors_many`` RPCs draw through the alias
        kernel, except for rows written since.
        """
        with self.telemetry.span("server.freeze", **self._where):
            self._serve("freeze")
            self.stats.update_requests += 1
            compile_fn = getattr(self.store, "freeze", None)
            if compile_fn is None:
                return 0
            return len(compile_fn(etype))

    # ------------------------------------------------------------------
    # sampling path
    # ------------------------------------------------------------------
    def sample_neighbors_many(
        self,
        srcs: Sequence[int],
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
        *,
        counts: Optional[Sequence[int]] = None,
    ) -> SampleBlock:
        """The one sampling endpoint: the shard's store answers the
        whole frontier through its vectorized read path and the
        :class:`~repro.core.types.SampleBlock` goes back as is.

        ``counts`` is the client's coalesced request shape — each
        duplicated source shipped **once** with its in-window
        multiplicity; the store gives ``srcs[i]`` that many consecutive
        rows, each drawn independently (sampling is i.i.d. with
        replacement), so the reply is in the client's fan-out order.
        """
        span = self.telemetry.span
        with span(
            "server.sample_neighbors_many",
            **self._where,
            sources=len(srcs),
            k=k,
        ):
            self._serve("sample_neighbors_many")
            self.stats.sample_requests += 1
            with span(
                "samtree.sample_many", **self._where, sources=len(srcs)
            ):
                block = self.store.sample_neighbors_many(
                    srcs, k, rng, etype, counts=counts
                )
            self.stats.sample_sources += len(block)
            return block

    def sample_neighbors_uniform_many(self, *args, **kwargs):
        # A name without an endpoint: every draw is weighted, but
        # benchmarks/e2e/test_e2e_smoke.py deletes this attribute with
        # ``raising=True``, so it stays until the benchmark changes.
        raise ConfigurationError("unweighted draws are retired")

    def neighbors_batch(
        self, srcs: Sequence[int], etype: int = DEFAULT_ETYPE
    ) -> List[List[Tuple[int, float]]]:
        """Full adjacency fetch (used by full-neighborhood aggregation)."""
        self._serve("neighbors_batch")
        self.stats.sample_requests += 1
        self.stats.sample_sources += len(srcs)
        return [self.store.neighbors(s, etype) for s in srcs]

    def degrees(
        self, srcs: Sequence[int], etype: int = DEFAULT_ETYPE
    ) -> List[int]:
        """Out-degrees of the given sources."""
        self._serve("degrees")
        self.stats.sample_requests += 1
        self.stats.sample_sources += len(srcs)
        return [self.store.degree(s, etype) for s in srcs]

    def edge_weights(
        self,
        pairs: Sequence[Tuple[int, int]],
        etype: int = DEFAULT_ETYPE,
    ) -> List[Optional[float]]:
        """Weights of the given ``(src, dst)`` pairs (``None`` when
        absent)."""
        self._serve("edge_weights")
        self.stats.sample_requests += 1
        self.stats.sample_sources += len(pairs)
        return [self.store.edge_weight(s, d, etype) for s, d in pairs]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Modeled bytes of this shard's store.

        A crashed replica holds no volatile state, so it reports 0.
        """
        if not self._alive or self.store is None:
            return 0
        return self.store.nbytes()
