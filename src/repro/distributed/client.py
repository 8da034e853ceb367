"""Graph client: routes requests to the owning graph servers.

The client implements :class:`~repro.core.types.GraphStoreAPI`, so every
consumer in the package — benchmark drivers, the GNN samplers, the PALM
executor's store-facing code — can run unmodified against either a local
store or a cluster.  Batch requests are grouped per shard (one simulated
message per shard per batch) and merged back in input order.

Fault tolerance:

* every per-shard RPC runs through an optional
  :class:`~repro.distributed.retry.RetryPolicy` — transient faults are
  retried with exponential backoff over *simulated* time (backoff sleeps
  and per-attempt transfer costs both advance the
  :class:`~repro.distributed.rpc.NetworkModel` clock, which also bounds
  per-request deadlines);
* with ``replica_groups``, writes are primary-backup (applied to every
  live replica of the owning shard) and reads fail over from the
  primary to backups;
* with ``degraded_reads=True``, a read whose shard has **no** live
  replica does not raise — callers get partial batch results with
  explicit per-source outage markers: batched sampling marks the
  affected rows ``state == SampleBlock.UNAVAILABLE``, scalar reads
  return the :data:`UNAVAILABLE` singleton (falsy, iterates empty,
  identity-testable).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ingest import EdgeBatch, IngestStats
from repro.core.snapshot import RNGLike, coerce_generator
from repro.core.types import (
    DEFAULT_ETYPE,
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    UNAVAILABLE,
    GraphStoreAPI,
    SampleBlock,
    check_counts,
    lexsort_rows,
    run_bounds,
)
from repro.distributed.partition import HashBySourcePartitioner
from repro.distributed.retry import RetryPolicy
from repro.distributed.rpc import NetworkModel
from repro.distributed.server import GraphServer
from repro.errors import (
    ConfigurationError,
    PartitionError,
    RetryExhaustedError,
    ShardUnavailableError,
)
from repro.obs.telemetry import Stats, Telemetry

__all__ = ["GraphClient", "ServingStats", "UNAVAILABLE"]

#: Modeled payload bytes per edge operation / sample request entry.
_OP_BYTES = 8 + 8 + 4 + 1
_SAMPLE_REQ_BYTES = 8
_SAMPLE_RESP_BYTES = 8
#: Modeled bytes of a scalar query (degree / edge weight / adjacency).
_QUERY_BYTES = 16


# ``UNAVAILABLE`` lives in ``repro.core.types`` (store-agnostic consumers
# need it without importing this package); re-exported here.

#: Failures that make one replica useless for this request but leave
#: the rest of the group worth trying.
_FAILOVER_ERRORS = (ShardUnavailableError, RetryExhaustedError)


@dataclass
class ServingStats(Stats):
    """Client-side serving counters (exported as ``repro_cache_*``).

    Tracks request coalescing: duplicate in-flight sources within one
    ``sample_neighbors_many`` window are shipped once per shard.
    """

    DERIVED = GAUGES = ("coalesce_rate",)

    batches: int = 0
    #: Frontier rows requested through the batched sampling path.
    sources: int = 0
    #: Distinct (source, shard-window) keys actually shipped.
    distinct_sources: int = 0
    #: Duplicate rows answered from a coalesced fetch.
    coalesced_sources: int = 0
    shard_rpcs: int = 0
    #: Per-shard RPCs whose request carried multiplicities > 1.
    grouped_rpcs: int = 0

    @property
    def coalesce_rate(self) -> float:
        """Fraction of frontier rows deduplicated away before the wire."""
        return self.coalesced_sources / self.sources if self.sources else 0.0


class GraphClient(GraphStoreAPI):
    """Store-shaped façade over a set of :class:`GraphServer` shards."""

    def __init__(
        self,
        servers: Sequence[GraphServer],
        partitioner: HashBySourcePartitioner,
        network: Optional[NetworkModel] = None,
        replica_groups: Optional[Sequence[Sequence[GraphServer]]] = None,
        retry: Optional[RetryPolicy] = None,
        degraded_reads: bool = False,
    ) -> None:
        if len(servers) != partitioner.num_shards:
            raise PartitionError(
                f"{len(servers)} servers but partitioner expects "
                f"{partitioner.num_shards} shards"
            )
        self.servers = list(servers)
        if replica_groups is None:
            self.replica_groups: List[List[GraphServer]] = [
                [s] for s in self.servers
            ]
        else:
            if len(replica_groups) != len(self.servers):
                raise PartitionError(
                    f"{len(replica_groups)} replica groups but "
                    f"{len(self.servers)} shards"
                )
            self.replica_groups = [list(g) for g in replica_groups]
            for shard, group in enumerate(self.replica_groups):
                if not group:
                    raise ConfigurationError(
                        f"replica group of shard {shard} is empty"
                    )
                if group[0] is not self.servers[shard]:
                    raise ConfigurationError(
                        f"replica group {shard} must lead with the "
                        f"primary server"
                    )
        self.partitioner = partitioner
        self.network = network
        self.retry = retry
        self.degraded_reads = degraded_reads
        #: Telemetry hub; a cluster swaps in the one it shares.
        self.telemetry = Telemetry()
        self.serving_stats = ServingStats()
        #: ``searchsorted`` probes cutting a shard-sorted frontier.
        self._shard_ids = np.arange(len(self.servers) + 1)
        #: Absolute per-request deadline (on the network clock) applied
        #: to every RPC issued while a :meth:`deadline_scope` is active.
        self._request_deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # per-request deadlines
    # ------------------------------------------------------------------
    def deadline_scope(self, deadline: Optional[float]) -> "_DeadlineScope":
        """Apply an *absolute* deadline to every RPC inside the block.

        ``deadline`` is a point on the same clock the retry policy
        measures (``network.now`` when a network model is attached) —
        once it passes, in-flight retries raise
        :class:`~repro.errors.DeadlineExceededError` instead of burning
        backoff budget the request no longer has.  Scopes nest; the
        innermost wins and the previous value is restored on exit.
        """
        return _DeadlineScope(self, deadline)

    # ------------------------------------------------------------------
    # routing helpers
    # ------------------------------------------------------------------
    def _call(self, server: GraphServer, payload_bytes: int, endpoint,
              args, kwargs):
        """One RPC against one replica through the retry policy.

        An RPC names its server endpoint and arguments.  Every attempt
        opens an ``rpc.attempt`` span (numbered from 1; a failed one
        closes with ``status="error"`` and the exception type), is
        charged one message on the network model and calls the endpoint
        once; the policy measures deadlines and backoff on the same
        simulated clock.  Without a policy the read and write loops
        make their one attempt inline, with no frame between the loop
        and the server.
        """
        span = self.telemetry.span
        network = self.network
        attempts = count(1)

        def attempt():
            with span("rpc.attempt", next(attempts), server.shard_id,
                      server.replica_index, payload_bytes):
                if network is not None:
                    network.send(payload_bytes)
                return getattr(server, endpoint)(*args, **kwargs)

        # Backoff is the classic invisible tail-latency eater; give it
        # its own span so critical-path analysis can attribute it
        # instead of folding it into read_shard self-time.
        def sleep(delay):
            with span("rpc.backoff", server.shard_id, delay):
                network.sleep(delay)

        timed = network is not None
        return self.retry.run(
            attempt,
            now=network.now if timed else None,
            sleep=sleep if timed else None,
            deadline=self._request_deadline,
        )

    def _read_shard(self, shard: int, payload_bytes: int, endpoint: str,
                    *args, **kwargs):
        """Call ``endpoint`` with failover: primary first, then backups
        in order.

        Returns :data:`UNAVAILABLE` when every replica is down and
        degraded reads are enabled; raises otherwise.
        """
        group = self.replica_groups[shard]
        span = self.telemetry.span
        network = self.network
        with span("rpc.read_shard", shard, len(group)) as read:
            last: Optional[Exception] = None
            for server in group:
                try:
                    if self.retry is not None:
                        return self._call(
                            server, payload_bytes, endpoint, args, kwargs
                        )
                    with span("rpc.attempt", 1, server.shard_id,
                              server.replica_index, payload_bytes):
                        if network is not None:
                            network.send(payload_bytes)
                        return getattr(server, endpoint)(*args, **kwargs)
                except _FAILOVER_ERRORS as exc:
                    last = exc
            if self.degraded_reads:
                read.set_tag("degraded", True)
                return UNAVAILABLE
            raise ShardUnavailableError(
                f"all {len(group)} replica(s) of shard {shard} are "
                f"unavailable"
            ) from last

    def _write_shard(self, shard: int, payload_bytes: int, endpoint: str,
                     *args):
        """Primary-backup write: call ``endpoint`` on every live replica.

        Returns the first successful replica's result (the logical
        outcome — replicas apply identical state transitions).  Raises
        :class:`ShardUnavailableError` only when **no** replica accepted
        the write.
        """
        group = self.replica_groups[shard]
        span = self.telemetry.span
        network = self.network
        with span("rpc.write_shard", shard, len(group)) as write:
            results = []
            last: Optional[Exception] = None
            for server in group:
                try:
                    if self.retry is not None:
                        results.append(self._call(
                            server, payload_bytes, endpoint, args, {}
                        ))
                        continue
                    with span("rpc.attempt", 1, server.shard_id,
                              server.replica_index, payload_bytes):
                        if network is not None:
                            network.send(payload_bytes)
                        results.append(getattr(server, endpoint)(*args))
                except _FAILOVER_ERRORS as exc:
                    last = exc
            if not results:
                raise ShardUnavailableError(
                    f"write rejected: all {len(group)} replica(s) of "
                    f"shard {shard} are unavailable"
                ) from last
            write.set_tag("applied", len(results))
            return results[0]

    def _live_stores(self) -> Iterator[GraphStoreAPI]:
        """Each shard's first live replica's store, in shard order
        (control-plane introspection — no fault injection, no network
        charge)."""
        for shard, group in enumerate(self.replica_groups):
            live = [server.store for server in group if server.alive]
            if not live:
                raise ShardUnavailableError(f"no live replica of shard {shard}")
            yield live[0]

    # ------------------------------------------------------------------
    # single-edge updates (each one message per replica)
    # ------------------------------------------------------------------
    def add_edge(self, src: int, dst: int, weight: float = 1.0,
                 etype: int = DEFAULT_ETYPE) -> bool:
        return self._write_shard(
            self.partitioner.shard_for(src), _OP_BYTES,
            "apply_op", OP_INSERT, src, dst, weight, etype,
        )

    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        return self._write_shard(
            self.partitioner.shard_for(src), _OP_BYTES,
            "apply_op", OP_UPDATE, src, dst, weight, etype,
        )

    def remove_edge(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> bool:
        return self._write_shard(
            self.partitioner.shard_for(src), _OP_BYTES,
            "apply_op", OP_DELETE, src, dst, 0.0, etype,
        )

    # ------------------------------------------------------------------
    # columnar bulk ingestion (one columnar message per shard per replica)
    # ------------------------------------------------------------------
    def apply_edge_batch(self, batch, dst=None, weight=None, etype=None,
                         op=None) -> IngestStats:
        """Route one columnar batch, one ingest RPC per owning shard.

        The write-path mirror of :meth:`sample_neighbors_many`: the whole
        ``src`` column is hashed in one vectorized pass
        (``HashBySourcePartitioner.shards_for_array``),
        each shard receives one contiguous columnar sub-batch, and the
        :class:`~repro.distributed.rpc.NetworkModel` is charged the
        *array* payload bytes of each sub-batch — not per-op object
        framing — so the modeled message count is the shard count (times
        the replication factor), not the op count.
        """
        if not isinstance(batch, EdgeBatch):
            batch = EdgeBatch(batch, dst, weight, etype, op)
        stats = IngestStats()
        if len(batch) == 0:
            stats.ops = 0
            return stats
        shards = self.partitioner.shards_for_array(batch.src)
        rows_per_shard = np.bincount(shards, minlength=len(self.servers))
        touched = np.flatnonzero(rows_per_shard).tolist()
        with self.telemetry.span(
            "client.apply_edge_batch", len(batch), len(touched)
        ):
            for shard in touched:
                sub = batch.select(np.flatnonzero(shards == shard))
                shard_stats = self._write_shard(
                    shard, sub.payload_nbytes(), "ingest_batch", sub
                )
                stats.merge_from(shard_stats)
            return stats

    # ------------------------------------------------------------------
    # queries (failover reads; may return UNAVAILABLE in degraded mode)
    # ------------------------------------------------------------------
    def _query(self, src: int, endpoint: str, key, etype: int):
        """A scalar query: the one-key case of a batched read endpoint
        (:data:`UNAVAILABLE` passes through)."""
        result = self._read_shard(
            self.partitioner.shard_for(src), _QUERY_BYTES, endpoint,
            [key], etype,
        )
        return result if result is UNAVAILABLE else result[0]

    def degree(self, src: int, etype: int = DEFAULT_ETYPE):
        return self._query(src, "degrees", src, etype)

    def edge_weight(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ):
        result = self._query(src, "edge_weights", (src, dst), etype)
        return None if result is UNAVAILABLE else result

    def neighbors(
        self, src: int, etype: int = DEFAULT_ETYPE
    ) -> List[Tuple[int, float]]:
        return self._query(src, "neighbors_batch", src, etype)

    @property
    def num_edges(self) -> int:
        return sum(store.num_edges for store in self._live_stores())

    @property
    def num_sources(self) -> int:
        return sum(store.num_sources for store in self._live_stores())

    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        for store in self._live_stores():
            yield from store.sources(etype)

    # ------------------------------------------------------------------
    # sampling (one message per shard per batch)
    # ------------------------------------------------------------------
    def sample_neighbors(
        self,
        src: int,
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        """Scalar read: the ``n = 1`` case of the one server endpoint."""
        if k < 0:
            raise ConfigurationError(f"sample count must be >= 0, got {k}")
        block = self._read_shard(
            self.partitioner.shard_for(src),
            _SAMPLE_REQ_BYTES + k * _SAMPLE_RESP_BYTES,
            "sample_neighbors_many", [src], k, rng, etype,
        )
        return block if block is UNAVAILABLE else block.rows()[0]

    def sample_neighbors_many(
        self,
        srcs: Sequence[int],
        k: int,
        rng: RNGLike = None,
        etype: int = DEFAULT_ETYPE,
        *,
        counts: Optional[Sequence[int]] = None,
    ) -> SampleBlock:
        """Route a frontier with array operations, issue **one** RPC per
        touched shard, and merge the replies into one block in input
        order.

        The frontier is sorted once by ``(shard, source)``: run
        boundaries over the sorted sources give the distinct sources
        and their multiplicities, a ``searchsorted`` over the distinct
        sources' shards gives the per-shard cuts, each shard is sent
        array slices and its reply is one fancy assignment into the
        output — the same shape :meth:`apply_edge_batch` uses.  Rows owned by a fully
        unavailable shard come back ``state == UNAVAILABLE`` when
        degraded reads are enabled.

        Duplicate in-flight sources are **coalesced**: a shard is sent
        its distinct sources plus multiplicities and expands them
        locally, so every occurrence still receives its own independent
        draws.

        A negative ``k``, or a ``counts`` that is not one non-negative
        count per source, raises before any counter or network charge.
        """
        if k < 0:
            raise ConfigurationError(f"fanout must be >= 0, got {k}")
        srcs = np.asarray(srcs, dtype=np.int64)
        counts = check_counts(srcs, counts)
        if counts is not None:
            srcs = np.repeat(srcs, counts)
        n = srcs.size
        # One generator per call.  In process every shard draws from it;
        # a real transport would ship each shard a 64-bit child seed.
        gen = coerce_generator(rng)
        stats = self.serving_stats
        stats.batches += 1
        stats.sources += n
        shards = self.partitioner.shards_for_array(srcs)
        order = lexsort_rows(shards, srcs)
        srcs = srcs[order]
        bounds = run_bounds(srcs)
        starts = bounds[:-1]
        distinct = srcs[starts]
        multiplicity = bounds[1:] - starts
        stats.distinct_sources += distinct.size
        # Distinct sources are shard-sorted: shard ``s`` owns
        # ``distinct[cuts[s]:cuts[s + 1]]``, i.e. sorted rows
        # ``row_cuts[s]:row_cuts[s + 1]``.
        cuts = shards[order[starts]].searchsorted(self._shard_ids)
        row_cuts = bounds[cuts].tolist()
        cuts = cuts.tolist()
        touched = [
            s for s in range(len(self.servers)) if cuts[s] < cuts[s + 1]
        ]
        ids = np.empty((n, k), dtype=np.int64)
        state = np.empty(n, dtype=np.int8)
        with self.telemetry.span(
            "client.sample_neighbors_many", n, k, len(touched)
        ):
            for shard in touched:
                a, b = cuts[shard], cuts[shard + 1]
                lo, hi = row_cuts[shard], row_cuts[shard + 1]
                rows = hi - lo
                duplicates = rows - (b - a)
                if duplicates:
                    payload = (
                        (b - a) * (_SAMPLE_REQ_BYTES + 2)
                        + rows * k * _SAMPLE_RESP_BYTES
                    )
                    stats.grouped_rpcs += 1
                    stats.coalesced_sources += duplicates
                else:
                    payload = rows * (
                        _SAMPLE_REQ_BYTES + k * _SAMPLE_RESP_BYTES
                    )

                stats.shard_rpcs += 1
                block = self._read_shard(
                    shard, payload, "sample_neighbors_many",
                    distinct[a:b], k, gen, etype, counts=multiplicity[a:b],
                )
                positions = order[lo:hi]
                if block is UNAVAILABLE:
                    ids[positions] = 0
                    state[positions] = SampleBlock.UNAVAILABLE
                else:
                    ids[positions] = block.ids
                    state[positions] = block.state
        return SampleBlock(ids, state)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Modeled bytes across the whole deployment (replicas included;
        crashed replicas hold no volatile state and report 0)."""
        return sum(
            server.nbytes()
            for group in self.replica_groups
            for server in group
        )


class _DeadlineScope:
    """:meth:`GraphClient.deadline_scope`'s context manager."""

    __slots__ = ("client", "deadline", "prev")

    def __init__(self, client: GraphClient, deadline: Optional[float]):
        self.client, self.deadline, self.prev = client, deadline, None

    def __enter__(self) -> GraphClient:
        self.prev = self.client._request_deadline
        self.client._request_deadline = self.deadline
        return self.client

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.client._request_deadline = self.prev
        return False
