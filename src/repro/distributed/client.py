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

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from operator import methodcaller
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
    @contextmanager
    def deadline_scope(self, deadline: Optional[float]):
        """Apply an *absolute* deadline to every RPC inside the block.

        ``deadline`` is a point on the same clock the retry policy
        measures (``network.now`` when a network model is attached) —
        once it passes, in-flight retries raise
        :class:`~repro.errors.DeadlineExceededError` instead of burning
        backoff budget the request no longer has.  Scopes nest; the
        innermost wins and the previous value is restored on exit.
        """
        prev = self._request_deadline
        self._request_deadline = deadline
        try:
            yield self
        finally:
            self._request_deadline = prev

    # ------------------------------------------------------------------
    # routing helpers
    # ------------------------------------------------------------------
    def _call(self, server: GraphServer, payload_bytes: int, fn):
        """One RPC against one replica, with retries on transient faults.

        Every attempt is charged to the network model (retries cost
        messages), and the retry policy measures deadlines / accounts
        backoff on the same simulated clock.  Each attempt opens an
        ``rpc.attempt`` span (numbered from 1) — a failed attempt closes
        its span with ``status="error"`` and the exception type, so
        retries are visible in the trace tree.
        """
        if self.retry is None:
            return self._attempt(server, payload_bytes, fn, 1)
        attempts = count(1)

        def attempt():
            return self._attempt(server, payload_bytes, fn, next(attempts))

        if self.network is None:
            return self.retry.run(attempt, deadline=self._request_deadline)

        # Backoff is the classic invisible tail-latency eater; give it
        # its own span so critical-path analysis can attribute it
        # instead of folding it into read_shard self-time.
        def sleep(delay):
            with self.telemetry.span(
                "rpc.backoff", shard=server.shard_id, seconds=delay
            ):
                self.network.sleep(delay)

        return self.retry.run(
            attempt,
            now=self.network.now,
            sleep=sleep,
            deadline=self._request_deadline,
        )

    def _attempt(
        self, server: GraphServer, payload_bytes: int, fn, number: int
    ):
        """Attempt ``number`` of :meth:`_call`: one message charged to
        the network model, one call."""
        with self.telemetry.span(
            "rpc.attempt",
            attempt=number,
            shard=server.shard_id,
            replica=server.replica_index,
            bytes=payload_bytes,
        ):
            if self.network is not None:
                self.network.send(payload_bytes)
            return fn(server)

    def _read_shard(self, shard: int, payload_bytes: int, fn):
        """Read with failover: primary first, then backups in order.

        Returns :data:`UNAVAILABLE` when every replica is down and
        degraded reads are enabled; raises otherwise.
        """
        group = self.replica_groups[shard]
        with self.telemetry.span(
            "rpc.read_shard", shard=shard, replicas=len(group)
        ) as span:
            last: Optional[Exception] = None
            for server in group:
                try:
                    return self._call(server, payload_bytes, fn)
                except _FAILOVER_ERRORS as exc:
                    last = exc
            if self.degraded_reads:
                span.set_tag("degraded", True)
                return UNAVAILABLE
            raise ShardUnavailableError(
                f"all {len(group)} replica(s) of shard {shard} are "
                f"unavailable"
            ) from last

    def _write_shard(self, shard: int, payload_bytes: int, fn):
        """Primary-backup write: apply to every live replica.

        Returns the first successful replica's result (the logical
        outcome — replicas apply identical state transitions).  Raises
        :class:`ShardUnavailableError` only when **no** replica accepted
        the write.
        """
        group = self.replica_groups[shard]
        with self.telemetry.span(
            "rpc.write_shard", shard=shard, replicas=len(group)
        ) as span:
            result = None
            applied = 0
            last: Optional[Exception] = None
            for server in group:
                try:
                    r = self._call(server, payload_bytes, fn)
                except _FAILOVER_ERRORS as exc:
                    last = exc
                    continue
                applied += 1
                if applied == 1:
                    result = r
            if applied == 0:
                raise ShardUnavailableError(
                    f"write rejected: all {len(group)} replica(s) of "
                    f"shard {shard} are unavailable"
                ) from last
            span.set_tag("applied", applied)
            return result

    def _live_store(self, shard: int):
        """First live replica's store (control-plane introspection —
        no fault injection, no network charge)."""
        for server in self.replica_groups[shard]:
            if server.alive:
                return server.store
        raise ShardUnavailableError(f"no live replica of shard {shard}")

    # ------------------------------------------------------------------
    # single-edge updates (each one message per replica)
    # ------------------------------------------------------------------
    # One ``apply_op`` call per writer: a methodcaller runs no frame.
    def add_edge(self, src: int, dst: int, weight: float = 1.0,
                 etype: int = DEFAULT_ETYPE) -> bool:
        write = methodcaller("apply_op", OP_INSERT, src, dst, weight, etype)
        return self._write_shard(
            self.partitioner.shard_for(src), _OP_BYTES, write
        )

    def update_edge(
        self, src: int, dst: int, weight: float, etype: int = DEFAULT_ETYPE
    ) -> bool:
        write = methodcaller("apply_op", OP_UPDATE, src, dst, weight, etype)
        return self._write_shard(
            self.partitioner.shard_for(src), _OP_BYTES, write
        )

    def remove_edge(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ) -> bool:
        write = methodcaller("apply_op", OP_DELETE, src, dst, 0.0, etype)
        return self._write_shard(
            self.partitioner.shard_for(src), _OP_BYTES, write
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
            "client.apply_edge_batch",
            ops=len(batch),
            shards=len(touched),
        ):
            for shard in touched:
                sub = batch.select(np.flatnonzero(shards == shard))
                shard_stats = self._write_shard(
                    shard,
                    sub.payload_nbytes(),
                    lambda s, sub=sub: s.ingest_batch(sub),
                )
                stats.merge_from(shard_stats)
            return stats

    # ------------------------------------------------------------------
    # queries (failover reads; may return UNAVAILABLE in degraded mode)
    # ------------------------------------------------------------------
    def degree(self, src: int, etype: int = DEFAULT_ETYPE):
        return self._read_shard(
            self.partitioner.shard_for(src),
            _QUERY_BYTES,
            lambda s: s.degrees([src], etype)[0],
        )

    def edge_weight(
        self, src: int, dst: int, etype: int = DEFAULT_ETYPE
    ):
        result = self._read_shard(
            self.partitioner.shard_for(src),
            _QUERY_BYTES,
            lambda s: s.edge_weights([(src, dst)], etype)[0],
        )
        return None if result is UNAVAILABLE else result

    def neighbors(
        self, src: int, etype: int = DEFAULT_ETYPE
    ) -> List[Tuple[int, float]]:
        return self._read_shard(
            self.partitioner.shard_for(src),
            _QUERY_BYTES,
            lambda s: s.neighbors_batch([src], etype)[0],
        )

    @property
    def num_edges(self) -> int:
        return sum(
            self._live_store(shard).num_edges
            for shard in range(len(self.replica_groups))
        )

    @property
    def num_sources(self) -> int:
        return sum(
            self._live_store(shard).num_sources
            for shard in range(len(self.replica_groups))
        )

    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        for shard in range(len(self.replica_groups)):
            yield from self._live_store(shard).sources(etype)

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
            lambda s: s.sample_neighbors_many([src], k, rng, etype),
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
            "client.sample_neighbors_many",
            sources=n,
            k=k,
            shards=len(touched),
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
                block = self._read_shard(shard, payload, methodcaller(
                    "sample_neighbors_many", distinct[a:b], k, gen, etype,
                    counts=multiplicity[a:b],
                ))
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
