"""Exception hierarchy for the PlatoD2GL reproduction.

All library errors derive from :class:`ReproError` so that callers can
catch everything raised by this package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class EmptyStructureError(ReproError, IndexError):
    """An operation that needs at least one element hit an empty structure.

    Raised, for example, when sampling from an empty FSTable or samtree.
    """


class IndexOutOfRangeError(ReproError, IndexError):
    """An index argument fell outside the valid range of a structure."""


class InvalidWeightError(ReproError, ValueError):
    """An edge weight was rejected (negative, NaN, or infinite)."""


class VertexNotFoundError(ReproError, KeyError):
    """A vertex (or edge endpoint) is not present in the store."""


class InvariantViolationError(ReproError, AssertionError):
    """A structural invariant check failed (used by ``check_invariants``)."""


class HashMapFullError(ReproError, RuntimeError):
    """The cuckoo hashmap could not place a key even after resizing."""


class PartitionError(ReproError, ValueError):
    """A graph partitioner received an invalid configuration or key."""


class ShapeError(ReproError, ValueError):
    """A GNN tensor operation received arrays of incompatible shapes."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed with invalid parameters."""


class RPCError(ReproError, ConnectionError):
    """Base class for simulated RPC failures in the distributed tier.

    Carries structured origin context — which shard and endpoint failed,
    on which retry attempt, at what simulated time — so raised errors
    and flight-recorder events name their source instead of a bare
    message.  All fields are optional: raisers that know them populate
    them (the fault injector knows shard/endpoint; ``RetryPolicy.run``
    adds attempt/timestamp to whatever it re-raises).
    """

    def __init__(
        self,
        message: str = "",
        shard=None,
        endpoint: "str | None" = None,
        attempt: "int | None" = None,
        timestamp: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.endpoint = endpoint
        self.attempt = attempt
        self.timestamp = timestamp


class TransientRPCError(RPCError):
    """A request failed transiently (dropped packet, brief overload).

    Safe to retry: the server did **not** observe the request.  Raised by
    the fault injector before the endpoint body runs, so a transient
    failure never leaves partial state behind.
    """


class ShardUnavailableError(RPCError):
    """A shard (or every replica of it) is down.

    Retrying against the same replica will not help — callers fail over
    to another replica, degrade gracefully, or surface the outage.
    """


class RetryExhaustedError(RPCError):
    """A retried request failed on every allowed attempt."""


class DeadlineExceededError(RPCError, TimeoutError):
    """A request's simulated-time deadline elapsed before it succeeded."""


class WALCorruptionError(ReproError, ValueError):
    """A write-ahead log record failed its integrity check mid-file.

    A *torn tail* (truncated final record after a crash) is expected and
    tolerated by replay; corruption before the tail is not.
    """
