"""Simulated RPC substrate for the in-process cluster.

The paper's evaluation platform is 74 physical servers; this repo runs
the same partition → route → batch → merge code path in one process and
*models* the network instead of paying it.  The model is deliberately
simple — a fixed per-message latency plus a bandwidth term — because the
experiments it supports (Figures 8–11) measure storage and sampling
costs, not networking; the model only needs to preserve the incentive
that fewer, larger messages are cheaper, which drives the batch APIs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.telemetry import Stats

__all__ = ["NetworkModel", "NetworkStats"]


@dataclass
class NetworkStats(Stats):
    """Counters of simulated traffic.

    ``simulated_seconds`` is the cluster's simulated clock: it advances
    on every :meth:`NetworkModel.send` *and* every simulated sleep
    (:meth:`NetworkModel.sleep`, used by retry backoff and injected
    latency spikes), so per-request deadlines measure transfer cost and
    backoff on one consistent time base.
    """

    GAUGES = ("last_send_seconds",)

    messages: int = 0
    payload_bytes: int = 0
    simulated_seconds: float = 0.0
    #: Transfer cost of the most recent :meth:`NetworkModel.send` —
    #: the per-request latency the client propagates to retry deadlines.
    last_send_seconds: float = 0.0
    #: Simulated sleeps (retry backoff, injected latency spikes).
    sleeps: int = 0
    slept_seconds: float = 0.0


@dataclass
class NetworkModel:
    """Per-message latency + bandwidth cost model.

    Defaults approximate an intra-datacenter RPC: 50 µs per message and
    10 Gbit/s of bandwidth.
    """

    latency_seconds: float = 50e-6
    bandwidth_bytes_per_second: float = 10e9 / 8
    stats: NetworkStats = field(default_factory=NetworkStats)

    def __post_init__(self) -> None:
        if self.latency_seconds < 0:
            raise ConfigurationError("latency_seconds must be >= 0")
        if self.bandwidth_bytes_per_second <= 0:
            raise ConfigurationError("bandwidth must be > 0")

    def send(self, payload_bytes: int) -> float:
        """Account one message; returns its simulated transfer time."""
        cost = (
            self.latency_seconds
            + payload_bytes / self.bandwidth_bytes_per_second
        )
        self.stats.messages += 1
        self.stats.payload_bytes += payload_bytes
        self.stats.simulated_seconds += cost
        self.stats.last_send_seconds = cost
        return cost

    def sleep(self, seconds: float) -> float:
        """Advance the simulated clock without sending anything.

        Used for retry backoff and injected latency spikes — never a
        real ``time.sleep``, so chaos runs stay fast and deterministic.
        """
        if seconds < 0:
            raise ConfigurationError(f"sleep seconds must be >= 0, got {seconds}")
        self.stats.sleeps += 1
        self.stats.slept_seconds += seconds
        self.stats.simulated_seconds += seconds
        return seconds

    def now(self) -> float:
        """The simulated clock (transfer costs + sleeps so far)."""
        return self.stats.simulated_seconds
