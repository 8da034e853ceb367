"""Seeded fault injection for the distributed tier.

The paper's storage tier runs on 54 of 74 physical servers under live
WeChat traffic — at that scale transient RPC failures, latency spikes,
and outright shard crashes are routine operating conditions, not edge
cases.  This module makes them reproducible: a :class:`FaultInjector`
sits in front of every :class:`~repro.distributed.server.GraphServer`
endpoint and, driven by one seeded RNG, injects the three fault kinds of
a :class:`FaultPolicy`:

* **transient RPC errors** (:class:`~repro.errors.TransientRPCError`) —
  the request never reaches the endpoint body, so retrying is safe;
* **latency spikes** — extra simulated seconds charged to the
  :class:`~repro.distributed.rpc.NetworkModel` (slow replica /
  congested link), visible to retry deadlines;
* **hard crashes** — the server's volatile state is dropped
  (:meth:`GraphServer.crash`) and the request fails with
  :class:`~repro.errors.ShardUnavailableError`; the shard stays down
  until explicitly recovered.

Because the injector raises *before* the endpoint body runs, injected
faults never leave partial state behind — the property the chaos soak
test (tests/test_chaos.py) relies on when it asserts recovered state
equals a fault-free reference run.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from repro.errors import (
    ConfigurationError,
    ShardUnavailableError,
    TransientRPCError,
)
from repro.obs.telemetry import Stats, Telemetry

__all__ = ["FaultPolicy", "FaultStats", "FaultInjector"]


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultPolicy:
    """Per-request fault probabilities (evaluated independently).

    All rates are per *endpoint request* — the unit the client already
    accounts as one simulated message.
    """

    transient_error_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_seconds: float = 5e-3
    crash_rate: float = 0.0

    def __post_init__(self) -> None:
        _check_rate("transient_error_rate", self.transient_error_rate)
        _check_rate("latency_spike_rate", self.latency_spike_rate)
        _check_rate("crash_rate", self.crash_rate)
        if self.latency_spike_seconds < 0:
            raise ConfigurationError("latency_spike_seconds must be >= 0")


@dataclass
class FaultStats(Stats):
    """Counters of injected faults (cluster-wide when the injector is
    shared)."""

    requests: int = 0
    transient_errors: int = 0
    latency_spikes: int = 0
    spike_seconds: float = 0.0
    crashes: int = 0
    refused_while_down: int = 0


class FaultInjector:
    """Seeded chaos source wrapped around graph-server endpoints.

    One injector is normally shared by every server of a cluster so a
    single seed reproduces the whole cluster's fault schedule.

    Parameters
    ----------
    policy:
        The fault probabilities.
    seed:
        Seeds the injector's private RNG — the same seed over the same
        request sequence injects the same faults.
    network:
        Optional :class:`~repro.distributed.rpc.NetworkModel`; latency
        spikes are charged to it so retry deadlines observe them.
    """

    __slots__ = ("policy", "network", "stats", "telemetry", "_rng")

    def __init__(
        self,
        policy: FaultPolicy,
        seed: int = 0,
        network=None,
    ) -> None:
        self.policy = policy
        self.network = network
        self.stats = FaultStats()
        #: Telemetry hub; a cluster swaps in the one it shares.
        self.telemetry = Telemetry(
            clock=network.now if network is not None else None
        )
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # runtime chaos knob
    # ------------------------------------------------------------------
    def set_policy(self, policy: "FaultPolicy") -> "FaultPolicy":
        """Swap the active fault policy, returning the previous one.

        Scenario harnesses use this as a runtime chaos knob (e.g. a
        brownout phase raises ``latency_spike_rate`` mid-run and
        restores the returned policy afterwards).  The RNG stream is
        untouched, so a swapped-and-restored schedule stays replayable.
        """
        previous = self.policy
        self.policy = policy
        self.telemetry.event(
            "fault",
            "policy_swap",
            old=asdict(previous),
            new=asdict(policy),
        )
        return previous

    # ------------------------------------------------------------------
    # the hook servers call on every endpoint entry
    # ------------------------------------------------------------------
    def on_request(self, server, endpoint: str) -> float:
        """Roll the dice for one request against ``server``.

        Returns extra simulated latency seconds (0.0 normally); raises
        :class:`TransientRPCError` or — after crashing the server —
        :class:`ShardUnavailableError`.
        """
        self.stats.requests += 1
        rng = self._rng
        policy = self.policy
        if policy.crash_rate and rng.random() < policy.crash_rate:
            self.stats.crashes += 1
            self._event("injected_crash", server, endpoint)
            server.crash()
            raise ShardUnavailableError(
                f"injected crash: shard {server.shard_id} replica "
                f"{server.replica_index} went down during {endpoint!r}",
                shard=server.shard_id,
                endpoint=endpoint,
                timestamp=self.telemetry.now(),
            )
        if (
            policy.transient_error_rate
            and rng.random() < policy.transient_error_rate
        ):
            self.stats.transient_errors += 1
            self._event("transient", server, endpoint)
            raise TransientRPCError(
                f"injected transient fault on shard {server.shard_id} "
                f"replica {server.replica_index} endpoint {endpoint!r}",
                shard=server.shard_id,
                endpoint=endpoint,
                timestamp=self.telemetry.now(),
            )
        if (
            policy.latency_spike_rate
            and rng.random() < policy.latency_spike_rate
        ):
            spike = policy.latency_spike_seconds
            self.stats.latency_spikes += 1
            self.stats.spike_seconds += spike
            self._event("latency_spike", server, endpoint, seconds=spike)
            if self.network is not None:
                self.network.sleep(spike)
            return spike
        return 0.0

    def _event(self, kind: str, server, endpoint: str, **fields) -> None:
        self.telemetry.event(
            "fault",
            kind,
            shard=server.shard_id,
            replica=server.replica_index,
            endpoint=endpoint,
            **fields,
        )

    def note_refused(self) -> None:
        """Count a request refused because the shard was already down."""
        self.stats.refused_while_down += 1
