"""Admission control for the online inference tier.

Three gates run *before* the expensive sample+gather+compute pass:

* :class:`TokenBucket` — smooths sustained arrival rate (flash crowds
  drain the burst allowance, then shed);
* queue-depth bound — bounds worst-case queueing delay regardless of
  rate;
* :class:`CircuitBreaker` — per-shard closed→open→half-open breaker on
  consecutive hard failures (``RetryExhaustedError`` after failover), so
  a dead shard stops eating whole-batch deadlines cluster-wide.

Everything is measured on the simulated clock the caller passes in —
the same :class:`~repro.distributed.rpc.NetworkModel` clock retries and
deadlines use — so admission decisions are deterministic per seed.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry

__all__ = ["TokenBucket", "AdmissionGate", "CircuitBreaker"]

#: Shed causes (per-cause counters on :class:`ServiceStats`).
SHED_QUEUE_FULL = "queue_full"
SHED_DEADLINE_HOPELESS = "deadline_hopeless"
SHED_BREAKER_OPEN = "breaker_open"


class TokenBucket:
    """Classic token bucket on an external clock.

    ``rate`` tokens/second refill lazily up to ``burst``; :meth:`take`
    consumes one token or reports failure.  No internal time source —
    the caller supplies ``now`` so the bucket lives on simulated time.
    """

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(
                self.burst, self.tokens + (now - self._last) * self.rate
            )
            self._last = now

    def take(self, now: float) -> bool:
        """Consume one token at simulated time ``now``; False = dry."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def level(self, now: float) -> float:
        """Current token level (diagnostics)."""
        self._refill(now)
        return self.tokens


class AdmissionGate:
    """Rate + queue-depth gate in front of the micro-batcher.

    :meth:`check` returns ``None`` to admit or a shed-cause string
    (``queue_full`` / ``deadline_hopeless``).  Breaker-based shedding is
    decided by the service itself (it knows the request's shards).
    """

    __slots__ = ("bucket", "max_queue")

    def __init__(
        self,
        rate: float,
        burst: float,
        max_queue: int,
    ) -> None:
        if max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
        self.bucket = TokenBucket(rate, burst)
        self.max_queue = max_queue

    def check(
        self,
        now: float,
        queue_depth: int,
        deadline: Optional[float],
        estimated_completion: float,
    ) -> Optional[str]:
        """Admit (``None``) or shed (cause string) one request.

        ``estimated_completion`` is the service's projected finish time
        for this request given the current queue; a deadline the
        estimate already blows is shed as hopeless *before* spending a
        token — rate capacity is saved for requests that can still win.
        """
        if deadline is not None and estimated_completion > deadline:
            return SHED_DEADLINE_HOPELESS
        if queue_depth >= self.max_queue:
            return SHED_QUEUE_FULL
        if not self.bucket.take(now):
            return SHED_QUEUE_FULL
        return None


class CircuitBreaker:
    """Per-shard breaker: closed → open → half-open → closed.

    ``failure_threshold`` consecutive hard failures open the breaker for
    ``reset_timeout`` simulated seconds; after the timeout a **single**
    probe request is let through (half-open).  Its success closes the
    breaker, its failure re-opens it for another timeout.
    """

    __slots__ = (
        "failure_threshold",
        "reset_timeout",
        "failures",
        "opened_at",
        "probing",
        "trips",
        "shard",
        "telemetry",
    )

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 0.25,
        shard: Optional[int] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ConfigurationError(
                f"reset_timeout must be > 0, got {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.failures = 0
        self.opened_at: Optional[float] = None
        #: True while the single half-open probe is in flight.
        self.probing = False
        self.trips = 0
        #: Which shard this breaker guards (recorder events name it).
        self.shard = shard
        #: Telemetry hub; the service swaps in its cluster's.
        self.telemetry = Telemetry()

    def state(self, now: float) -> str:
        if self.opened_at is None:
            return "closed"
        if now - self.opened_at >= self.reset_timeout:
            return "half_open"
        return "open"

    def allow(self, now: float) -> bool:
        """Whether a request may touch the guarded shard right now.

        In the half-open state exactly one caller wins the probe slot;
        the rest stay shed until the probe resolves.
        """
        state = self.state(now)
        if state == "closed":
            return True
        if state == "half_open" and not self.probing:
            self.probing = True
            self.telemetry.event(
                "breaker", "half_open", t=now, shard=self.shard
            )
            return True
        return False

    def record_success(self) -> None:
        # Only a success that actually closes an open/half-open breaker
        # is a transition worth recording — the common per-seed success
        # on a closed breaker stays free.
        if self.opened_at is not None:
            self.telemetry.event("breaker", "close", shard=self.shard)
        self.failures = 0
        self.opened_at = None
        self.probing = False

    def record_failure(self, now: float) -> None:
        self.probing = False
        self.failures += 1
        if self.opened_at is not None:
            # Failed while open / half-open: restart the timeout.
            self.opened_at = now
            self.telemetry.event("breaker", "reopen", t=now, shard=self.shard)
            return
        if self.failures >= self.failure_threshold:
            self.opened_at = now
            self.trips += 1
            self.telemetry.event("breaker", "open", t=now, shard=self.shard)
