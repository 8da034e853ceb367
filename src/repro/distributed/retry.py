"""Retry with exponential backoff + jitter for the distributed client.

Every :class:`~repro.distributed.client.GraphClient` read and write path
runs its per-shard RPCs through a :class:`RetryPolicy`:

* :class:`~repro.errors.TransientRPCError` is retried up to
  ``max_attempts`` times with exponential backoff and seeded jitter;
* backoff sleeps are **simulated** — charged to the
  :class:`~repro.distributed.rpc.NetworkModel` clock (never
  ``time.sleep``), so the whole cluster remains a deterministic,
  fast-running simulation;
* a per-request ``deadline_seconds`` is enforced against the same
  simulated clock (send costs + latency spikes + backoff all advance
  it), raising :class:`~repro.errors.DeadlineExceededError`;
* exhausting the attempt budget raises
  :class:`~repro.errors.RetryExhaustedError` (chained to the last
  transient failure).

:class:`~repro.errors.ShardUnavailableError` is deliberately **not**
retried here — a crashed shard stays crashed until recovered, so the
client handles it one level up via replica failover / graceful
degradation instead of burning the attempt budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    RetryExhaustedError,
    TransientRPCError,
)
from repro.obs.telemetry import Stats, Telemetry

__all__ = ["RetryPolicy", "RetryStats"]

T = TypeVar("T")


@dataclass
class RetryStats(Stats):
    """Counters of retry activity (shared across requests)."""

    attempts: int = 0
    retries: int = 0
    transient_failures: int = 0
    recoveries: int = 0
    exhausted: int = 0
    deadline_exceeded: int = 0
    backoff_seconds: float = 0.0


@dataclass
class RetryPolicy:
    """Exponential backoff + jitter over simulated time.

    Parameters
    ----------
    max_attempts:
        Total tries per request (first attempt included).
    base_backoff_seconds:
        Backoff before the second attempt; doubles (``backoff_multiplier``)
        per subsequent retry.
    backoff_multiplier:
        Geometric growth factor of the backoff.
    jitter:
        Fractional jitter: each delay is scaled by a seeded uniform draw
        from ``[1 - jitter, 1 + jitter]`` (decorrelates replica retry
        storms).
    deadline_seconds:
        Optional per-request budget of *simulated* seconds — measured on
        the clock passed to :meth:`run` (the network model's
        ``simulated_seconds`` in the client).
    seed:
        Seeds the jitter RNG so retry schedules are reproducible.
    """

    max_attempts: int = 4
    base_backoff_seconds: float = 1e-3
    backoff_multiplier: float = 2.0
    jitter: float = 0.5
    deadline_seconds: Optional[float] = None
    seed: int = 0
    stats: RetryStats = field(default_factory=RetryStats)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_seconds < 0:
            raise ConfigurationError("base_backoff_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError("deadline_seconds must be > 0")
        self._rng = random.Random(self.seed)
        #: Telemetry hub; a cluster swaps in the one it shares.
        self.telemetry = Telemetry()

    # ------------------------------------------------------------------
    @staticmethod
    def remaining(
        deadline: Optional[float], now: Optional[Callable[[], float]] = None
    ) -> float:
        """Seconds left until an *absolute* ``deadline`` on ``now``'s clock.

        Returns ``inf`` when no deadline is set and never goes negative —
        admission gates compare this against their estimated service time
        to shed requests whose deadline is already unmeetable.
        """
        if deadline is None:
            return float("inf")
        current = now() if now is not None else 0.0
        return max(0.0, deadline - current)

    def backoff_for(self, attempt: int) -> float:
        """Jittered delay before retry number ``attempt`` (1-based)."""
        delay = self.base_backoff_seconds * (
            self.backoff_multiplier ** (attempt - 1)
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def run(
        self,
        fn: Callable[[], T],
        now: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], object]] = None,
        deadline: Optional[float] = None,
    ) -> T:
        """Invoke ``fn`` with retries on :class:`TransientRPCError`.

        ``now`` reads the simulated clock (defaults to a private virtual
        clock advanced only by backoff); ``sleep`` accounts a simulated
        backoff sleep (the client passes ``NetworkModel.sleep``).  Any
        exception other than :class:`TransientRPCError` propagates
        untouched.

        ``deadline`` is an *absolute* point on ``now``'s clock (the
        serving tier threads each request's deadline through
        ``GraphClient.deadline_scope``), enforced alongside the policy's
        own relative ``deadline_seconds`` budget.  An already-expired
        deadline raises :class:`DeadlineExceededError` before the first
        attempt — a hopeless request never burns retry budget it no
        longer has.
        """
        virtual = 0.0
        start = now() if now is not None else 0.0

        def elapsed() -> float:
            return (now() - start) if now is not None else virtual

        def clock() -> float:
            return now() if now is not None else start + virtual

        def budget_left() -> float:
            """Seconds until the tighter of the two deadlines (inf = none)."""
            left = float("inf")
            if self.deadline_seconds is not None:
                left = self.deadline_seconds - elapsed()
            if deadline is not None:
                left = min(left, deadline - clock())
            return left

        if deadline is not None and clock() >= deadline:
            self.stats.deadline_exceeded += 1
            raise DeadlineExceededError(
                f"absolute deadline {deadline:.6f}s already passed at "
                f"{clock():.6f}s — request not attempted",
                attempt=0,
                timestamp=clock(),
            )

        event = self.telemetry.event
        last_exc: Optional[TransientRPCError] = None
        for attempt in range(1, self.max_attempts + 1):
            self.stats.attempts += 1
            try:
                result = fn()
            except TransientRPCError as exc:
                last_exc = exc
                self.stats.transient_failures += 1
                # Populate the structured context on the failure itself
                # so whoever ends up re-raising or logging it knows the
                # attempt and instant, not just the shard/endpoint the
                # injector stamped.
                exc.attempt = attempt
                if exc.timestamp is None:
                    exc.timestamp = clock()
                where = {
                    "attempt": attempt,
                    "shard": exc.shard,
                    "endpoint": exc.endpoint,
                }
                event("retry", "transient", t=clock(), **where)
                if budget_left() <= 0.0:
                    self.stats.deadline_exceeded += 1
                    event("retry", "deadline", t=clock(), **where)
                    raise DeadlineExceededError(
                        f"request deadline exceeded after {attempt} "
                        f"attempt(s) ({elapsed():.6f}s simulated)",
                        **where,
                        timestamp=clock(),
                    ) from exc
                if attempt == self.max_attempts:
                    break
                delay = self.backoff_for(attempt)
                if delay >= budget_left():
                    self.stats.deadline_exceeded += 1
                    event("retry", "deadline", t=clock(), **where)
                    raise DeadlineExceededError(
                        f"request deadline would elapse during backoff "
                        f"(attempt {attempt})",
                        **where,
                        timestamp=clock(),
                    ) from exc
                self.stats.retries += 1
                self.stats.backoff_seconds += delay
                if sleep is not None:
                    sleep(delay)
                else:
                    virtual += delay
            else:
                if attempt > 1:
                    self.stats.recoveries += 1
                return result
        self.stats.exhausted += 1
        event(
            "retry",
            "exhausted",
            t=clock(),
            attempts=self.max_attempts,
            shard=last_exc.shard if last_exc is not None else None,
            endpoint=last_exc.endpoint if last_exc is not None else None,
        )
        raise RetryExhaustedError(
            f"request failed on all {self.max_attempts} attempts",
            shard=last_exc.shard if last_exc is not None else None,
            endpoint=last_exc.endpoint if last_exc is not None else None,
            attempt=self.max_attempts,
            timestamp=clock(),
        ) from last_exc
