"""Log₂-bucketed latency histogram (the telemetry layer's distribution type).

* **exact bucketing** — bucket assignment is computed with
  :func:`math.frexp` on the float microsecond value instead of the old
  ``int(us)`` truncation, so fractional observations land in the bucket
  their documented range ``[2^(i-1), 2^i)`` claims, and the mapping is
  pinned by :meth:`bucket_bounds` plus a property test
  (``tests/test_obs.py``);
* **overflow honesty** — the last bucket is open-ended
  (``[2^(n-2) µs, ∞)``); :meth:`bucket_bounds` reports ``inf`` and
  :meth:`percentile` answers queries landing there with the recorded
  maximum instead of a fabricated power-of-two bound;
* **merge / snapshot** — :meth:`merge` folds a peer histogram in (the
  per-thread-then-merge pattern the concurrency tests exercise), and
  :meth:`state` captures an immutable snapshot the registry diff uses.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError

__all__ = ["LatencyHistogram", "NUM_BUCKETS"]

#: Bucket 0 covers < 1 µs; bucket ``i`` covers ``[2^(i-1), 2^i)`` µs for
#: ``0 < i < NUM_BUCKETS - 1``; the last bucket is open-ended.
NUM_BUCKETS = 24


class LatencyHistogram:
    """Log₂-bucketed latency histogram (microsecond resolution)."""

    __slots__ = ("_buckets", "_count", "_sum", "_max")

    def __init__(self) -> None:
        self._buckets = [0] * NUM_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @staticmethod
    def bucket_index(seconds: float) -> int:
        """Bucket of one observation (exact, no integer truncation).

        ``frexp(us) = (m, e)`` with ``us = m * 2**e`` and
        ``0.5 <= m < 1``, so ``us ∈ [2^(e-1), 2^e)`` — bucket ``e``,
        clamped to ``[0, NUM_BUCKETS - 1]``.
        """
        us = seconds * 1e6
        if us <= 0.0:
            return 0
        _, exp = math.frexp(us)
        if exp < 0:
            return 0
        return exp if exp < NUM_BUCKETS else NUM_BUCKETS - 1

    def record(self, seconds: float) -> None:
        """Record one observation."""
        if seconds < 0:
            raise ConfigurationError(f"latency cannot be negative: {seconds}")
        self._buckets[self.bucket_index(seconds)] += 1
        self._count += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds

    # ------------------------------------------------------------------
    # bucket geometry
    # ------------------------------------------------------------------
    @staticmethod
    def bucket_bounds() -> List[Tuple[float, float]]:
        """Half-open ``[lo, hi)`` range of every bucket, in **seconds**.

        Bucket 0 is ``[0, 1µs)``; bucket ``i`` is ``[2^(i-1), 2^i)`` µs;
        the last bucket is ``[2^(n-2) µs, inf)`` — every recordable value
        falls inside exactly one bucket (the property test's invariant).
        """
        bounds: List[Tuple[float, float]] = [(0.0, 1e-6)]
        for i in range(1, NUM_BUCKETS - 1):
            bounds.append(((1 << (i - 1)) * 1e-6, (1 << i) * 1e-6))
        bounds.append(((1 << (NUM_BUCKETS - 2)) * 1e-6, math.inf))
        return bounds

    def bucket_counts(self) -> List[int]:
        """Per-bucket observation counts (copy)."""
        return list(self._buckets)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        """Total recorded seconds."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean latency in seconds."""
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest recorded latency in seconds."""
        return self._max

    def percentile(self, q: float) -> float:
        """Approximate latency at quantile ``q`` (bucket upper bound,
        seconds).  q in [0, 1].  Queries resolving to the open-ended
        overflow bucket answer with the recorded maximum."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        target = q * self._count
        seen = 0
        for i, c in enumerate(self._buckets):
            seen += c
            if seen >= target:
                if i == NUM_BUCKETS - 1:
                    return self._max
                return (1 << i) * 1e-6
        return self._max

    # ------------------------------------------------------------------
    # merge / snapshot / reset
    # ------------------------------------------------------------------
    def state(self) -> Tuple[Tuple[int, ...], int, float, float]:
        """Immutable ``(buckets, count, sum, max)`` snapshot (diff unit)."""
        return (tuple(self._buckets), self._count, self._sum, self._max)

    @classmethod
    def from_state(
        cls, state: Tuple[Tuple[int, ...], int, float, float]
    ) -> "LatencyHistogram":
        """Rebuild a histogram from a :meth:`state` tuple.

        The monitor's ``quantile_over_time`` subtracts two scrape states
        and rehydrates the delta into a real histogram so the existing
        :meth:`percentile` machinery answers windowed
        quantile queries.  Components are clamped at zero so a slightly
        inconsistent delta (e.g. across a reset) degrades to an empty
        histogram instead of corrupting quantile math.
        """
        buckets, count, total, mx = state
        if len(buckets) != NUM_BUCKETS:
            raise ConfigurationError(
                f"state has {len(buckets)} buckets, expected {NUM_BUCKETS}"
            )
        hist = cls()
        hist._buckets = [max(0, int(b)) for b in buckets]
        hist._count = max(0, int(count))
        hist._sum = max(0.0, float(total))
        hist._max = max(0.0, float(mx))
        return hist

    def reset(self) -> None:
        self._buckets = [0] * NUM_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p99 / max in one dict (seconds)."""
        return {
            "count": float(self._count),
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "max": self._max,
        }
