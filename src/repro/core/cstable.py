"""CSTable: the cumulative-sum table + ITS sampling (paper §II-B).

The CSTable is the classic Inverse Transform Sampling (ITS) index used by
PlatoGL [24] and by the *internal* nodes of a PlatoD2GL samtree.  Entry
``C[i]`` is the strict prefix sum ``w_0 + ... + w_i`` (Equation 2), so a
weighted draw is a binary search for the smallest ``i`` with ``C[i] > R``.

Its costs are the reference point of the paper's Table II:

* appending a new last element is ``O(1)``;
* an in-place update or a deletion rewrites every later entry, ``O(n)``;
* a weighted sample is a binary search, ``O(log n)``.

Inside the samtree the table is small (one entry per child, at most the
node capacity), so the ``O(n)`` maintenance is bounded by the fan-out;
inside PlatoGL it grows with the block size, which is exactly the
inefficiency PlatoD2GL's FSTable removes.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Iterable, Iterator, List, Optional

from repro.errors import (
    EmptyStructureError,
    IndexOutOfRangeError,
    InvalidWeightError,
)

__all__ = ["CSTable"]


def _validate_weight(weight: float) -> float:
    weight = float(weight)
    if math.isnan(weight) or math.isinf(weight) or weight < 0.0:
        raise InvalidWeightError(
            f"edge weights must be finite and non-negative, got {weight!r}"
        )
    return weight


class CSTable:
    """Strict prefix-sum table with ITS weighted sampling.

    Stores ``C[i] = sum(weights[:i + 1])``.  The memory cost matches the
    raw weight array (one float per element), as the paper notes.
    """

    __slots__ = ("_sums",)

    def __init__(self, weights: Optional[Iterable[float]] = None) -> None:
        self._sums: List[float] = []
        if weights is not None:
            running = 0.0
            for w in weights:
                running += _validate_weight(w)
                self._sums.append(running)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sums)

    def __bool__(self) -> bool:
        return bool(self._sums)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSTable(n={len(self._sums)}, total={self.total():.6g})"

    def __iter__(self) -> Iterator[float]:
        """Iterate over *raw* weights."""
        return iter(self.to_weights())

    def _check_index(self, i: int) -> None:
        if not 0 <= i < len(self._sums):
            raise IndexOutOfRangeError(
                f"index {i} out of range for CSTable of {len(self._sums)} elements"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def prefix_sum(self, i: int) -> float:
        """Return ``w_0 + ... + w_i`` in ``O(1)``."""
        self._check_index(i)
        return self._sums[i]

    def total(self) -> float:
        """Sum of all weights (``0.0`` when empty)."""
        return self._sums[-1] if self._sums else 0.0

    def weight(self, i: int) -> float:
        """Recover the raw weight ``w_i`` in ``O(1)``."""
        self._check_index(i)
        if i == 0:
            return self._sums[0]
        return self._sums[i] - self._sums[i - 1]

    def to_weights(self) -> List[float]:
        """Return the raw weight array in ``O(n)``."""
        weights: List[float] = []
        prev = 0.0
        for s in self._sums:
            weights.append(s - prev)
            prev = s
        return weights

    # ------------------------------------------------------------------
    # dynamic updates — the costs PlatoD2GL's FSTable improves on
    # ------------------------------------------------------------------
    def append(self, weight: float) -> int:
        """Append a new last element in ``O(1)``; returns its index."""
        weight = _validate_weight(weight)
        self._sums.append(self.total() + weight)
        return len(self._sums) - 1

    def extend(self, weights: Iterable[float]) -> None:
        """Append many weights."""
        for w in weights:
            self.append(w)

    def update(self, i: int, new_weight: float) -> float:
        """Set ``w_i`` — rewrites all later prefix sums, ``O(n - i)``.

        Returns the previous weight.
        """
        new_weight = _validate_weight(new_weight)
        old = self.weight(i)
        delta = new_weight - old
        if delta:
            for j in range(i, len(self._sums)):
                self._sums[j] += delta
        return old

    def add(self, i: int, delta: float) -> None:
        """Add ``delta`` to ``w_i`` (``O(n - i)``)."""
        if math.isnan(delta) or math.isinf(delta):
            raise InvalidWeightError(f"delta must be finite, got {delta!r}")
        self._check_index(i)
        for j in range(i, len(self._sums)):
            self._sums[j] += delta

    def delete(self, i: int) -> float:
        """Remove the element at ``i``, shifting later entries: ``O(n - i)``.

        Returns the deleted weight.  (Unlike the FSTable, the CSTable keeps
        positional order, so deletion is a shift, not a swap.)
        """
        removed = self.weight(i)
        for j in range(i + 1, len(self._sums)):
            self._sums[j - 1] = self._sums[j] - removed
        self._sums.pop()
        return removed

    def insert(self, i: int, weight: float) -> None:
        """Insert a weight *before* index ``i`` (``O(n - i)``)."""
        weight = _validate_weight(weight)
        if not 0 <= i <= len(self._sums):
            raise IndexOutOfRangeError(
                f"insert position {i} out of range for CSTable of "
                f"{len(self._sums)} elements"
            )
        prev = self._sums[i - 1] if i > 0 else 0.0
        self._sums.insert(i, prev + weight)
        for j in range(i + 1, len(self._sums)):
            self._sums[j] += weight

    def clear(self) -> None:
        """Remove all elements."""
        self._sums.clear()

    # ------------------------------------------------------------------
    # ITS sampling
    # ------------------------------------------------------------------
    def search(self, r: float) -> int:
        """Return the smallest ``i`` with ``C[i] > r`` (ITS rule).

        ``r`` must lie in ``[0, total())``; out-of-range masses are clamped
        to the last element for robustness against floating-point drift.
        """
        if not self._sums:
            raise EmptyStructureError("cannot search an empty CSTable")
        if r < 0:
            raise InvalidWeightError(f"sampling mass must be non-negative, got {r}")
        i = bisect.bisect_right(self._sums, r)
        if i >= len(self._sums):
            i = len(self._sums) - 1
        return i

    def sample(self, rng: Optional[random.Random] = None) -> int:
        """Draw one index with probability proportional to its weight."""
        total = self.total()
        if total <= 0.0:
            if not self._sums:
                raise EmptyStructureError("cannot sample from an empty CSTable")
            rand = rng.random() if rng is not None else random.random()
            return int(rand * len(self._sums)) % len(self._sums)
        rand = rng.random() if rng is not None else random.random()
        return self.search(rand * total)

    def sample_many(self, k: int, rng: Optional[random.Random] = None) -> List[int]:
        """Draw ``k`` indices with replacement."""
        if k < 0:
            raise IndexOutOfRangeError(f"sample count must be >= 0, got {k}")
        return [self.sample(rng) for _ in range(k)]

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def nbytes(self, weight_bytes: int = 4) -> int:
        """Bytes a C implementation would use (one float per element)."""
        return weight_bytes * len(self._sums)
