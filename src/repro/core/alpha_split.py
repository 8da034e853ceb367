"""The α-Split algorithm of PlatoD2GL (paper §IV-C, Algorithm 1).

When a samtree leaf overflows it must be split into two halves such that
every ID in the left half is smaller than every ID in the right half —
the parent's ordered separator list demands it — *without* sorting the
(deliberately unordered) leaf.  α-Split finds an approximate median pivot
with a relaxed quickselect:

* pick the element at the median position of the current sub-array as the
  candidate pivot;
* partition the sub-array around it (Hoare-style scan that places the
  pivot at its exact sorted position);
* accept the pivot if its final position lands within ``± α`` of the
  requested split position, otherwise recurse into the half containing
  the target position.

With ``α == 0`` this is exactly QuickSelect (average ``O(n)``, paper
Theorem 1); larger α terminates earlier at the cost of less balanced
halves (paper Figure 11d shows the speed/balance trade-off).

The partition moves a *companion* array (the leaf's weight column) in
lockstep so the caller can rebuild the two new leaves'
FSTables directly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, IndexOutOfRangeError

__all__ = ["hoare_partition", "alpha_split", "split_arrays"]


def hoare_partition(
    ids: List[int],
    lo: int,
    hi: int,
    pivot_index: int,
    companion: Optional[List[float]] = None,
) -> int:
    """Partition ``ids[lo:hi + 1]`` around ``ids[pivot_index]`` in place.

    Returns the final index of the pivot: afterwards every element left of
    it is strictly smaller and every element right of it is strictly
    larger (IDs within one leaf are unique, so strictness holds).  The
    optional ``companion`` list receives the identical swaps, keeping the
    weight of each ID glued to it.

    This is the scheme of paper Algorithm 1 lines 1–3: swap the candidate
    pivot to the boundary, scan, and place it at its exact position.
    """
    if not lo <= pivot_index <= hi:
        raise IndexOutOfRangeError(
            f"pivot index {pivot_index} outside window [{lo}, {hi}]"
        )

    def swap(a: int, b: int) -> None:
        if a == b:
            return
        ids[a], ids[b] = ids[b], ids[a]
        if companion is not None:
            companion[a], companion[b] = companion[b], companion[a]

    pivot = ids[pivot_index]
    swap(pivot_index, hi)
    store = lo
    for j in range(lo, hi):
        if ids[j] < pivot:
            swap(store, j)
            store += 1
    swap(store, hi)
    return store


def alpha_split(
    ids: List[int],
    k: Optional[int] = None,
    alpha: int = 0,
    companion: Optional[List[float]] = None,
) -> int:
    """Find the α-approximate split position of the unordered ``ids``.

    Rearranges ``ids`` (and ``companion``) in place and returns a position
    ``p`` such that

    * ``ids[:p]`` are all strictly smaller than ``ids[p:]``;
    * ``k - α <= p <= k + α`` where ``k`` defaults to ``len(ids) // 2``
      (the paper initialises the target at the median for balance).

    The caller then splits the leaf into ``ids[:p]`` and ``ids[p:]``; the
    separator key for the right half is ``ids[p]`` (its exact minimum,
    because the pivot is placed at its sorted position).

    Average time ``O(n)`` (paper Theorem 1).
    """
    n = len(ids)
    if n == 0:
        raise IndexOutOfRangeError("cannot split an empty array")
    if alpha < 0:
        raise ConfigurationError(f"slackness alpha must be >= 0, got {alpha}")
    if companion is not None and len(companion) != n:
        raise ConfigurationError(
            f"companion length {len(companion)} != ids length {n}"
        )
    if k is None:
        k = n // 2
    if not 0 <= k < n:
        raise IndexOutOfRangeError(f"split position {k} out of range [0, {n})")

    lo, hi = 0, n - 1
    target = k
    while True:
        mid = (lo + hi) // 2
        pos = hoare_partition(ids, lo, hi, mid, companion)
        if target - alpha <= pos <= target + alpha and 0 < pos < n:
            # A split position of 0 or n would leave one half empty, which
            # a node split cannot accept — keep narrowing in that case.
            return pos
        if pos == target:
            # Exact hit at a degenerate boundary (n == 1 never reaches
            # here because the caller splits only overflowing leaves).
            return max(1, min(pos, n - 1))
        if target < pos:
            hi = pos - 1
        else:
            lo = pos + 1
        if lo > hi:
            # All candidates on that side exhausted; the boundary element
            # is the closest achievable pivot.
            return max(1, min(target, n - 1))


def split_arrays(
    ids: Sequence[int],
    weights: Sequence[float],
    alpha: int = 0,
) -> Tuple[List[int], List[float], List[int], List[float], int]:
    """Split parallel ``(ids, weights)`` around an α-approximate median.

    Convenience wrapper used by the samtree leaf split: returns
    ``(left_ids, left_weights, right_ids, right_weights, separator)``
    where ``separator`` is the minimum ID of the right half.
    """
    id_list = list(ids)
    weight_list = list(weights)
    pos = alpha_split(id_list, None, alpha, weight_list)
    return (
        id_list[:pos],
        weight_list[:pos],
        id_list[pos:],
        weight_list[pos:],
        id_list[pos],
    )
