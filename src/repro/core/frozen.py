"""The alias column of the read image: its builder and its draw kernel.

The read image (:mod:`repro.core.snapshot`) answers a weighted draw by
binary search over a row's cumulative weights — right for rows that are
rewritten between reads.  ``freeze()`` adds two arena-parallel columns,
``alias_prob`` / ``alias_idx``: a per-row **alias table** (Walker/Vose)
over the same weights.  A weighted draw is then ``slot = floor(u *
deg)``, ``frac = u * deg - slot``, pick ``slot`` if ``frac <
alias_prob[slot]`` else ``alias_idx[slot]`` — O(1) per draw, the whole
frontier × fanout matrix in one uniform block and a handful of in-place
ufuncs + gathers, zero per-vertex Python and zero binary searches.

These are plain functions over image columns; the image decides which
rows they see.  The table is an *exact* decomposition of each row's
weights up to float residue (a zero-weight edge gets cell probability 0
and is never selected; an all-zero or equal-weight row keeps the
identity table, exactly the uniform fallback of the binary-search rows
and the descent), so alias draws match the ITS/FTS descent distribution
— chi-square-pinned in ``tests/test_frozen.py``, checked row by row by
:meth:`~repro.core.snapshot.ReadImage.stale_rows` via :func:`alias_mass`.

A row's weights are read back from its cumulative column by
differencing: a zero weight differences to exactly zero, and an edge
whose weight the running sum absorbed is one the binary search over the
same column never selects either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.fenwick import ROW_PAD, pad_rows
from repro.obs.telemetry import Stats

__all__ = [
    "FrozenStats",
    "alias_mass",
    "build_alias",
    "draw_alias",
]


@dataclass
class FrozenStats(Stats):
    """Counters for the alias path (registered as ``repro_frozen_*``)."""

    compiles: int = 0  #: relations frozen (every ``freeze()`` counts)
    thaws: int = 0  #: relations thawed
    compiled_rows: int = 0  #: cumulative rows given an alias table
    compiled_edges: int = 0  #: cumulative edges of those rows
    batches: int = 0  #: batched reads of a frozen relation
    vertices: int = 0  #: frontier rows drawn by the alias kernel
    draws: int = 0  #: neighbor draws those rows produced
    stale_misses: int = 0  #: frontier rows of a frozen relation drawn
    #: by binary search instead (written since their table was built)
    missing_vertices: int = 0  #: alias-path rows with no adjacency


# ---------------------------------------------------------------------------
# the builder
# ---------------------------------------------------------------------------
def build_alias(
    cum: np.ndarray, start: np.ndarray, length: np.ndarray,
    alias_prob: np.ndarray, alias_idx: np.ndarray,
) -> None:
    """Write the Walker/Vose tables of the rows ``(start, length)`` of
    the cumulative-weight column ``cum`` into the alias columns.

    Cell ``c`` of a row yields edge ``c`` with probability
    ``alias_prob[c]`` and the edge at arena position ``alias_idx[c]``
    otherwise.  The identity table (``prob=1``, ``alias=self``) is exact
    for equal-weight rows — including all-zero rows, where it reproduces
    the uniform fallback — and for rows of one edge, so those skip the
    pairing.  Rows of at most ``ROW_PAD`` edges are paired together, in
    vectorised rounds; longer rows one by one.
    """
    short = length <= ROW_PAD
    if short.any():
        _pair_short_rows(cum, start[short], length[short], alias_prob, alias_idx)
    long = ~short
    for lo, m in zip(start[long].tolist(), length[long].tolist()):
        _pair_row(cum, lo, lo + m, alias_prob, alias_idx)


def _pair_short_rows(cum, start, length, alias_prob, alias_idx) -> None:
    """Vose pairing of many short rows at once: every round pairs one
    small cell with one large cell in each row that still has both."""
    sums, pos, inside = pad_rows(cum, start, length)
    weights = np.diff(sums, axis=1, prepend=0.0)
    weights[~inside] = 0.0
    cells = pos[inside]
    alias_prob[cells] = 1.0
    alias_idx[cells] = cells
    total = sums.max(axis=1)  # a cumulative row ends on its maximum
    lowest = np.where(inside, weights, np.inf).min(axis=1)
    rows = np.flatnonzero((lowest != weights.max(axis=1)) & (total > 0.0))
    # weight / total first: ``length / total`` overflows on a denormal total.
    scaled = weights[rows] / total[rows][:, None] * length[rows][:, None]
    pos = pos[rows]
    small = inside[rows] & (scaled < 1.0)
    large = inside[rows] & ~small
    while True:
        live = np.flatnonzero(small.any(axis=1) & large.any(axis=1))
        if live.size == 0:
            # Leftovers on either side are float residue: their scaled
            # mass is ~1, and the identity cell is the exact limit.
            return
        if live.size < len(scaled):
            scaled, pos = scaled[live], pos[live]
            small, large = small[live], large[live]
        row = np.arange(len(scaled))
        s = small.argmax(axis=1)
        l = large.argmax(axis=1)
        kept = scaled[row, s]
        cell = pos[row, s]
        alias_prob[cell] = kept
        alias_idx[cell] = pos[row, l]
        small[row, s] = False
        rest = scaled[row, l] - (1.0 - kept)
        scaled[row, l] = rest
        shrunk = rest < 1.0
        small[row, l] = shrunk
        large[row, l] = ~shrunk


def _pair_row(cum, lo: int, hi: int, alias_prob, alias_idx) -> None:
    """Vose pairing of the one row at arena ``[lo, hi)``."""
    alias_prob[lo:hi] = 1.0
    alias_idx[lo:hi] = np.arange(lo, hi)
    row = np.diff(cum[lo:hi], prepend=0.0)
    total = float(cum[hi - 1])
    if float(row.min()) == float(row.max()) or total <= 0.0:
        return  # the identity table is already exact
    deg = hi - lo
    scaled = (row / total * deg).tolist()
    small: List[int] = []
    large: List[int] = []
    for i, q in enumerate(scaled):
        (small if q < 1.0 else large).append(i)
    prob = [1.0] * deg
    alias = list(range(lo, hi))
    while small and large:
        s = small.pop()
        l = large.pop()
        prob[s] = scaled[s]
        alias[s] = lo + l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    alias_prob[lo:hi] = prob
    alias_idx[lo:hi] = alias


def alias_mass(
    alias_prob: np.ndarray, alias_idx: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """The probability the table of the row at arena ``[lo, hi)`` gives
    each of its edges (what :func:`draw_alias` draws from)."""
    kept = alias_prob[lo:hi]
    mass = kept.copy()
    np.add.at(mass, alias_idx[lo:hi] - lo, 1.0 - kept)
    return mass / (hi - lo)


# ---------------------------------------------------------------------------
# the draw kernel
# ---------------------------------------------------------------------------
def draw_alias(
    ids: np.ndarray, alias_prob: np.ndarray, alias_idx: np.ndarray,
    lo: np.ndarray, deg: np.ndarray, gen: np.random.Generator,
    uniform: bool, workspace: tuple,
) -> np.ndarray:
    """Weighted (or uniform) fanout draws for a whole frontier.

    ``lo`` / ``deg`` are the ``(n, 1)`` arena starts and lengths of the
    frontier's rows, ``workspace`` five ``(n, k)`` buffers — two
    float64, two int64, one bool — that every step writes through
    ``out=``.  One uniform block, then in-place arithmetic and
    flat gathers against the alias table; no per-vertex Python, no
    binary searches.  Zero-length rows index garbage (``mode="clip"``
    keeps it in bounds): the caller masks them.
    """
    uf, tf, slot, chosen, keep = workspace
    gen.random(out=uf)
    np.multiply(uf, deg, out=uf)  # u * deg in [0, deg)
    np.copyto(slot, uf, casting="unsafe")  # trunc == floor (u >= 0)
    if uniform:
        np.minimum(slot, deg - 1, out=slot)  # float round-up guard
        np.add(slot, lo, out=slot)
        chosen = slot
    else:
        np.subtract(uf, slot, out=uf)  # frac, before the clamp
        np.minimum(slot, deg - 1, out=slot)
        np.add(slot, lo, out=slot)  # edge position of the cell
        # Alias decision: keep the cell with prob alias_prob, else
        # take its alias.
        alias_prob.take(slot, mode="clip", out=tf)
        np.less(uf, tf, out=keep)
        alias_idx.take(slot, mode="clip", out=chosen)
        np.copyto(chosen, slot, where=keep)
    return ids.take(chosen, mode="clip")
