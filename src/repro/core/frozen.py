"""The alias column of the read image: its builder and its draw kernel.

The read image (:mod:`repro.core.snapshot`) answers a weighted draw by
binary search over a row's cumulative weights — right for rows that are
rewritten between reads.  ``freeze()`` adds two columns, ``alias_prob``
/ ``alias_idx``, beside a row's entries (in the slab for a small
source, in the image's arena for a samtree): a per-row **alias table**
(Walker/Vose) over the same weights.  A weighted draw is then ``slot =
floor(u * deg)``, ``frac = u * deg - slot``, pick ``slot`` if ``frac <
alias_prob[slot]`` else ``alias_idx[slot]`` — O(1) per draw, the whole
frontier × fanout matrix in one uniform block and a handful of in-place
ufuncs + gathers, zero per-vertex Python and zero binary searches.

A cell's alias is an **offset within its row** (a table moves with its
row as plain bytes), as narrow as its home's longest row allows:
``np.min_scalar_type(c - 1)`` in the slab, ``uint32`` in the arena.

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

The builder (:func:`build_alias`) gathers its rows' cells back to back,
unpadded, and scatters each table back flat.  Rows of at most
``ROW_PAD`` edges pair in rounds over the rows still pairing, each row's
*lowest-offset* small cell with its *lowest-offset* large one; longer
rows pair one by one in stack order, the *last* small cell with the
*last* large one.  The orders give different, equally exact tables: the
golden draws (``tests/test_golden_draws.py``) pin both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fenwick import ROW_PAD
from repro.obs.telemetry import Stats

__all__ = [
    "FrozenStats",
    "alias_cells",
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
    ``alias_prob[c]`` and the edge at offset ``alias_idx[c]`` of the
    row otherwise.  The identity table (``prob=1``, ``alias=c``) is exact
    for equal-weight rows — including all-zero rows, where it reproduces
    the uniform fallback — and for rows of one edge, so those skip the
    pairing.  Rows of at most ``ROW_PAD`` edges are paired together, in
    rounds; longer rows one by one, in stack order.
    """
    for pair, rows in (
        (_pair_short_rows, (length > 0) & (length <= ROW_PAD)),
        (_pair_long_rows, length > ROW_PAD),
    ):
        if not rows.any():
            continue
        n = length[rows]
        first = np.cumsum(n) - n  # each row's offset among the cells
        col = np.arange(int(first[-1] + n[-1])) - first.repeat(n)
        cells = start[rows].repeat(n) + col
        sums = cum.take(cells)
        weights = np.empty_like(sums)
        np.subtract(sums[1:], sums[:-1], out=weights[1:])
        weights[first] = sums[first]
        total = sums.take(first + n - 1)  # a cumulative row ends on its maximum
        uneven = weights != weights[first].repeat(n)
        pairing = np.logical_or.reduceat(uneven, first) & (total > 0.0)
        total[~pairing] = 1.0
        # weight / total first: ``length / total`` overflows on a denormal total.
        scaled = weights / total.repeat(n) * n.repeat(n)
        alias = col.copy()
        pair(scaled, alias, col, first, n, pairing)
        # A paired cell keeps the mass it was paired with.  Leftovers on
        # either side are float residue: their scaled mass is ~1, and the
        # identity cell is the exact limit.
        alias_prob[cells] = np.where(alias != col, scaled, 1.0)
        alias_idx[cells] = alias


def _pair_short_rows(scaled, alias, col, first, length, pairing) -> None:
    """Vose pairing of the ``pairing`` rows at once: every round pairs
    the lowest-offset small cell with the lowest-offset large cell in
    each row that still has both.  A row's state is two bit masks (its
    small and its large cells), so a round costs O(rows still pairing)."""
    small = np.add.reduceat((scaled < 1.0) << col, first)
    large = ((1 << length) - 1) ^ small
    rows = pairing.nonzero()[0]
    small, large, base = small[rows], large[rows], first[rows] - 1
    while True:
        live = ((small != 0) & (large != 0)).nonzero()[0]
        if live.size == 0:
            return
        if live.size < small.size:
            small, large, base = small[live], large[live], base[live]
        low_small = small & -small  # each mask's lowest bit
        low_large = large & -large
        small ^= low_small
        # frexp(2 ** i) is (0.5, i + 1); ``base`` is the cell before the row.
        s = base + np.frexp(low_small)[1]
        l = base + np.frexp(low_large)[1]
        kept = scaled.take(s)
        alias[s] = col.take(l)
        rest = scaled.take(l) - (1.0 - kept)
        scaled[l] = rest
        low_large *= rest < 1.0  # the large cells that shrank turn small
        small |= low_large
        large ^= low_large


def _pair_long_rows(scaled, alias, col, first, length, pairing) -> None:
    """Vose pairing of the ``pairing`` rows one by one, in stack order:
    the last small cell pairs with the last large one, and a large cell
    that shrinks is the next small cell."""
    below = scaled < 1.0
    for a, n in zip(first[pairing].tolist(), length[pairing].tolist()):
        small = below[a : a + n].nonzero()[0].tolist()
        large = (~below[a : a + n]).nonzero()[0].tolist()
        if not (small and large):
            continue
        mass, to = scaled[a : a + n].tolist(), list(range(n))
        s, l = small.pop(), large.pop()
        rest = mass[l]
        while True:
            to[s] = l
            rest -= 1.0 - mass[s]
            if rest < 1.0:
                mass[l] = rest
                if not large:
                    break
                s, l = l, large.pop()
                rest = mass[l]
            elif small:
                s = small.pop()
            else:
                break
        scaled[a : a + n] = mass
        alias[a : a + n] = to


def alias_mass(
    alias_prob: np.ndarray, alias_idx: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """The probability the table of the row at arena ``[lo, hi)`` gives
    each of its edges (what :func:`draw_alias` draws from); all NaN when
    a cell names an offset past the row, which no weights match."""
    kept, alias = alias_prob[lo:hi], alias_idx[lo:hi]
    if alias.max(initial=0) >= hi - lo:
        return np.full(hi - lo, np.nan)
    return (np.bincount(alias, 1.0 - kept, minlength=hi - lo) + kept) / (hi - lo)


# ---------------------------------------------------------------------------
# the draw kernel
# ---------------------------------------------------------------------------
def alias_cells(uf: np.ndarray, deg: np.ndarray, uniform: bool, slot) -> None:
    """Step one of a frontier draw, in place: ``slot`` takes the cell
    ``floor(u * deg)`` of each uniform of ``uf`` (``deg``: ``(n, 1)``
    row lengths), and ``uf`` the fraction a weighted draw tests."""
    np.multiply(uf, deg, out=uf)  # u * deg in [0, deg)
    np.copyto(slot, uf, casting="unsafe")  # trunc == floor (u >= 0)
    if not uniform:
        np.subtract(uf, slot, out=uf)  # frac, before the clamp
    np.minimum(slot, deg - 1, out=slot)  # float round-up guard


def draw_alias(
    ids: np.ndarray, alias_prob: np.ndarray, alias_idx: np.ndarray,
    cell: np.ndarray, lo: np.ndarray, frac: np.ndarray, uniform: bool,
    tf=None, narrow=None, chosen=None, keep=None,
) -> np.ndarray:
    """Step two: the ids drawn at arena positions ``cell`` (row start
    ``lo`` + cell) — the cell with probability ``alias_prob``, else ``lo``
    + its alias — by flat gathers through the buffers given, no per-vertex
    Python.  A zero-length row indexes garbage (``mode="clip"``): the
    caller masks it."""
    if uniform:
        return ids.take(cell, mode="clip")
    keep = np.less(frac, alias_prob.take(cell, mode="clip", out=tf), out=keep)
    chosen = np.add(alias_idx.take(cell, mode="clip", out=narrow), lo, out=chosen)
    np.copyto(chosen, cell, where=keep)
    return ids.take(chosen, mode="clip")
