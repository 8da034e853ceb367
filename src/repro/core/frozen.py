"""FrozenShard: flattened CSC sampling kernels for the hot read path.

The read image (:mod:`repro.core.snapshot`) serves a store that is
being written to: rows are re-flattened one by one as they are read.
A store that is *not* being written to can do better than a binary
search per draw.

A :class:`FrozenShard` compiles *all* sources of one relation into one
CSC-style columnar image — the layout DGL's ``CSCSamplingGraph`` and the
static serving tier of Euler/Plato use, grown here from live samtrees:

* ``src_ids``        — sorted source vertices (the row directory; a
  frontier lookup is one vectorized ``searchsorted``);
* ``indptr``         — row offsets into the edge arrays;
* ``neighbor_ids``   — all destination IDs, row-major;
* ``cum_weights``    — one *global* inclusive prefix sum over the edge
  weights (row ``r`` starts at mass ``row_base[r]``); ``row_total`` is
  each row's mass, summed from the weight column itself;
* ``alias_prob`` / ``alias_idx`` — a per-row **alias table**
  (Walker/Vose) compiled from the same weights.  A weighted draw is
  ``slot = floor(u * deg)``, ``frac = u * deg - slot``, then pick
  ``slot`` if ``frac < alias_prob[slot]`` else ``alias_idx[slot]`` —
  O(1) per draw, the whole frontier × fanout matrix in one uniform
  block and a handful of in-place ufuncs + gathers, zero per-vertex
  Python and zero binary searches.  (A segment-offset ``searchsorted``
  over ``cum_weights`` gives the same distribution but pays ~65ns of
  per-query dispatch inside numpy — the alias kernel is what clears
  the 10× bar over the warm snapshot path.)
* ``epoch``          — the store's mutation epoch stamped at compile
  time.  Every store mutation entry point bumps the epoch (the same
  call that sets the read image's dirty bit), and a frozen shard is
  served only while ``shard.epoch == store_epoch`` — any post-compile
  mutation sends reads to the read image until the next
  :meth:`~repro.core.topology.DynamicGraphStore.freeze`, never a stale
  read.

Distribution equivalence: the alias table is an *exact* decomposition
of each row's weight vector (zero-weight edges get cell probability 0
and are never selected; an all-zero or equal-weight row keeps the
identity table, which degrades to exactly the uniform fallback of the
read image and the descent), so frozen weighted
draws match the ITS/FTS descent distribution — chi-square-pinned in
``tests/test_frozen.py``.

Compilation reuses the bulk-build leaf walk
(:func:`~repro.core.snapshot.flatten_tree` — one CP-ID decode and one
weight-column copy per leaf), so freezing an ``E``-edge shard is ``O(E)``
with Python-level work proportional to the number of tree leaves only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.core.snapshot import flatten_tree
from repro.errors import ConfigurationError
from repro.obs.telemetry import Stats

__all__ = ["FrozenShard", "FrozenStats"]


def _build_alias(
    weights: np.ndarray, indptr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row Walker/Vose alias tables over a CSC weight column.

    Returns ``(alias_prob, alias_idx)`` aligned with the edge arrays:
    cell ``c`` of row ``r`` yields edge ``c`` with probability
    ``alias_prob[c]`` and edge ``alias_idx[c]`` otherwise, making every
    weighted draw O(1).  The identity table (``prob=1``, ``alias=self``)
    is exact for equal-weight rows — including all-zero rows, where it
    reproduces the uniform fallback — so those rows skip construction
    entirely; only genuinely skewed rows pay the O(deg) Vose pairing,
    which keeps compile time a small fraction of the leaf walk.
    """
    edges = int(weights.size)
    alias_prob = np.ones(edges, dtype=np.float64)
    alias_idx = np.arange(edges, dtype=np.int64)
    bounds = indptr.tolist()
    for r in range(len(bounds) - 1):
        lo, hi = bounds[r], bounds[r + 1]
        deg = hi - lo
        if deg <= 1:
            continue
        row = weights[lo:hi]
        if float(row.min()) == float(row.max()):
            continue  # equal weights: identity table is already exact
        total = float(row.sum())
        if total <= 0.0:
            continue
        scaled = (row * (deg / total)).tolist()
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
        # Leftovers on either list are float residue: their scaled mass
        # is ~1, and prob=1 / alias=self is the exact limit.
        alias_prob[lo:hi] = prob
        alias_idx[lo:hi] = alias
    return alias_prob, alias_idx


@dataclass
class FrozenStats(Stats):
    """Counters for the frozen read path (registered as ``repro_frozen_*``)."""

    compiles: int = 0  #: shard compiles
    thaws: int = 0  #: explicit shard drops
    compiled_rows: int = 0  #: cumulative rows across compiles
    compiled_edges: int = 0  #: cumulative edges across compiles
    batches: int = 0  #: frontier batches served frozen
    vertices: int = 0  #: frontier vertices served frozen
    draws: int = 0  #: neighbor draws produced
    stale_misses: int = 0  #: reads refused for epoch drift
    missing_vertices: int = 0  #: frontier entries with no frozen row


class FrozenShard:
    """One relation's CSC image + vectorized frontier sampling kernels.

    Immutable by construction: the store never mutates a compiled shard,
    it only replaces or drops it (epoch coherence makes partial updates
    unnecessary).  All kernels are total over arbitrary ``int64``
    frontiers — vertices without a row are reported through the validity
    mask, never raised.
    """

    __slots__ = (
        "etype",
        "epoch",
        "src_ids",
        "indptr",
        "neighbor_ids",
        "cum_weights",
        "row_base",
        "row_total",
        "alias_prob",
        "alias_idx",
        "_ws",
    )

    def __init__(
        self,
        etype: int,
        epoch: int,
        src_ids: np.ndarray,
        indptr: np.ndarray,
        neighbor_ids: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.etype = etype
        self.epoch = epoch
        self.src_ids = src_ids
        self.indptr = indptr
        self.neighbor_ids = neighbor_ids
        self.cum_weights = np.cumsum(weights)
        self.row_base = np.concatenate(([0.0], self.cum_weights))[indptr[:-1]]
        # Segmented sum of the weights themselves: an all-zero row totals
        # exactly 0.0, which a difference of two prefix sums need not.
        rows = int(src_ids.size)
        self.row_total = np.bincount(
            np.repeat(np.arange(rows), np.diff(indptr)),
            weights=weights,
            minlength=rows,
        )
        self.alias_prob, self.alias_idx = _build_alias(weights, indptr)
        self._ws = None  # lazily-built draw workspace, keyed by shape

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, store, etype: int, epoch: int) -> "FrozenShard":
        """One-pass compile of every samtree of ``etype`` in ``store``.

        Rows are source-sorted (the directory is a ``searchsorted``);
        each tree flattens through the bulk-build leaf walk.
        """
        pairs: List[Tuple[int, object]] = [
            (src, tree)
            for (et, src), tree in store.iter_trees()
            if et == etype
        ]
        pairs.sort(key=lambda p: p[0])
        rows = len(pairs)
        src_ids = np.fromiter(
            (src for src, _ in pairs), dtype=np.int64, count=rows
        )
        degrees = np.fromiter(
            (tree.degree for _, tree in pairs), dtype=np.int64, count=rows
        )
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        edges = int(indptr[-1])
        neighbor_ids = np.empty(edges, dtype=np.int64)
        weights = np.empty(edges, dtype=np.float64)
        for (_, tree), lo in zip(pairs, indptr[:-1].tolist()):
            ids, ws = flatten_tree(tree)
            neighbor_ids[lo : lo + ids.size] = ids
            weights[lo : lo + ws.size] = ws
        return cls(etype, epoch, src_ids, indptr, neighbor_ids, weights)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return int(self.src_ids.size)

    @property
    def num_edges(self) -> int:
        return int(self.neighbor_ids.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FrozenShard(etype={self.etype}, rows={self.num_rows}, "
            f"edges={self.num_edges}, epoch={self.epoch})"
        )

    def nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        """Modeled bytes of the columnar image (row directory + offsets
        + edge IDs + the cumulative-weight column + per-row mass + the
        alias table)."""
        rows = self.num_rows
        return (
            rows * model.id_bytes  # src_ids
            + (rows + 1) * 8  # indptr
            + self.num_edges * (model.id_bytes + model.weight_bytes)
            + 2 * rows * model.weight_bytes  # row_base / row_total
            + self.num_edges * (8 + model.weight_bytes)  # alias table
        )

    def lookup_rows(self, srcs: np.ndarray) -> np.ndarray:
        """Vectorized vertex→row directory: ``-1`` marks missing."""
        srcs = np.asarray(srcs, dtype=np.int64)
        n = self.src_ids.size
        if n == 0:
            return np.full(srcs.shape, -1, dtype=np.int64)
        idx = np.searchsorted(self.src_ids, srcs)
        clipped = np.minimum(idx, n - 1)
        found = self.src_ids[clipped] == srcs
        return np.where(found, clipped, -1)

    # ------------------------------------------------------------------
    # single-hop kernels
    # ------------------------------------------------------------------
    def _workspace(self, n: int, k: int):
        """Reusable draw buffers for an ``(n, k)`` frontier block.

        Allocation churn is the dominant cost of the draw at this size
        (a chained kernel allocating nine ~80 KB temporaries runs ~3×
        slower than the same ufuncs in place), so the last block shape's
        buffers are cached on the shard and every kernel step writes
        through ``out=``.
        """
        ws = self._ws
        if ws is None or ws[0] != (n, k):
            shape = (n, k)
            ws = (
                shape,
                np.empty(shape, dtype=np.float64),  # uniforms / fracs
                np.empty(shape, dtype=np.float64),  # gathered cell probs
                np.empty(shape, dtype=np.int64),  # slot -> edge position
                np.empty(shape, dtype=np.int64),  # chosen edge index
                np.empty(shape, dtype=bool),  # keep-slot mask
            )
            self._ws = ws
        return ws[1:]

    def sample_matrix(
        self,
        srcs: Sequence[int],
        k: int,
        gen: np.random.Generator,
        uniform: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Weighted (or uniform) fanout draws for a whole frontier.

        Returns ``(matrix, valid)``: an ``(len(srcs), k)`` int64 draw
        matrix plus a boolean row mask.  Rows of vertices with no frozen
        adjacency are left at 0 and flagged invalid — callers decide the
        padding convention (empty row vs. self-loop).  One uniform
        block, then in-place arithmetic and flat gathers against the
        alias table; no per-vertex Python, no binary searches.
        """
        if k < 0:
            raise ConfigurationError(f"fanout must be >= 0, got {k}")
        srcs = np.asarray(srcs, dtype=np.int64)
        n = int(srcs.size)
        if n == 0 or k == 0 or self.num_edges == 0:
            return np.zeros((n, k), dtype=np.int64), np.zeros(n, dtype=bool)
        rows = self.lookup_rows(srcs)
        ok = rows >= 0
        all_ok = bool(ok.all())
        if not all_ok and not bool(ok.any()):
            return np.zeros((n, k), dtype=np.int64), np.zeros(n, dtype=bool)
        r = rows if all_ok else rows[ok]
        lo = self.indptr[r][:, None]
        deg = self.indptr[r + 1][:, None] - lo
        uf, tf, slot, chosen, keep = self._workspace(int(r.size), k)
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
            # take its alias.  Zero-degree rows index garbage here
            # (mode="clip" keeps it in bounds); they are masked invalid
            # below, so the values never escape.
            self.alias_prob.take(slot, mode="clip", out=tf)
            np.less(uf, tf, out=keep)
            self.alias_idx.take(slot, mode="clip", out=chosen)
            np.copyto(chosen, slot, where=keep)
        drawn = self.neighbor_ids.take(chosen, mode="clip")
        row_valid = deg[:, 0] > 0
        if all_ok:
            if not bool(row_valid.all()):
                drawn[~row_valid] = 0
            return drawn, row_valid
        out = np.zeros((n, k), dtype=np.int64)
        valid = np.zeros(n, dtype=bool)
        drawn[~row_valid] = 0
        out[ok] = drawn
        valid[ok] = row_valid
        return out, valid
