"""Dynamic edge streams: the update workloads of Figures 8, 9 and 11.

Two phases mirror the paper's evaluation:

* **build** — replay every dataset edge as an insert batch ("inserting
  edges of a graph in a dynamic manner", Figure 8);
* **churn** — a steady-state mix of inserts / in-place updates /
  deletions against the live edge set, the regime of Figure 9 and of the
  production recommendation workload (user interest drift means weights
  are re-written constantly, which is why in-place update cost dominates
  Table II).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.ingest import EdgeBatch
from repro.core.types import OP_DELETE, OP_INSERT, OP_UPDATE, lexsort_rows
from repro.datasets.presets import GraphData
from repro.datasets.synthetic import type_offset
from repro.errors import ConfigurationError

__all__ = ["EdgeStream", "RequestStream"]

#: Odd multipliers of a live key's 64-bit fingerprint
#: ``etype * K0 + src * K1 + dst`` (wrapping); a fingerprint only
#: narrows the search, the rows it matches decide membership.
_K0, _K1 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9
_MIX = np.array([_K0, _K1, 1], dtype=np.uint64)
_MASK64 = (1 << 64) - 1


class RequestStream:
    """Seeded Zipf-skewed *sampling request* batches — the read-side
    counterpart of :class:`EdgeStream`.

    The serving scenarios, the chaos soak and ``repro obs --skew`` all
    need the same thing: a reproducible power-law trace of
    ``sample_neighbors_many`` frontiers over a known source universe.
    ``exponent`` is the Zipf skew ``s`` (0.6 ≈ mild, 0.99 ≈ classic web,
    1.4 ≈ celebrity-dominated); each batch is an ``int64`` array ready to
    hand to the client.  Batches repeat sources *within* a batch at high
    skew, which is what exercises request coalescing.
    """

    def __init__(
        self,
        num_sources: int,
        exponent: float = 0.99,
        seed: int = 0,
        src_type: int = 0,
        shuffle: bool = True,
    ) -> None:
        if num_sources < 1:
            raise ConfigurationError(
                f"num_sources must be >= 1, got {num_sources}"
            )
        if exponent < 0:
            raise ConfigurationError(
                f"exponent must be >= 0, got {exponent}"
            )
        self.num_sources = num_sources
        self.exponent = exponent
        self.src_type = src_type
        self.shuffle = shuffle
        self._rng = np.random.default_rng(seed)
        # One probability vector + one rank->id permutation per stream,
        # so every batch draws from the same popularity law.
        from repro.datasets.synthetic import zipf_probabilities

        self._probs = zipf_probabilities(num_sources, exponent)
        self._perm = (
            self._rng.permutation(num_sources)
            if shuffle
            else np.arange(num_sources)
        )
        self._offset = type_offset(src_type)

    def batch(self, batch_size: int) -> np.ndarray:
        """One frontier of ``batch_size`` source IDs."""
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        ranks = self._rng.choice(
            self.num_sources, size=batch_size, p=self._probs
        )
        return self._perm[ranks].astype(np.int64) + self._offset

    def batches(
        self, batch_size: int, num_batches: int
    ) -> Iterator[np.ndarray]:
        """``num_batches`` frontiers of ``batch_size`` sources each."""
        if num_batches < 0:
            raise ConfigurationError(
                f"num_batches must be >= 0, got {num_batches}"
            )
        for _ in range(num_batches):
            yield self.batch(batch_size)

    def hot_sources(self, n: int) -> np.ndarray:
        """The ``n`` most probable source IDs, hottest first (the keys
        a flash crowd hammers)."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        top_ranks = np.argsort(-self._probs, kind="stable")[:n]
        return self._perm[top_ranks].astype(np.int64) + self._offset


class EdgeStream:
    """Batch generator over a dataset's edges plus synthetic churn."""

    def __init__(self, data: GraphData, seed: int = 0) -> None:
        self.data = data
        self._rng = random.Random(seed)
        # The live edges (valid update/delete targets), one
        # ``(etype, src, dst)`` row each: the first ``_n`` rows of
        # ``_live``, in the order churn indexes them.
        self._live = np.empty((0, 3), dtype=np.int64)
        self._n = 0
        # Membership: the rows live at the last ``_ensure_live``, sorted
        # by fingerprint (``_index`` holds the fingerprints), and the
        # keys churn has flipped since (inserted or deleted).
        self._index: List[int] = []
        self._index_rows = self._live
        self._flipped: set = set()
        # Columnar build batches defer live-set materialisation: the
        # arrays are stashed here and only join the live rows the first
        # time churn actually needs targets.
        self._pending: List[Tuple[int, object, object]] = []

    # ------------------------------------------------------------------
    def build_batches(self, batch_size: int) -> Iterator[EdgeBatch]:
        """Insert batches covering every edge of the dataset, in order.

        Each batch is a contiguous slice of one relation's arrays, so a
        bulk load streams millions of edges through the columnar ingest
        RPCs without a Python object per edge.  Live-edge tracking (for
        a later churn phase) is deferred until churn needs targets.
        """
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        for rel in self.data.relations:
            etype = rel.spec.etype
            n = rel.num_edges
            for a in range(0, n, batch_size):
                b = min(a + batch_size, n)
                self._pending.append((etype, rel.src[a:b], rel.dst[a:b]))
                yield EdgeBatch.inserts(
                    rel.src[a:b], rel.dst[a:b], rel.weight[a:b], etype
                )

    def _is_live(self, key: Tuple[int, int, int]) -> bool:
        etype, src, dst = key
        fp = (etype * _K0 + src * _K1 + dst) & _MASK64
        lo = bisect_left(self._index, fp)
        hi = bisect_right(self._index, fp, lo)
        indexed = lo < hi and key in map(
            tuple, self._index_rows[lo:hi].tolist()
        )
        return indexed != (key in self._flipped)

    def _track_insert(self, src: int, dst: int, etype: int) -> None:
        key = (etype, src, dst)
        if self._is_live(key):
            return
        self._flipped ^= {key}
        if self._n == len(self._live):  # grow by doubling
            spare = np.empty((max(self._n, 16), 3), dtype=np.int64)
            self._live = np.concatenate([self._live, spare])
        self._live[self._n] = key
        self._n += 1

    def _ensure_live(self) -> None:
        """Join the deferred columnar inserts to the live rows: the
        first occurrence of each new key, in build order, after the
        rows already live."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        rows = np.concatenate([self._live[: self._n]] + [
            np.column_stack([np.full(len(src), etype), src, dst])
            for etype, src, dst in pending
        ]).astype(np.int64)
        fp = (rows.astype(np.uint64) * _MIX).sum(axis=1)
        # By fingerprint, then key; stable, so a key's first occurrence
        # leads its run of duplicates.
        order = lexsort_rows(fp, rows[:, 0], rows[:, 1], rows[:, 2])
        ranked = rows[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        self._index = fp[order][first].tolist()
        self._index_rows = ranked[first]
        self._flipped = set()
        self._live = rows[np.sort(order[first])]
        self._n = len(self._live)

    def _pop_live(self) -> Tuple[int, int, int]:
        """Remove and return a uniformly drawn live edge (swap-with-last)."""
        i = self._rng.randrange(self._n)
        key = tuple(self._live[i].tolist())
        self._n -= 1
        self._live[i] = self._live[self._n]
        self._flipped ^= {key}
        return key

    def _pick_live(self) -> Tuple[int, int, int]:
        """A uniformly drawn live edge."""
        return tuple(self._live[self._rng.randrange(self._n)].tolist())

    # ------------------------------------------------------------------
    def churn_batches(
        self,
        batch_size: int,
        num_batches: int,
        mix: Tuple[float, float, float] = (0.5, 0.3, 0.2),
        id_space: Optional[int] = None,
    ) -> Iterator[EdgeBatch]:
        """Mixed dynamic-update batches.

        ``mix = (insert, update, delete)`` fractions.  Inserts target
        fresh (src, dst) pairs drawn from the dataset's vertex ranges;
        updates and deletes target currently live edges (falling back to
        an insert when the live set is empty).  The arguments are
        checked and the deferred build inserts join the live set at the
        call, so a timed loop over the batches times only the batches.
        """
        if batch_size < 1 or num_batches < 0:
            raise ConfigurationError(
                f"invalid batch_size={batch_size} / num_batches={num_batches}"
            )
        p_insert, p_update, p_delete = mix
        total = p_insert + p_update + p_delete
        if total <= 0:
            raise ConfigurationError(f"mix must have positive mass: {mix}")
        self._ensure_live()
        return self._churn(
            batch_size, num_batches, p_insert / total, p_update / total,
            id_space,
        )

    def _churn(
        self, batch_size: int, num_batches: int, p_insert: float,
        p_update: float, id_space: Optional[int],
    ) -> Iterator[EdgeBatch]:
        rng = self._rng
        specs = [r.spec for r in self.data.relations]
        for _ in range(num_batches):
            rows: List[Tuple[int, int, float, int, int]] = []
            for _ in range(batch_size):
                r = rng.random()
                if r < p_insert or not self._n:
                    spec = specs[rng.randrange(len(specs))]
                    src = type_offset(spec.src_type) + rng.randrange(
                        spec.num_src
                    )
                    dst = type_offset(spec.dst_type) + rng.randrange(
                        id_space or spec.num_dst
                    )
                    weight = 0.1 + 0.9 * rng.random()
                    rows.append((src, dst, weight, spec.etype, OP_INSERT))
                    self._track_insert(src, dst, spec.etype)
                elif r < p_insert + p_update:
                    etype, src, dst = self._pick_live()
                    weight = 0.1 + 0.9 * rng.random()
                    rows.append((src, dst, weight, etype, OP_UPDATE))
                else:
                    etype, src, dst = self._pop_live()
                    rows.append((src, dst, 0.0, etype, OP_DELETE))
            yield EdgeBatch(*(tuple(zip(*rows)) or ((),) * 5))
