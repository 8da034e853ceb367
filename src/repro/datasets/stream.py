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
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.ingest import EdgeBatch
from repro.core.types import EdgeOp
from repro.datasets.presets import GraphData
from repro.errors import ConfigurationError

__all__ = ["EdgeStream", "RequestStream"]


class RequestStream:
    """Seeded Zipf-skewed *sampling request* batches — the read-side
    counterpart of :class:`EdgeStream`.

    Serving benchmarks, the hot-key tests, and ``repro obs --skew`` all
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
        from repro.datasets.synthetic import type_offset, zipf_probabilities

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
        """The ``n`` most probable source IDs, hottest first (ground
        truth for tracker-accuracy tests)."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        top_ranks = np.argsort(-self._probs, kind="stable")[:n]
        return self._perm[top_ranks].astype(np.int64) + self._offset


class EdgeStream:
    """Batch generator over a dataset's edges plus synthetic churn."""

    def __init__(self, data: GraphData, seed: int = 0) -> None:
        self.data = data
        self._rng = random.Random(seed)
        # Live-edge tracking for valid update/delete targets.
        self._live: List[Tuple[int, int, int]] = []
        self._live_set: set = set()
        # Columnar build batches defer live-set materialisation: the
        # arrays are stashed here and only expanded into per-edge keys
        # the first time churn actually needs targets.
        self._pending: List[Tuple[int, object, object]] = []

    # ------------------------------------------------------------------
    def build_batches(self, batch_size: int) -> Iterator[List[EdgeOp]]:
        """Insert batches covering every edge of the dataset, in order."""
        if batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        batch: List[EdgeOp] = []
        for src, dst, weight, etype in self.data.edge_ops():
            batch.append(EdgeOp.insert(src, dst, weight, etype))
            self._track_insert(src, dst, etype)
            if len(batch) >= batch_size:
                yield batch
                batch = []
        if batch:
            yield batch

    def build_batches_columnar(
        self, batch_size: int
    ) -> Iterator[EdgeBatch]:
        """Columnar insert batches covering every edge, in order.

        Each batch is a contiguous slice of one relation's arrays — no
        per-edge :class:`EdgeOp` objects are ever materialised, which is
        what lets a bulk load stream millions of edges through the
        columnar ingest RPCs.  Live-edge tracking (for a later churn
        phase) is deferred until churn actually needs targets.
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

    def churn_batches_columnar(
        self,
        batch_size: int,
        num_batches: int,
        mix: Tuple[float, float, float] = (0.5, 0.3, 0.2),
        id_space: Optional[int] = None,
    ) -> Iterator[EdgeBatch]:
        """Columnar form of :meth:`churn_batches` (same op sequence)."""
        for ops in self.churn_batches(batch_size, num_batches, mix, id_space):
            yield EdgeBatch.from_edge_ops(ops)

    def _track_insert(self, src: int, dst: int, etype: int) -> None:
        key = (etype, src, dst)
        if key not in self._live_set:
            self._live_set.add(key)
            self._live.append(key)

    def _ensure_live(self) -> None:
        """Materialise deferred columnar inserts into the live set."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for etype, src_arr, dst_arr in pending:
            for s, d in zip(src_arr, dst_arr):
                self._track_insert(int(s), int(d), etype)

    def _pop_live(self) -> Optional[Tuple[int, int, int]]:
        self._ensure_live()
        rng = self._rng
        while self._live:
            i = rng.randrange(len(self._live))
            key = self._live[i]
            self._live[i] = self._live[-1]
            self._live.pop()
            if key in self._live_set:
                self._live_set.discard(key)
                return key
        return None

    def _pick_live(self) -> Optional[Tuple[int, int, int]]:
        self._ensure_live()
        rng = self._rng
        while self._live:
            i = rng.randrange(len(self._live))
            key = self._live[i]
            if key in self._live_set:
                return key
            # Lazily compact entries removed by deletion.
            self._live[i] = self._live[-1]
            self._live.pop()
        return None

    # ------------------------------------------------------------------
    def churn_batches(
        self,
        batch_size: int,
        num_batches: int,
        mix: Tuple[float, float, float] = (0.5, 0.3, 0.2),
        id_space: Optional[int] = None,
    ) -> Iterator[List[EdgeOp]]:
        """Mixed dynamic-update batches.

        ``mix = (insert, update, delete)`` fractions.  Inserts target
        fresh (src, dst) pairs drawn from the dataset's vertex ranges;
        updates and deletes target currently live edges (falling back to
        an insert when the live set is empty).
        """
        if batch_size < 1 or num_batches < 0:
            raise ConfigurationError(
                f"invalid batch_size={batch_size} / num_batches={num_batches}"
            )
        p_insert, p_update, p_delete = mix
        total = p_insert + p_update + p_delete
        if total <= 0:
            raise ConfigurationError(f"mix must have positive mass: {mix}")
        p_insert, p_update = p_insert / total, p_update / total
        self._ensure_live()
        rng = self._rng
        specs = [r.spec for r in self.data.relations]
        for _ in range(num_batches):
            batch: List[EdgeOp] = []
            for _ in range(batch_size):
                r = rng.random()
                if r < p_insert or not self._live_set:
                    spec = specs[rng.randrange(len(specs))]
                    from repro.datasets.synthetic import type_offset

                    src = type_offset(spec.src_type) + rng.randrange(
                        spec.num_src
                    )
                    dst = type_offset(spec.dst_type) + rng.randrange(
                        id_space or spec.num_dst
                    )
                    weight = 0.1 + 0.9 * rng.random()
                    batch.append(EdgeOp.insert(src, dst, weight, spec.etype))
                    self._track_insert(src, dst, spec.etype)
                elif r < p_insert + p_update:
                    key = self._pick_live()
                    if key is None:
                        continue
                    etype, src, dst = key
                    batch.append(
                        EdgeOp.update(src, dst, 0.1 + 0.9 * rng.random(), etype)
                    )
                else:
                    key = self._pop_live()
                    if key is None:
                        continue
                    etype, src, dst = key
                    batch.append(EdgeOp.delete(src, dst, etype))
            yield batch
