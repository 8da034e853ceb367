"""Observability: per-operation latency histograms of a store.

A production storage tier lives or dies by its tail latencies; the
paper's evaluation reports means, but the deployed system necessarily
watches distributions.  This module provides, over the log₂
:class:`~repro.obs.hist.LatencyHistogram` of the telemetry subsystem
(DESIGN.md §11):

* :class:`StoreMetrics` — one histogram per operation family
  (insert / update / delete / sample / read), registrable into a
  :class:`~repro.obs.registry.MetricsRegistry` via
  :meth:`StoreMetrics.register_into`;
* :class:`InstrumentedStore` — a :class:`GraphStoreAPI` wrapper that
  times every call into the wrapped store.  Drop-in: benchmarks,
  samplers, the PALM executor, and the distributed client all accept it
  unchanged.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Iterator, List, Optional

from repro.core.memory import DEFAULT_MEMORY_MODEL, MemoryModel
from repro.core.types import DEFAULT_ETYPE, GraphStoreAPI
from repro.errors import ConfigurationError
from repro.obs.hist import LatencyHistogram
from repro.obs.telemetry import Telemetry

__all__ = ["StoreMetrics", "InstrumentedStore"]


class StoreMetrics:
    """One histogram per store operation family."""

    FAMILIES = ("insert", "update", "delete", "sample", "read")

    def __init__(self) -> None:
        self.histograms: Dict[str, LatencyHistogram] = {
            family: LatencyHistogram() for family in self.FAMILIES
        }

    def record(
        self,
        family: str,
        seconds: float,
        trace_id=None,
        detail: str = "",
    ) -> None:
        hist = self.histograms.get(family)
        if hist is None:
            raise ConfigurationError(
                f"unknown op family {family!r}; known: {self.FAMILIES}"
            )
        hist.record(seconds, trace_id=trace_id, detail=detail)

    def enable_exemplars(self) -> "StoreMetrics":
        """Opt every family histogram into slowest-op-per-bucket
        exemplars (DESIGN.md §12); idempotent."""
        for hist in self.histograms.values():
            hist.enable_exemplars()
        return self

    def reset(self) -> None:
        for hist in self.histograms.values():
            hist.reset()

    def register_into(self, registry, **labels) -> None:
        """Register every family histogram into a
        :class:`~repro.obs.registry.MetricsRegistry` as
        ``repro_store_op_latency_seconds{op="<family>"}`` — the same
        live objects, so later :meth:`record` calls show up in the next
        snapshot/export with no copying."""
        for family, hist in self.histograms.items():
            registry.register_histogram(
                "repro_store_op_latency_seconds",
                hist,
                help="Per-operation-family store latency",
                op=family,
                **labels,
            )

    def report(self) -> str:
        """Fixed-width summary of every family (µs units)."""
        lines = [
            f"{'op':<8} {'count':>8} {'mean':>10} {'p50':>10} {'p99':>10}"
        ]
        for family in self.FAMILIES:
            s = self.histograms[family].summary()
            lines.append(
                f"{family:<8} {int(s['count']):>8} "
                f"{s['mean'] * 1e6:>9.2f}u {s['p50'] * 1e6:>9.2f}u "
                f"{s['p99'] * 1e6:>9.2f}u"
            )
        return "\n".join(lines)


class InstrumentedStore(GraphStoreAPI):
    """Times every operation against a wrapped topology store."""

    def __init__(self, store: GraphStoreAPI, tracer=None) -> None:
        self.store = store
        self.metrics = StoreMetrics()
        #: With a tracer on this hub (and exemplars enabled), every
        #: timed op carries the active span's trace id, so a fat p99
        #: bucket links back to the request tree that caused it.
        self.telemetry = Telemetry(tracer=tracer)

    def _timed(self, family: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            span = self.telemetry.current()
            self.metrics.record(
                family,
                seconds,
                trace_id=span.trace_id if span is not None else None,
            )

    # -- updates ----------------------------------------------------------
    def add_edge(self, src, dst, weight=1.0, etype=DEFAULT_ETYPE):
        return self._timed("insert", self.store.add_edge, src, dst, weight, etype)

    def update_edge(self, src, dst, weight, etype=DEFAULT_ETYPE):
        return self._timed(
            "update", self.store.update_edge, src, dst, weight, etype
        )

    def remove_edge(self, src, dst, etype=DEFAULT_ETYPE):
        return self._timed("delete", self.store.remove_edge, src, dst, etype)

    # -- queries ------------------------------------------------------------
    def degree(self, src, etype=DEFAULT_ETYPE):
        return self._timed("read", self.store.degree, src, etype)

    def edge_weight(self, src, dst, etype=DEFAULT_ETYPE):
        return self._timed("read", self.store.edge_weight, src, dst, etype)

    def neighbors(self, src, etype=DEFAULT_ETYPE):
        return self._timed("read", self.store.neighbors, src, etype)

    @property
    def num_edges(self) -> int:
        return self.store.num_edges

    @property
    def num_sources(self) -> int:
        return self.store.num_sources

    def sources(self, etype: int = DEFAULT_ETYPE) -> Iterator[int]:
        return self.store.sources(etype)

    # -- sampling -------------------------------------------------------------
    def sample_neighbors(
        self,
        src: int,
        k: int,
        rng: Optional[random.Random] = None,
        etype: int = DEFAULT_ETYPE,
    ) -> List[int]:
        return self._timed(
            "sample", self.store.sample_neighbors, src, k, rng, etype
        )

    def sample_neighbors_uniform(self, src, k, rng=None, etype=DEFAULT_ETYPE):
        return self._timed(
            "sample", self.store.sample_neighbors_uniform, src, k, rng, etype
        )

    def sample_neighbors_many(
        self, srcs, k, rng=None, etype=DEFAULT_ETYPE, **kwargs
    ):
        """Forward the batched read path (one timed observation per batch),
        so the wrapped store's snapshot cache keeps serving it."""
        return self._timed(
            "sample",
            self.store.sample_neighbors_many,
            srcs,
            k,
            rng,
            etype,
            **kwargs,
        )

    # -- accounting -----------------------------------------------------------
    def nbytes(self, model: MemoryModel = DEFAULT_MEMORY_MODEL) -> int:
        return self.store.nbytes(model)

    def check_invariants(self) -> None:
        check = getattr(self.store, "check_invariants", None)
        if check is not None:
            check()
