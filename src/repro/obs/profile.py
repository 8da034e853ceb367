"""Layer-attributed deterministic profiler + exemplar recording helpers.

Two small tools close the loop between "p99 is fat" and "here is why"
(DESIGN.md §12):

* :class:`LayerProfiler` — an opt-in :func:`sys.setprofile`-based
  deterministic profiler that attributes **exclusive** wall time to the
  subsystem layer owning each executing frame (samtree descent, Fenwick
  FTS, snapshot read path, frozen images, mini-batch gather, GNN
  compute, RPC plumbing, serving tier, instrumentation, other).  It
  answers "where inside one slow operation did the time go?" without
  the sampling bias of a statistical profiler and without external
  dependencies.  Deterministic profiling multiplies interpreter
  dispatch cost — expect 2–10× slowdown while enabled — so it is never
  on by default and is meant for one-off investigation of an exemplar,
  not for production collection (the overhead budget is documented in
  DESIGN.md §12).

* :func:`observe` / :func:`args_digest` — the standard way to record a
  latency into a :class:`~repro.obs.hist.LatencyHistogram` *with* an
  exemplar: the current trace id is pulled from the PR 4
  :class:`~repro.obs.trace.Tracer` (if one is active and sampled) and
  the operation's arguments are digested into a short ``k=v`` string,
  so the slowest observation of every bucket links straight back to its
  span tree.

Layer attribution is by code-object filename: each layer owns a set of
module basenames (:data:`DEFAULT_LAYERS`), and a frame executes in the
first layer whose set contains its file's basename.  Time inside C
builtins is charged to the layer of the *calling* frame (the profiler
pushes a frame for ``c_call`` events), so e.g. ``list.sort`` inside the
α-Split shows up under ``descent``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_LAYERS",
    "LayerProfiler",
    "args_digest",
    "observe",
]

#: ``layer -> module basenames`` ownership map.  Order matters only for
#: documentation; lookup is by exact basename so the sets are disjoint.
DEFAULT_LAYERS: Dict[str, Tuple[str, ...]] = {
    # root→leaf descent and structural maintenance of the samtree
    "descent": (
        "samtree.py",
        "alpha_split.py",
        "cstable.py",
        "compression.py",
        "tree_batch.py",
    ),
    # Fenwick-tree sampling / weight maintenance at the leaf
    "fts": ("fenwick.py",),
    # the store above the trees: flat snapshot build, vectorized batched
    # draws, columnar ingest
    "snapshot": ("snapshot.py", "topology.py", "slab.py", "ingest.py"),
    # compiled read-only CSC images and their alias-table kernels
    "frozen": ("frozen.py",),
    # mini-batch assembly: block sampling driver and feature gather
    "gather": ("attributes.py", "training.py", "samplers.py"),
    # GNN forward/backward arithmetic
    "compute": ("models.py", "layers.py", "ops.py"),
    # client/server plumbing, simulated network, retries, durability
    "rpc": (
        "rpc.py",
        "client.py",
        "server.py",
        "cluster.py",
        "retry.py",
        "faults.py",
        "wal.py",
        "checkpoint.py",
        "partition.py",
    ),
    # online inference front end
    "serving": (
        "service.py",
        "admission.py",
        "degraded.py",
        "scenarios.py",
        "slo.py",
    ),
    # instrumentation itself (obs/report.py is left out: lookup is by
    # basename and bench/report.py shares it)
    "obs": (
        "registry.py",
        "hist.py",
        "trace.py",
        "instrument.py",
        "monitor.py",
        "alerts.py",
        "critical.py",
        "flight.py",
        "incident.py",
        "replay.py",
        "doctor.py",
        "export.py",
        "profile.py",
    ),
}

_OTHER = "other"


class LayerProfiler:
    """Deterministic exclusive-time profiler bucketed by subsystem layer.

    Usage::

        prof = LayerProfiler()
        with prof:
            client.sample_neighbors_many(frontier, k=25, rng=rng)
        print(prof.report())

    While active, every Python call/return (and C call/return) event is
    timestamped; the time between consecutive events is charged to the
    layer of the frame on top of the profiler's shadow stack, so the
    per-layer figures are **exclusive** (self) times that sum to the
    profiled wall time (minus profiler overhead between events).

    Not reentrant and not thread-aware: it profiles the installing
    thread only (``sys.setprofile`` is per-thread) and raises if started
    twice.  ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        layers: Optional[Dict[str, Tuple[str, ...]]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        layer_map = layers if layers is not None else DEFAULT_LAYERS
        self._by_basename: Dict[str, str] = {}
        for layer, basenames in layer_map.items():
            for basename in basenames:
                if basename in self._by_basename:
                    raise ConfigurationError(
                        f"module {basename!r} claimed by two layers: "
                        f"{self._by_basename[basename]!r} and {layer!r}"
                    )
                self._by_basename[basename] = layer
        self._clock = clock
        self._active = False
        self._prev_profiler = None
        self._stack: List[str] = []
        self._last = 0.0
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Memoised ``co_filename -> layer`` (the hot lookup).
        self._file_cache: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # attribution
    # ------------------------------------------------------------------
    def _layer_of_file(self, filename: str) -> str:
        layer = self._file_cache.get(filename)
        if layer is None:
            layer = self._by_basename.get(os.path.basename(filename), _OTHER)
            self._file_cache[filename] = layer
        return layer

    def _handler(self, frame, event: str, arg) -> None:
        now = self._clock()
        if self._stack:
            top = self._stack[-1]
            self.seconds[top] = (
                self.seconds.get(top, 0.0) + (now - self._last)
            )
        if event == "call":
            layer = self._layer_of_file(frame.f_code.co_filename)
            self._stack.append(layer)
            self.calls[layer] = self.calls.get(layer, 0) + 1
        elif event == "c_call":
            # C time is charged to the calling frame's layer.
            self._stack.append(self._layer_of_file(frame.f_code.co_filename))
        elif event in ("return", "c_return", "c_exception"):
            if self._stack:
                self._stack.pop()
        self._last = self._clock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "LayerProfiler":
        if self._active:
            raise ConfigurationError("LayerProfiler is already running")
        self._active = True
        self._stack = []
        self._prev_profiler = sys.getprofile()
        self._last = self._clock()
        sys.setprofile(self._handler)
        return self

    def stop(self) -> None:
        if not self._active:
            return
        sys.setprofile(self._prev_profiler)
        self._prev_profiler = None
        self._active = False
        self._stack = []

    def __enter__(self) -> "LayerProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def reset(self) -> None:
        if self._active:
            raise ConfigurationError("cannot reset a running LayerProfiler")
        self.seconds = {}
        self.calls = {}

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def totals(self) -> Dict[str, float]:
        """Exclusive seconds per layer (copy, descending)."""
        return dict(
            sorted(self.seconds.items(), key=lambda kv: -kv[1])
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seconds": self.totals(),
            "calls": dict(sorted(self.calls.items())),
            "total_seconds": self.total_seconds,
        }

    def report(self) -> str:
        """Human table: layer, exclusive ms, share, python calls."""
        total = self.total_seconds or 1.0
        lines = ["layer profile (exclusive time):"]
        for layer, secs in self.totals().items():
            lines.append(
                f"  {layer:<10} {secs * 1e3:>9.3f}ms "
                f"{100.0 * secs / total:5.1f}%  "
                f"calls={self.calls.get(layer, 0)}"
            )
        lines.append(f"  {'total':<10} {self.total_seconds * 1e3:>9.3f}ms")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# exemplar recording helpers
# ---------------------------------------------------------------------------
def args_digest(_max_len: int = 80, **kwargs) -> str:
    """Digest operation arguments into a short ``k=v k2=v2`` string.

    Deterministic (keys sorted), bounded (truncated to ``_max_len``
    with an ellipsis), and safe for Prometheus label values (newlines
    stripped).  Collections are summarised by length rather than
    content — an exemplar should say ``srcs=1024``, not dump the batch.
    """
    parts: List[str] = []
    for key in sorted(kwargs):
        value = kwargs[key]
        if isinstance(value, (list, tuple, set, frozenset, dict)):
            rendered = f"len:{len(value)}"
        elif isinstance(value, float):
            rendered = f"{value:.4g}"
        else:
            rendered = str(value)
        rendered = rendered.replace("\n", " ")
        parts.append(f"{key}={rendered}")
    digest = " ".join(parts)
    if len(digest) > _max_len:
        digest = digest[: _max_len - 1] + "…"
    return digest


def observe(hist, seconds: float, tracer=None, **args) -> None:
    """Record ``seconds`` into ``hist`` with exemplar context attached.

    When the histogram has exemplars enabled
    (:meth:`~repro.obs.hist.LatencyHistogram.enable_exemplars`), the
    current sampled span's ``trace_id`` (from ``tracer``, if given and
    inside an active trace) and an :func:`args_digest` of ``args`` ride
    along; otherwise this is exactly ``hist.record(seconds)``.
    """
    if not getattr(hist, "exemplars_enabled", False):
        hist.record(seconds)
        return
    trace_id = None
    if tracer is not None:
        span = tracer.current()
        if span is not None:
            trace_id = span.trace_id
    hist.record(seconds, trace_id=trace_id, detail=args_digest(**args))
