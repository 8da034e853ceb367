"""Structured request tracing: span trees over wall or simulated clocks.

A :class:`Tracer` follows one request across layers — a
:class:`~repro.distributed.client.GraphClient` batch call, its per-shard
failover reads, every retry attempt, the
:class:`~repro.distributed.server.GraphServer` endpoint, and the samtree
descent under it — producing a tree of :class:`Span` records linked by
``trace_id`` / ``span_id`` / ``parent_id``.  Because the whole cluster
runs in-process, context propagation is a per-thread span stack: a span
opened while another is active becomes its child automatically, which is
exactly the client→RPC→server nesting the acceptance test asserts.

Every root is kept.  Cost is bounded by **ring buffers**: finished
traces land in a bounded ring (``max_traces``) and those slower than
``slow_threshold_seconds`` in a separate slow-trace ring of
:data:`MAX_SLOW_TRACES`, so memory is O(rings), never O(requests).

The clock is injectable: pass ``clock=network.now`` to measure spans on
the cluster's *simulated* clock (transfer costs, latency spikes, and
retry backoff all advance it), or leave the default
``time.perf_counter`` for wall time (the training loop's choice).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed operation inside a trace tree.

    Context manager: ``with tracer.span("rpc", shard=3) as sp: ...``
    closes the span on exit, recording an ``error`` status (exception
    type in the tags) when the body raises.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "tags",
        "start",
        "end",
        "status",
        "children",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        tags: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags = tags
        self.start = tracer.clock()
        self.end: Optional[float] = None
        self.status = "ok"
        self.children: List["Span"] = []

    # -- context management ------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.tags.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False  # never swallow

    # -- readout -----------------------------------------------------------
    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_tag(self, key: str, value) -> "Span":
        self.tags[key] = value
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span in the subtree with the given name."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> Dict[str, object]:
        """Nested JSON-ready form of the subtree."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "tags": dict(self.tags),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "children": [c.to_dict() for c in self.children],
        }


class _NullSpan:
    """No-op span for call sites without a tracer (every method is free)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_tag(self, key: str, value) -> "_NullSpan":
        return self


#: Shared inert span for "tracer is None" call sites.
NULL_SPAN = _NullSpan()

#: Ring capacity of the slow-trace log.
MAX_SLOW_TRACES = 64


class Tracer:
    """Produces span trees into a recent-trace and a slow-trace ring.

    Parameters
    ----------
    clock:
        Time source (seconds).  Defaults to ``time.perf_counter``; pass
        ``NetworkModel.now`` to trace on the simulated cluster clock.
    max_traces:
        Ring capacity of finished root traces.
    slow_threshold_seconds:
        Roots at least this slow also land in the slow-trace ring.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_traces: int = 256,
        slow_threshold_seconds: float = 0.0,
    ) -> None:
        if max_traces < 1:
            raise ConfigurationError(f"max_traces must be >= 1, got {max_traces}")
        if slow_threshold_seconds < 0:
            raise ConfigurationError("slow_threshold_seconds must be >= 0")
        self.clock = clock if clock is not None else time.perf_counter
        self.slow_threshold_seconds = slow_threshold_seconds
        self.finished: "deque[Span]" = deque(maxlen=max_traces)
        self.slow: "deque[Span]" = deque(maxlen=MAX_SLOW_TRACES)
        self._local = threading.local()
        self._id_lock = threading.Lock()
        self._next_trace = 0
        self._next_span = 0

    # ------------------------------------------------------------------
    # span stack
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _ids(self) -> int:
        with self._id_lock:
            self._next_span += 1
            return self._next_span

    def span(self, name: str, **tags) -> Span:
        """Open a span (a context manager): a child of the current span,
        or a new trace root."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
            span = Span(
                self, parent.trace_id, self._ids(), parent.span_id, name, tags
            )
            parent.children.append(span)
            stack.append(span)
            return span
        with self._id_lock:
            self._next_trace += 1
            trace_id = self._next_trace
        span = Span(self, trace_id, self._ids(), None, name, tags)
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent_id is None:  # root: archive the whole tree
            self.finished.append(span)
            if span.duration >= self.slow_threshold_seconds:
                self.slow.append(span)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def top_slow(self, k: int = 5) -> List[Span]:
        """The ``k`` slowest traces currently in the slow ring."""
        return sorted(self.slow, key=lambda s: s.duration, reverse=True)[:k]

    def traces(self) -> List[Span]:
        """Finished root spans, oldest first."""
        return list(self.finished)

    def to_chrome_trace(self) -> Dict:
        """Export finished span trees as chrome://tracing JSON.

        Each finished span becomes a complete (``"ph": "X"``) event with
        microsecond timestamps; the trace id doubles as the thread id so
        every request renders as its own lane in the flamegraph UI
        (``chrome://tracing`` or https://ui.perfetto.dev).  Tags land in
        ``args`` (non-JSON-native values are ``repr``'d), alongside the
        span/parent ids so the tree is reconstructible.
        """
        events: List[Dict] = []
        for root in self.finished:
            for span in root.walk():
                if span.end is None:
                    continue
                args: Dict[str, object] = {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "status": span.status,
                }
                for key, value in span.tags.items():
                    if isinstance(value, (bool, int, float, str)) or (
                        value is None
                    ):
                        args[key] = value
                    else:
                        args[key] = repr(value)
                events.append(
                    {
                        "name": span.name,
                        "cat": "repro",
                        "ph": "X",
                        "ts": span.start * 1e6,
                        "dur": span.duration * 1e6,
                        "pid": 0,
                        "tid": span.trace_id,
                        "args": args,
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def reset(self) -> None:
        """Drop archived traces (open spans are unaffected)."""
        self.finished.clear()
        self.slow.clear()
