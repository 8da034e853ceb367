"""Flight recorder: bounded per-category event rings on the simulated clock.

A :class:`FlightRecorder` is the black box every layer of the serving
stack writes into: cheap structured events (a timestamp, a kind, a
small dict of scalar fields) appended into **preallocated, bounded ring
buffers**, one per category.  Recording never allocates beyond the
per-event tuple, never advances the simulated clock, and never raises
on the hot path — so a recorded run executes the *same* seeded
simulation as a plain one, which is the property deterministic incident
replay (:mod:`repro.obs.replay`) rests on.

Categories (fixed; see :data:`DEFAULT_CATEGORIES`):

* ``admission`` — request admits and sheds, with the shed cause;
* ``breaker``   — per-shard circuit-breaker transitions;
* ``fault``     — injected faults, policy swaps, crashes, recoveries;
* ``retry``     — transient failures, exhaustions, deadline aborts;
* ``wal``       — WAL appends and checkpoints;
* ``alert``     — alert lifecycle transitions (the cluster's hub
  forwards its monitor's alerts to :meth:`FlightRecorder.record_alert`);
* ``chaos``     — scenario-level chaos events with their seeds.

No layer holds a recorder.  Hook sites emit through the one
:class:`~repro.obs.telemetry.Telemetry` hub their cluster shares with
them, unconditionally::

    self.telemetry.event("fault", "crash", shard=shard)

and the hub forwards to whichever recorder is attached *now* (or drops
the event), stamping it with the cluster's simulated clock unless the
site passes a decision time of its own.  A detached recorder therefore
costs one method call per hook site — gated at <=2% end-to-end overhead
by ``bench_flight_recorder.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["DEFAULT_CATEGORIES", "EventRing", "FlightRecorder"]

#: The event categories every recorder carries; :class:`FlightRecorder`
#: accepts no ad-hoc category — a typo'd category in a hook must fail
#: loudly, not open a silent ring.
DEFAULT_CATEGORIES = (
    "admission",
    "breaker",
    "fault",
    "retry",
    "wal",
    "alert",
    "chaos",
)


class EventRing:
    """One bounded, preallocated ring of ``(t, kind, fields)`` tuples.

    Slots are allocated once up front; an append past capacity
    overwrites the oldest event and bumps the ``dropped`` ledger — the
    recorder never grows, so a multi-hour soak holds the same memory as
    a ten-second smoke run.
    """

    __slots__ = ("category", "capacity", "_slots", "_pos", "total")

    def __init__(self, category: str, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"ring capacity must be >= 1, got {capacity}"
            )
        self.category = category
        self.capacity = capacity
        self._slots: List[Optional[Tuple[float, str, dict]]] = (
            [None] * capacity
        )
        self._pos = 0
        #: Events ever appended (retained = ``min(total, capacity)``).
        self.total = 0

    def append(self, t: float, kind: str, fields: dict) -> None:
        self._slots[self._pos] = (t, kind, fields)
        self._pos = (self._pos + 1) % self.capacity
        self.total += 1

    def __len__(self) -> int:
        return min(self.total, self.capacity)

    @property
    def dropped(self) -> int:
        return max(0, self.total - self.capacity)

    def events(self) -> List[Dict[str, object]]:
        """Retained events oldest-first, flattened to JSON-ready dicts."""
        n = len(self)
        if n == 0:
            return []
        start = self._pos - n  # may be negative: wraps
        out: List[Dict[str, object]] = []
        for i in range(n):
            t, kind, fields = self._slots[(start + i) % self.capacity]
            event: Dict[str, object] = {"t": t, "kind": kind}
            event.update(fields)
            out.append(event)
        return out

    def clear(self) -> None:
        for i in range(self.capacity):
            self._slots[i] = None
        self._pos = 0
        self.total = 0


class FlightRecorder:
    """Bounded per-category event rings on an injected (simulated) clock.

    Parameters
    ----------
    clock:
        Zero-arg callable returning the current simulated time; events
        recorded without an explicit ``t`` are stamped with it.
        ``None`` (e.g. a recorder built before its cluster) stamps 0.0
        until :attr:`clock` is assigned —
        :meth:`~repro.distributed.cluster.LocalCluster.attach_recorder`
        binds the cluster's network clock on attach.
    capacity:
        Slots per category ring.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = 1024,
    ) -> None:
        self.clock = clock
        self._rings: Dict[str, EventRing] = {
            category: EventRing(category, capacity)
            for category in DEFAULT_CATEGORIES
        }

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------
    def record(
        self,
        category: str,
        kind: str,
        t: Optional[float] = None,
        **fields,
    ) -> None:
        """Append one event; unknown categories raise loudly.

        ``t`` should be passed by hooks that already hold the current
        simulated time (cheaper and unambiguous); otherwise the
        recorder's clock stamps the event.
        """
        ring = self._rings.get(category)
        if ring is None:
            raise ConfigurationError(
                f"unknown flight-recorder category {category!r}; "
                f"known: {sorted(self._rings)}"
            )
        if t is None:
            t = self.clock() if self.clock is not None else 0.0
        ring.append(t, kind, fields)

    # ------------------------------------------------------------------
    # alert wiring
    # ------------------------------------------------------------------
    def record_alert(self, event) -> None:
        self.record(
            "alert",
            event.to_state,
            t=event.t,
            rule=event.rule,
            from_state=event.from_state,
            value=event.value,
            threshold=event.threshold,
        )

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    @property
    def categories(self) -> List[str]:
        return sorted(self._rings)

    def ring(self, category: str) -> EventRing:
        ring = self._rings.get(category)
        if ring is None:
            raise ConfigurationError(
                f"unknown flight-recorder category {category!r}"
            )
        return ring

    def events(self, category: str) -> List[Dict[str, object]]:
        """Retained events of one category, oldest-first."""
        return self.ring(category).events()

    @property
    def events_total(self) -> int:
        return sum(r.total for r in self._rings.values())

    @property
    def dropped_total(self) -> int:
        return sum(r.dropped for r in self._rings.values())

    def snapshot(self) -> Dict[str, object]:
        """Freeze the rings into one JSON-ready dict (the bundle's
        ``events`` section)."""
        return {
            "events_total": self.events_total,
            "dropped_total": self.dropped_total,
            "categories": {
                name: {
                    "capacity": ring.capacity,
                    "total": ring.total,
                    "dropped": ring.dropped,
                    "events": ring.events(),
                }
                for name, ring in sorted(self._rings.items())
            },
        }

    to_dict = snapshot

    def clear(self) -> None:
        for ring in self._rings.values():
            ring.clear()
