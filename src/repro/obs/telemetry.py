"""The one instrumentation seam: a span/event hub and a counter base.

A layer that wants to be observable holds one :class:`Telemetry` handle
and calls it unconditionally::

    with self.telemetry.span("rpc.read_shard", shard=shard):
        ...
    self.telemetry.event("fault", "crash", shard=shard)

Whether a :class:`~repro.obs.trace.Tracer` or a
:class:`~repro.obs.flight.FlightRecorder` is listening is the hub's
business: with neither, an unobserved hot path pays one method call per
hook.  A :class:`~repro.distributed.cluster.LocalCluster` owns one hub
and **shares it by reference** with everything it wires, so attaching a
tracer or recorder is one assignment that reaches components built
before *and* after it; a component built without a cluster keeps its
own detached hub.  :class:`Stats` is the same idea for counters: each
``*Stats`` field is named once and hot paths bump plain attributes.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from repro.obs.trace import NULL_SPAN

__all__ = ["Stats", "Telemetry"]


class Telemetry:
    """Where spans and events go: a tracer, a recorder, and the clock
    that stamps events — nothing else."""

    __slots__ = ("tracer", "recorder", "clock")

    def __init__(
        self, tracer=None, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.tracer = tracer
        #: Set by :meth:`LocalCluster.attach_recorder` on the shared hub.
        self.recorder = None
        #: Simulated time source (a cluster binds ``network.now``);
        #: ``None`` leaves stamping to the recorder's own clock.
        self.clock = clock

    @classmethod
    def of(cls, owner, tracer=None) -> "Telemetry":
        """The hub ``owner`` shares (its ``telemetry`` attribute) or a
        detached one; a given ``tracer`` fills whichever it is."""
        hub = getattr(owner, "telemetry", None) or cls()
        if tracer is not None:
            hub.tracer = tracer
        return hub

    def span(self, name: str, **tags):
        """Open ``name`` on the tracer; the inert span without one."""
        tracer = self.tracer
        if tracer is None:
            return NULL_SPAN
        return tracer.span(name, **tags)

    def current(self):
        """The innermost open span, if a tracer holds one."""
        tracer = self.tracer
        return tracer.current() if tracer is not None else None

    def now(self) -> Optional[float]:
        """The hub clock's reading (``None`` when no clock is bound)."""
        clock = self.clock
        return clock() if clock is not None else None

    def event(
        self, category: str, kind: str, t: Optional[float] = None, **fields
    ) -> None:
        """Record one flight event; a no-op without a recorder.

        Pass ``t`` only where the site holds a decision time of its own
        (an admission ``now``, a retry loop's clock); otherwise the hub's
        clock stamps the event.
        """
        recorder = self.recorder
        if recorder is not None:
            recorder.record(
                category, kind, t if t is not None else self.now(), **fields
            )

    def on_alert(self, event) -> None:
        """:class:`~repro.obs.alerts.AlertManager` listener: lifecycle
        transitions land in the recorder's ``alert`` ring."""
        recorder = self.recorder
        if recorder is not None:
            recorder.record_alert(event)


class Stats:
    """Base of every ``*Stats`` holder (each a ``@dataclass``).

    A counter is a field whose default is its zero.  Derived read-outs
    stay properties; the ones named in :attr:`DERIVED` follow the
    counters in :meth:`to_dict`.  The registry exports every counter and
    each name in :attr:`GAUGES` (:meth:`MetricsRegistry.watch`).
    """

    #: Property names :meth:`to_dict` reports after the counters.
    DERIVED: Tuple[str, ...] = ()
    #: Fields or properties the registry exports as gauges.
    GAUGES: Tuple[str, ...] = ()

    def counters(self) -> Tuple[str, ...]:
        """Counter field names, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(self))

    def reset(self) -> None:
        """Zero every counter in place (registered views stay bound)."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, f.default)

    def to_dict(self) -> Dict[str, float]:
        names = self.counters() + self.DERIVED
        return {name: getattr(self, name) for name in names}

    def merge_from(self, other: "Stats") -> None:
        """Accumulate another holder of the same class."""
        for name in self.counters():
            setattr(self, name, getattr(self, name) + getattr(other, name))
