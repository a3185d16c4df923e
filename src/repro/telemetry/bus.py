"""The probe bus: the one point an instrumented site emits through.

A site builds its field dict once and calls :meth:`ProbeBus.emit`; the
bus reads the clock's slot in place and hands the same values to
every subscriber.  *Stream subscribers* (:meth:`subscribe`; the live
flow doctor) are called as ``fn(t, category, name, flow_id, fields)`` for
every event, unsampled, and no object is built for them.  The *trace
subscriber* (:attr:`trace`, a ``TraceCollector``) applies its own
category filter and 1-in-N sampling first, and a :class:`TraceEvent`
exists only for an event it keeps — so a sampled always-on ring never
thins what the doctor sees, and a doctor-only run constructs none.

Only events a stream subscriber can use — the flow doctor's vocabulary
(``diagnose.engine.VOCABULARY``) — go through the bus.  Sites nobody
but a trace wants (per-packet send/recv, ``netsim``, ``cc/update``,
...) talk to ``sim.telemetry`` directly behind a stride or flag
resolved at construction, so they build no fields in a doctor-only run.
``sim.probes`` is ``None`` until a subscriber attaches: a bare
simulation pays one ``is not None`` test per site.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.netsim.clock import Clock
from repro.telemetry.events import TraceEvent


class ProbeBus:
    """Fans each emitted event out to the attached subscribers."""

    __slots__ = ("_clock", "trace", "_subscribers")

    def __init__(self, clock: Clock):
        self._clock = clock
        self.trace = None
        self._subscribers: List[Callable[..., None]] = []

    @classmethod
    def of(cls, sim) -> "ProbeBus":
        """The simulator's bus, created on first use (subscribers call
        this from ``attach(sim)``, before endpoints are built)."""
        if sim.probes is None:
            sim.probes = cls(sim.clock)
        return sim.probes

    def subscribe(self, fn: Callable[..., None]) -> None:
        """Deliver every emitted event, unsampled, as
        ``fn(t, category, name, flow_id, fields)``."""
        self._subscribers.append(fn)

    def emit(self, category: str, name: str, flow_id: int,
             fields: Dict[str, Any]) -> None:
        t = self._clock._now
        for fn in self._subscribers:
            fn(t, category, name, flow_id, fields)
        trace = self.trace
        if trace is not None and trace.gate(category):
            trace.record(TraceEvent(t, category, name, flow_id, fields))
