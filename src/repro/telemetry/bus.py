"""The probe bus: the one point an instrumented site emits through.

A site builds its field list once and calls :meth:`ProbeBus.emit`; the
bus stamps one :class:`TraceEvent` from the simulation clock and hands
that same object to every subscriber: *stream subscribers*
(:meth:`subscribe`; the live flow doctor) see every event unsampled,
the *trace subscriber* (:attr:`trace`, a ``TraceCollector``) applies
its own category filter and 1-in-N sampling before its sink — so a
sampled always-on ring never thins what the doctor sees.

Only events a stream subscriber can use — the flow doctor's vocabulary
(``diagnose.engine``) — go through the bus.  Sites nobody but a trace
wants (per-packet send/recv, ``netsim``, ``cc/update``, ...) talk to
``sim.telemetry`` directly behind a stride or flag resolved at
construction, so they build no kwargs in a doctor-only run.
``sim.probes`` is ``None`` until a subscriber attaches: a bare
simulation pays one ``is not None`` test per site.
"""

from __future__ import annotations

from typing import Callable, List

from repro.telemetry.events import TraceEvent


class ProbeBus:
    """Fans each emitted event out to the attached subscribers."""

    __slots__ = ("_now", "trace", "_subscribers")

    def __init__(self, now: Callable[[], float]):
        self._now = now
        self.trace = None
        self._subscribers: List[Callable[[TraceEvent], None]] = []

    @classmethod
    def of(cls, sim) -> "ProbeBus":
        """The simulator's bus, created on first use (subscribers call
        this from ``attach(sim)``, before endpoints are built)."""
        if sim.probes is None:
            sim.probes = cls(sim.clock.now)
        return sim.probes

    def subscribe(self, fn: Callable[[TraceEvent], None]) -> None:
        """Deliver every emitted event to *fn*, unsampled."""
        self._subscribers.append(fn)

    def emit(self, category: str, name: str, flow_id: int = 0,
             **fields) -> None:
        trace = self.trace
        # The trace's keep/drop decision comes first so an event that
        # it drops and nobody else wants is never constructed.
        keep = trace is not None and trace.gate(category)
        if not keep and not self._subscribers:
            return
        event = TraceEvent(self._now(), category, name, flow_id, fields)
        for fn in self._subscribers:
            fn(event)
        if keep:
            trace.record(event)
