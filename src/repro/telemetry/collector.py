"""The trace collector: opt-in event capture with near-zero off cost.

The collector is the *trace subscriber* of the probe bus
(:mod:`repro.telemetry.bus`): events other planes also consume reach
it through ``sim.probes``, already stamped, via :meth:`gate` +
:meth:`record`; sites only a trace wants cache ``sim.telemetry`` at
construction and guard with ``if self._tel is not None`` (or a cached
stride), so a simulation without telemetry pays one test per site.
Those sites call :meth:`TraceCollector.emit`, which

1. drops the event if its category is filtered out,
2. applies deterministic per-category sampling (keep 1 in N, counted
   per category — no RNG involved, so a given run always keeps the
   same events),
3. stamps the current *simulated* time (the collector caches
   ``sim.clock.now`` at attach time; it never reads the wall clock),
4. appends the event to the sink.

Usage::

    collector = TraceCollector(sink=JsonlSink("run.jsonl"))
    sim = Simulator(seed=7, telemetry=collector)
    ... build endpoints, run ...
    collector.close()

Like the sanitizer, the collector must be attached *before* endpoints
and links are constructed — they cache the reference at build time.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.telemetry.bus import ProbeBus
from repro.telemetry.events import TraceEvent
from repro.telemetry.sinks import MemorySink, TraceSink


class TraceCollector:
    """Routes instrumentation events to a sink.

    Parameters
    ----------
    sink:
        Where events go; defaults to an unbounded :class:`MemorySink`.
    categories:
        Iterable of category names to keep; ``None`` keeps everything.
    sampling:
        ``{category: N}`` — keep one event in every N for that
        category (N <= 1 keeps all).  Sampling is counter-based and
        therefore deterministic for a fixed simulation seed.
    """

    def __init__(
        self,
        sink: Optional[TraceSink] = None,
        categories: Optional[Iterable[str]] = None,
        sampling: Optional[Dict[str, int]] = None,
    ):
        self.sink = sink if sink is not None else MemorySink()
        self._categories = (frozenset(categories)
                            if categories is not None else None)
        self._sampling = dict(sampling) if sampling else {}
        # per-category [count, step] cells: one dict probe per gate
        # decision on the hot path instead of three.
        self._gate_state: Dict[str, List[int]] = {
            cat: [0, step] for cat, step in self._sampling.items()
            if step is not None and step > 1}
        self._now: Optional[Callable[[], float]] = None
        self.events_emitted = 0
        self.events_dropped = 0

    # ------------------------------------------------------------------
    def attach(self, sim) -> "TraceCollector":
        """Bind to a simulator's virtual clock (timestamp source) and
        become the trace subscriber of its probe bus."""
        self._now = sim.clock.now
        ProbeBus.of(sim).trace = self
        return self

    def sampling_stride(self, category: str) -> int:
        """Keep-1-in-N stride a hot site should apply *locally*.

        Returns 0 when the category is filtered out entirely (the
        site must not emit at all), 1 for full fidelity, or the
        configured stride.  Per-packet hook sites cache this at
        construction and run their own counter::

            self._tel_stride = (tel.sampling_stride("netsim")
                                if tel is not None else 0)
            self._tel_n = 0
            ...
            if tel is not None and self._tel_stride:
                n = self._tel_n + 1
                if n >= self._tel_stride:
                    self._tel_n = 0
                    tel.emit_kept("netsim", ...)
                else:
                    self._tel_n = n

        A dropped event then costs integer arithmetic on the
        component, not a collector call — the decisive lever on what
        always-on tracing costs.  Site-local counters keep the same
        1-in-N density as collector-side sampling and stay fully
        deterministic; they just phase the kept set per site instead
        of per category.
        """
        if self._categories is not None and category not in self._categories:
            return 0
        step = self._sampling.get(category)
        return step if step is not None and step > 1 else 1

    # ------------------------------------------------------------------
    def gate(self, category: str) -> bool:
        """Keep/drop decision for the next *category* event.

        Advances the same deterministic sampling counters as
        :meth:`emit`, so ``gate() + emit_kept()`` keeps exactly the
        events a plain ``emit()`` would.  Hot hook sites pair the two
        so *dropped* events never pay for building their field dict::

            if tel is not None and tel.gate("netsim"):
                tel.emit_kept("netsim", "delivered", fid, nbytes=...)

        That kwargs-construction skip is what keeps always-on tracing
        cheap (``telemetry.overhead_pct`` in
        ``benchmarks/perf/planes.py`` measures it).
        """
        if self._categories is not None and category not in self._categories:
            self.events_dropped += 1
            return False
        cell = self._gate_state.get(category)
        if cell is not None:
            n = cell[0]
            cell[0] = n + 1
            if n % cell[1]:
                self.events_dropped += 1
                return False
        return True

    def emit_kept(self, category: str, name: str, flow_id: int = 0,
                  **fields) -> TraceEvent:
        """Record one event that already passed :meth:`gate`."""
        t = self._now() if self._now is not None else 0.0
        event = TraceEvent(t, category, name, flow_id, fields)
        self.record(event)
        return event

    def record(self, event: TraceEvent) -> None:
        """Keep an already-stamped event that passed :meth:`gate`."""
        self.events_emitted += 1
        self.sink.append(event)

    def emit(self, category: str, name: str, flow_id: int = 0,
             **fields) -> Optional[TraceEvent]:
        """Record one event; returns it, or ``None`` if filtered."""
        if not self.gate(category):
            return None
        return self.emit_kept(category, name, flow_id, **fields)

    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """Events retained by the sink (memory sinks only)."""
        getter = getattr(self.sink, "events", None)
        if getter is None:
            raise TypeError(
                f"{type(self.sink).__name__} does not retain events; "
                "read the trace file back with repro.telemetry.read_trace")
        return getter()

    def close(self) -> None:
        self.sink.close()

    def __repr__(self) -> str:
        return (f"TraceCollector(emitted={self.events_emitted}, "
                f"dropped={self.events_dropped}, "
                f"sink={type(self.sink).__name__})")


#: "Always-on mode" is a flight recorder, not an analysis trace: keep
#: 1 in N per category, counter-based (no RNG), so the kept-event set
#: is a pure function of the run.  The per-packet firehose categories
#: keep sparse spans, the per-feedback ones (ack / cc) denser ones,
#: and unlisted rare categories (e.g. ``chaos``) everything.
ALWAYS_ON_SAMPLING = {
    "netsim": 64,
    "transport": 32,
    "ack": 4,
    "cc": 4,
    "timing": 2,
}

#: Ring bound of the always-on collector: a 50 Mbit/s tcp-tack flow
#: emits ~680 sampled events per simulated second, so the ring holds
#: the last ~6 s of it.
ALWAYS_ON_RING_EVENTS = 4096


def always_on_collector() -> TraceCollector:
    """A :class:`TraceCollector` configured for always-on tracing: the
    :data:`ALWAYS_ON_SAMPLING` spans into a bounded
    :class:`MemorySink` ring."""
    return TraceCollector(sink=MemorySink(max_events=ALWAYS_ON_RING_EVENTS),
                          sampling=ALWAYS_ON_SAMPLING)
