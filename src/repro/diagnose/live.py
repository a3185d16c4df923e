"""Live diagnosis plane: the simulator-attached flow doctor.

:class:`FlowDoctor` is the only simulation-side piece of the package:
a stream subscriber of the simulator's probe bus
(:mod:`repro.telemetry.bus`).  Every diagnosis-vocabulary site emits
its event once, through ``sim.probes``; the bus reads the clock and
calls the doctor with ``(t, category, name, flow_id, fields)`` — no
event object is built for it — and, for what the collector's own
filter and sampling keep, stamps a ``TraceEvent`` for the trace.  The
doctor's subscription *is* :meth:`DiagnosisEngine.fold`, the very call
:func:`~repro.diagnose.offline.diagnose_events` makes per replayed
event: one lookup in the engine's ``VOCABULARY`` table, one handler.
So live and offline reports are byte-identical by construction
whenever the trace kept the vocabulary categories unsampled (the
default collector does; the always-on ring thins the *trace*, never
what the doctor sees).

Subscribers by kind: ``telemetry`` and ``diagnosis`` consume the event
vocabulary and hang off the bus; the energy ledger, the sanitizer and
the profiler consume packet/record objects at their own sites and stay
direct null-guarded hooks — routing them through events would make the
shared emit path branch per subscriber.
"""

from __future__ import annotations

from functools import partial

from repro.diagnose.engine import DiagnosisEngine
from repro.telemetry.bus import ProbeBus

__all__ = ["FlowDoctor"]


class FlowDoctor(DiagnosisEngine):
    """The diagnosis reducer, subscribed to one simulation's events.

    Hand it to the ``diagnosis=`` constructor argument of
    :class:`~repro.netsim.engine.Simulator` and read the report after
    the run::

        doctor = FlowDoctor()
        sim = Simulator(seed=1, diagnosis=doctor)
        ...  # build path + connection, run
        doctor.finalize()
        report = doctor.report()
    """

    def attach(self, sim) -> "FlowDoctor":
        """Subscribe to the simulator's probe bus (under the sanitizer
        through its ``doctor_state`` check of every fold)."""
        ProbeBus.of(sim).subscribe(
            self.fold if sim.san is None
            else partial(sim.san.doctor_fold, self))
        return self
