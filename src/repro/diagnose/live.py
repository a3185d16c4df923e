"""Live diagnosis plane: the simulator-attached flow doctor.

:class:`FlowDoctor` is the only simulation-side piece of the package:
a stream subscriber of the simulator's probe bus
(:mod:`repro.telemetry.bus`).  Every diagnosis-vocabulary site emits
its event once, through ``sim.probes``; the bus stamps one
``TraceEvent`` and hands that same object to the doctor and — after
the collector's own filter and sampling — to the trace.  The doctor's
subscription *is* :meth:`DiagnosisEngine.observe`, the very call
:func:`~repro.diagnose.offline.diagnose_events` makes per replayed
event, so live and offline reports are byte-identical by construction
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
        """Subscribe to the simulator's probe bus."""
        ProbeBus.of(sim).subscribe(self.observe)
        return self
