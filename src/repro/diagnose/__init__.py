"""Flow doctor: per-connection send-limit diagnosis (PR 9).

The package classifies every instant of a flow's lifetime into one of
the exclusive send-limit states of :mod:`repro.diagnose.states`, either
**live** (a :class:`FlowDoctor` subscribed to the simulator's probe
bus, the stream the telemetry trace records) or **offline** (replaying
any schema-v1 JSONL trace through the same reducer).  Both paths
observe the very same events, so their reports — and the report
digests — are byte-identical.

Layering:

* :mod:`repro.diagnose.states` — state vocabulary and priority.
* :mod:`repro.diagnose.engine` — the pure stream reducer
  (:class:`DiagnosisEngine`) plus anomaly detection.
* :mod:`repro.diagnose.live` — :class:`FlowDoctor`, the simulation-side
  bus subscriber (everything else is host code).
* :mod:`repro.diagnose.offline` — trace replay (`diagnose_trace`).
* :mod:`repro.diagnose.explain` — two-run goodput-delta attribution.
* :mod:`repro.diagnose.cli` — ``python -m repro.diagnose``.
"""

from repro.diagnose.engine import DiagnosisConfig, DiagnosisEngine
from repro.diagnose.explain import explain_reports
from repro.diagnose.live import FlowDoctor
from repro.diagnose.offline import diagnose_trace
from repro.diagnose.states import ALL_STATES

__all__ = [
    "ALL_STATES",
    "DiagnosisConfig",
    "DiagnosisEngine",
    "FlowDoctor",
    "diagnose_trace",
    "explain_reports",
]
