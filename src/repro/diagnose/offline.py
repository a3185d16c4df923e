"""Offline diagnosis plane: replay any schema-v1 trace.

Host-side module (file I/O).  ``diagnose_trace`` reads a JSONL trace
and replays its diagnosis-vocabulary events through the same
:class:`~repro.diagnose.engine.DiagnosisEngine` the live
:class:`~repro.diagnose.live.FlowDoctor` drives — which is why the
resulting report, including its digest, is byte-identical to the live
one for the same run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.diagnose.engine import DiagnosisConfig, DiagnosisEngine
from repro.telemetry.events import TraceEvent
from repro.telemetry.trace_io import read_trace

__all__ = ["diagnose_events", "diagnose_trace"]


def diagnose_events(events: Iterable[TraceEvent],
                    config: Optional[DiagnosisConfig] = None,
                    ) -> Dict[str, Any]:
    """Run the diagnosis reducer over an in-memory event stream."""
    engine = DiagnosisEngine(config)
    for e in events:
        engine.fold(e.time, e.category, e.name, e.flow_id, e.fields)
    engine.finalize()
    return engine.report()


def diagnose_trace(path: str,
                   config: Optional[DiagnosisConfig] = None) -> Dict[str, Any]:
    """Diagnose a trace file; returns the full report dict."""
    _header, events = read_trace(path)
    return diagnose_events(events, config)
