"""Offline diagnosis plane: replay any schema-v1 trace.

Host-side module (file I/O).  ``diagnose_trace`` accepts either a
JSONL trace or a binary ``.rtb`` trace (sniffed by magic, no flag
needed) and replays its diagnosis-vocabulary events through the same
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

__all__ = ["diagnose_events", "diagnose_trace", "load_trace_events"]


def load_trace_events(path: str, allow_truncated: bool = False):
    """Load ``(meta, events)`` from a JSONL or binary trace."""
    from repro.telemetry.binlog.format import is_binary_preamble

    with open(path, "rb") as fh:
        head = fh.read(16)
    if is_binary_preamble(head):
        from repro.telemetry.binlog.convert import read_binary_trace

        return read_binary_trace(path, require_trailer=not allow_truncated)
    header, events = read_trace(path)
    return header.get("meta"), events


def diagnose_events(events: Iterable[TraceEvent],
                    config: Optional[DiagnosisConfig] = None,
                    ) -> Dict[str, Any]:
    """Run the diagnosis reducer over an in-memory event stream."""
    engine = DiagnosisEngine(config)
    for event in events:
        engine.observe(event)
    engine.finalize()
    return engine.report()


def diagnose_trace(path: str, config: Optional[DiagnosisConfig] = None,
                   allow_truncated: bool = False) -> Dict[str, Any]:
    """Diagnose a trace file; returns the full report dict."""
    _meta, events = load_trace_events(path, allow_truncated=allow_truncated)
    return diagnose_events(events, config)
