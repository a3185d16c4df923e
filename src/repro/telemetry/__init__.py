"""repro.telemetry: opt-in qlog-style event tracing.

Quickstart::

    from repro.telemetry import JsonlSink, TraceCollector

    collector = TraceCollector(sink=JsonlSink("run.jsonl"))
    sim = Simulator(seed=7, telemetry=collector)   # before endpoints!
    ... build connection, run ...
    collector.close()

Then inspect the trace::

    python -m repro.telemetry summarize run.jsonl
    python -m repro.telemetry filter run.jsonl --category ack --flow 0
    python -m repro.telemetry diff tack.jsonl per-packet-ack.jsonl
"""

from repro.telemetry.collector import (
    ALWAYS_ON_SAMPLING,
    TraceCollector,
    always_on_collector,
)
from repro.telemetry.events import (
    CAT_ACK,
    CAT_CC,
    CAT_CHAOS,
    CAT_NETSIM,
    CAT_TIMING,
    CAT_TRANSPORT,
    CATEGORIES,
    SCHEMA_VERSION,
    TraceEvent,
)
from repro.telemetry.sinks import JsonlSink, MemorySink, TraceSink
from repro.telemetry.trace_io import (
    TraceFormatError,
    iter_events,
    read_header,
    read_trace,
    trace_digest,
    write_trace,
)

__all__ = [
    "TraceCollector",
    "TraceEvent",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "ALWAYS_ON_SAMPLING",
    "always_on_collector",
    "TraceFormatError",
    "read_trace",
    "read_header",
    "iter_events",
    "write_trace",
    "trace_digest",
    "SCHEMA_VERSION",
    "CATEGORIES",
    "CAT_NETSIM",
    "CAT_TRANSPORT",
    "CAT_ACK",
    "CAT_CC",
    "CAT_TIMING",
    "CAT_CHAOS",
]
