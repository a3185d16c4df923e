"""repro.telemetry.binlog: preallocated binary trace sinks.

The binary plane exists so tracing can stay *on* in fleet-scale runs:
struct-packed fixed-width records with string interning instead of
per-event JSON.  Convert to ordinary schema-v1 JSONL offline::

    python -m repro.telemetry convert run.rtb run.jsonl

The conversion is byte-for-byte faithful (digest-equal to what a live
``JsonlSink`` would have written for the same event stream), so every
existing JSONL consumer works unchanged on converted traces.

``ALWAYS_ON_SAMPLING`` is the deterministic per-category sampling
profile that defines "always-on mode": a flight recorder, not an
analysis trace.  The per-packet firehose categories keep sparse
counter-based 1-in-N spans, the per-feedback categories (ack / cc)
denser ones, and the rare categories (chaos) everything — chosen so
the whole mode is cheap enough to leave on (``telemetry.overhead_pct``
in ``benchmarks/perf/planes.py`` measures it).  Because sampling
lives in the collector (not the sink), a JSONL and a binary trace of
the same seeded run keep the *same* events.
"""

from repro.telemetry.binlog.convert import (
    convert_binary_trace,
    iter_binary_trace,
    read_binary_trace,
)
from repro.telemetry.binlog.format import (
    BIN_VERSION,
    DEFAULT_MAX_INTERNED,
    MAGIC,
    BinaryFormatError,
    StringTable,
    is_binary_preamble,
)
from repro.telemetry.binlog.sinks import BinaryFileSink, BinaryRingSink
from repro.telemetry.collector import TraceCollector

#: Deterministic sampled-span profile for always-on binary tracing:
#: keep 1 in N per category, counter-based (no RNG), so the kept-event
#: set is a pure function of the run.  Strides are budgeted from the
#: measured per-event cost (~4-5us kwargs+event+encode) against the
#: <10% overhead gate; unlisted categories (e.g. ``chaos``) keep
#: everything.
ALWAYS_ON_SAMPLING = {
    "netsim": 64,
    "transport": 32,
    "ack": 4,
    "cc": 4,
    "timing": 2,
}


def always_on_collector(sink=None, capacity_bytes: int = 1 << 18,
                        **kwargs) -> TraceCollector:
    """A :class:`TraceCollector` configured for always-on tracing:
    a :class:`BinaryRingSink` (unless *sink* is given) plus the
    :data:`ALWAYS_ON_SAMPLING` spans.  The default ring is 256 KiB —
    a deliberately small cache footprint, sized to hold the last few
    simulated seconds of sampled spans."""
    if sink is None:
        sink = BinaryRingSink(capacity_bytes=capacity_bytes)
    return TraceCollector(sink=sink, sampling=ALWAYS_ON_SAMPLING, **kwargs)


__all__ = [
    "ALWAYS_ON_SAMPLING",
    "BIN_VERSION",
    "BinaryFileSink",
    "BinaryFormatError",
    "BinaryRingSink",
    "DEFAULT_MAX_INTERNED",
    "MAGIC",
    "StringTable",
    "always_on_collector",
    "convert_binary_trace",
    "is_binary_preamble",
    "iter_binary_trace",
    "read_binary_trace",
]
