"""Typed trace events and the schema-v1 event taxonomy.

A :class:`TraceEvent` is one structured observation from inside a
running simulation: a category (which subsystem), a name (what
happened), the simulated time it happened at, the flow it belongs to,
and a flat dict of event-specific fields.  The design is qlog-inspired
(categories + named events + data dict) but stays deliberately small:
everything serializes to one compact JSON object per line.

Schema v1 wire format (JSONL)::

    {"schema": "repro-telemetry", "version": 1, "meta": {...}}   # header
    {"t": 0.04012, "cat": "ack", "name": "tack", "flow": 0,
     "data": {"reason": "periodic", "cum_ack": 96000, ...}}      # events

Categories (see DESIGN.md section 10 for the full event taxonomy):

``netsim``
    Link-level packet life cycle: ``enqueue``, ``drop`` (with a
    ``reason`` of ``loss``, ``queue``, ``blackout``, or ``corrupt``),
    ``tx_start``, ``delivered``.  ``tx_start`` (and a ``corrupt`` drop)
    comes at acceptance, after ``enqueue``, also for a packet still
    waiting when the run stops; no event marks the wire going idle.
``transport``
    Endpoint events: ``send``/``retx`` (sender emission),
    ``recv``/``gap``/``deliver`` (receiver side), ``feedback``
    (processed acknowledgment), ``rto``.  The connection *lifecycle
    vocabulary* consumed by the flow doctor (:mod:`repro.diagnose`,
    DESIGN.md section 16) is the ten names ``open``, ``established``,
    ``limited`` (send-limit changes: ``limit`` of ``cwnd``/``pacing``/
    ``rwnd``/``app``), ``recovery`` (``mode`` of ``rto``/``pull``/
    ``none``), ``persist``, ``rto`` (carries the armed ``rto_s``),
    ``feedback`` (carries ``fb_seq``, the receiver's feedback sequence
    number, and ``rho_est``, its loss-rate estimate), ``complete``,
    ``abort``, and ``close`` — additions to this set must stay
    backward-decodable because live and offline diagnosis reports are
    required to be byte-identical.
``ack``
    One event per acknowledgment the receiver emits, named by packet
    kind (``tack``/``iack``/``ack``) and carrying the emission
    *reason*: ``periodic``, ``bytecount``, ``flush``, ``close``,
    ``loss``, ``zero_window``, ``window_open``.
``cc``
    Congestion control: ``update`` (cwnd/pacing after each feedback),
    ``state`` (BBR state transitions), ``bw_filter`` (windowed-max
    bandwidth estimate changes).
``timing``
    RTT machinery: ``rtt_sample`` (raw sample + srtt + rtt_min) and
    ``rttmin_sync`` (sender-to-receiver RTT_min resync on data
    packets, paper S5.2).
``chaos``
    Fault-injection plane (:mod:`repro.chaos`): ``fault_on`` /
    ``fault_off`` when a scheduled impairment window opens/closes;
    the ``ack`` category's ``degrade`` event marks TACK's graceful
    densification under heavy ACK-path loss, and ``transport`` gains
    ``abort`` when an endpoint gives up.
``guard``
    The sender's feedback guard (:mod:`repro.transport.guard`,
    DESIGN.md section 17): ``violation`` (first few per rule, with
    ``rule``/``count``/``detail``), ``watchdog_probe`` (ACK-withholding
    last resort), ``escalated`` (tolerate budget spent; the flow aborts
    ``misbehaving_peer``), and one ``summary`` at close carrying the
    final per-rule counters for the violations the rate limit muted.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Version stamped into every trace-file header.
SCHEMA_VERSION = 1

#: Magic string identifying a trace file's header line.
SCHEMA_NAME = "repro-telemetry"


def format_header_line(meta: Optional[Dict[str, Any]] = None) -> str:
    """The schema-v1 JSONL header line (with trailing newline)."""
    header: Dict[str, Any] = {"schema": SCHEMA_NAME,
                              "version": SCHEMA_VERSION}
    if meta is not None:
        header["meta"] = meta
    return json.dumps(header, separators=(",", ":")) + "\n"

CAT_NETSIM = "netsim"
CAT_TRANSPORT = "transport"
CAT_ACK = "ack"
CAT_CC = "cc"
CAT_TIMING = "timing"
CAT_CHAOS = "chaos"
CAT_GUARD = "guard"

#: Every known category, in display order.
CATEGORIES = (CAT_NETSIM, CAT_TRANSPORT, CAT_ACK, CAT_CC, CAT_TIMING,
              CAT_CHAOS, CAT_GUARD)


class TraceEvent:
    """One structured observation at a simulated instant."""

    __slots__ = ("time", "category", "name", "flow_id", "fields")

    def __init__(self, time: float, category: str, name: str,
                 flow_id: int = 0, fields: Optional[Dict[str, Any]] = None):
        self.time = time
        self.category = category
        self.name = name
        self.flow_id = flow_id
        self.fields = fields if fields is not None else {}

    def to_dict(self) -> Dict[str, Any]:
        """Compact wire form (short keys keep JSONL traces small)."""
        return {
            "t": self.time,
            "cat": self.category,
            "name": self.name,
            "flow": self.flow_id,
            "data": self.fields,
        }

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "TraceEvent":
        return cls(
            time=obj["t"],
            category=obj["cat"],
            name=obj["name"],
            flow_id=obj.get("flow", 0),
            fields=obj.get("data") or {},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        # Exact float equality is intentional here: equality means
        # "the same serialized record", used by round-trip and
        # determinism tests, not clock arithmetic.
        return (self.time == other.time  # reprolint: disable=REP003
                and self.category == other.category
                and self.name == other.name
                and self.flow_id == other.flow_id
                and self.fields == other.fields)

    def __repr__(self) -> str:
        return (f"TraceEvent(t={self.time:.6f}, {self.category}/{self.name}, "
                f"flow={self.flow_id}, {self.fields})")
