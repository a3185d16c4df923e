"""Structured transport failures.

A connection that cannot make progress must end in something a caller
can *observe and classify* — never a silent stall and never a bare
``RuntimeError`` from deep inside an event handler.  The failure
object model:

* :class:`AbortInfo` — the record the sender leaves behind when it
  gives up (reason, simulated time, attempt counts).  Stored on the
  endpoint/connection rather than raised, because aborting happens
  inside the event loop where an exception would tear down the whole
  simulation (other flows included).
* :class:`ConnectionAborted` — the exception *hosts* raise when they
  find an abort record and want to propagate it (e.g.
  :meth:`repro.transport.connection.Connection.raise_if_aborted`, the
  chaos runner, a campaign task).  The campaign pool recognizes it and
  reports the task as degraded (``failure="aborted"``) instead of
  crashed, without retrying — the simulation is deterministic, a
  retry would abort identically.

Abort reasons (stable strings, used by telemetry and tests)::

    handshake_timeout     SYN/SYN-ACK retries exhausted
    rto_exhausted         consecutive data RTOs hit max_rto_retries
    persist_exhausted     zero-window probes went unanswered
    misbehaving_peer      feedback validation escalated (repeated
                          guard-rule violations or the ACK-withholding
                          watchdog ran out of probes; see
                          repro.transport.guard)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class AbortInfo:
    """Why and when an endpoint gave up."""

    reason: str
    at_s: float
    flow_id: int = 0
    attempts: int = 0
    detail: str = ""

    def describe(self) -> str:
        text = f"flow {self.flow_id} aborted at t={self.at_s:.6f}s: {self.reason}"
        if self.attempts:
            text += f" after {self.attempts} attempts"
        if self.detail:
            text += f" ({self.detail})"
        return text


class FeedbackFormatError(ValueError):
    """Malformed acknowledgment feedback (wire-decode hardening).

    Raised by :func:`repro.transport.feedback.check_wire_form` when an
    ``AckFeedback`` pulled out of ``Packet.meta`` has the wrong shape —
    a non-int ``cum_ack``, a SACK list that is not a list of 2-tuples,
    a NaN delay, and so on.  A *structured* decode failure carrying
    the offending field, instead of a bare ``TypeError``/``IndexError``
    leaking from the middle of ``_on_feedback``.  The sender never
    lets it propagate into the event loop; the feedback guard counts
    it under the ``format`` rule and drops the frame.
    """

    def __init__(self, field: str, detail: str):
        super().__init__(f"malformed feedback field {field!r}: {detail}")
        self.field = field
        self.detail = detail


class ConnectionAborted(Exception):
    """A connection terminated without delivering its bytes.

    Carries the :class:`AbortInfo`; ``str()`` renders the full story so
    a manifest's ``error`` field is self-explanatory.
    """

    def __init__(self, info: AbortInfo):
        super().__init__(info.describe())
        self.info = info

    @property
    def reason(self) -> str:
        return self.info.reason


def abort_result(info: Optional[AbortInfo]) -> Optional[dict]:
    """JSON-friendly rendering of an abort record (``None`` passes
    through) — what summaries and manifests embed."""
    if info is None:
        return None
    return {
        "reason": info.reason,
        "at_s": info.at_s,
        "flow_id": info.flow_id,
        "attempts": info.attempts,
        "detail": info.detail,
    }
