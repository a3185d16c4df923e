"""Two earlier versions of ``check_wire_form``, kept verbatim as oracles
for ``tests/test_guard.py::TestWireFormOracle``:

* ``check_wire_form``, the helper-only version from before the
  per-feedback path was flattened (commit 374e4dc): every field goes
  through a ``_require_*`` helper, whatever its type;
* ``getattr_check_wire_form``, the version that followed it (commit
  ec6fcf9): exact built-in types pass inline, the block lists and the
  real-valued fields are read through ``getattr`` loops.

The version in ``repro.transport.feedback`` reads every field by name
and must accept and reject the same frames as both, naming the same
field with the same detail.
"""

from __future__ import annotations

import math
from math import isfinite
from typing import Any

from repro.transport.errors import FeedbackFormatError
from repro.transport.feedback import AckFeedback


def _require_int(field: str, value: Any) -> None:
    # bool is an int subclass but an awnd of True is garbage, not a
    # window; reject it explicitly.
    if not isinstance(value, int) or isinstance(value, bool):
        raise FeedbackFormatError(field, f"expected int, got {value!r}")


def _require_real(field: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FeedbackFormatError(field, f"expected number, got {value!r}")
    if not math.isfinite(value):
        raise FeedbackFormatError(field, f"non-finite value {value!r}")


def _require_pair_list(field: str, value: Any, kind) -> None:
    if not isinstance(value, (list, tuple)):
        raise FeedbackFormatError(field, f"expected list, got {value!r}")
    for entry in value:
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            raise FeedbackFormatError(field, f"expected 2-tuples, got {entry!r}")
        for part in entry:
            kind(field, part)


def check_wire_form(fb: Any) -> AckFeedback:
    """Structural validation of a decoded feedback frame.

    Returns ``fb`` unchanged when every field has the declared wire
    shape (see :class:`AckFeedback`); raises
    :class:`~repro.transport.errors.FeedbackFormatError` naming the
    first offending field otherwise.  *Values* are not judged here —
    an in-range type-correct lie (an optimistic ``cum_ack``, a
    replayed ``fb_seq``) is the feedback guard's job
    (:mod:`repro.transport.guard`); this function only guarantees the
    sender can consume the frame without a ``TypeError`` escaping the
    event loop.
    """
    if not isinstance(fb, AckFeedback):
        raise FeedbackFormatError("fb", f"expected AckFeedback, got {type(fb).__name__}")
    _require_int("cum_ack", fb.cum_ack)
    _require_int("awnd", fb.awnd)
    _require_pair_list("sack_blocks", fb.sack_blocks, _require_int)
    _require_pair_list("unacked_blocks", fb.unacked_blocks, _require_int)
    if fb.pull_pkt_range is not None:
        _require_pair_list("pull_pkt_range", [fb.pull_pkt_range], _require_int)
    for field in ("tack_delay", "echo_departure_ts", "delivery_rate_bps",
                  "rx_loss_rate"):
        value = getattr(fb, field)
        if value is not None:
            _require_real(field, value)
    if fb.largest_pkt_seq is not None:
        _require_int("largest_pkt_seq", fb.largest_pkt_seq)
    _require_pair_list("packet_delays", fb.packet_delays, _require_real)
    if fb.reason is not None and not isinstance(fb.reason, str):
        raise FeedbackFormatError("reason", f"expected str, got {fb.reason!r}")
    if fb.fb_seq is not None:
        _require_int("fb_seq", fb.fb_seq)
    return fb


def _plain_int_pairs(value: list) -> bool:
    """True when every entry is an exact 2-tuple of exact ints: the
    shape the receiver builds, which needs no second look."""
    for entry in value:
        if (type(entry) is not tuple or len(entry) != 2
                or type(entry[0]) is not int or type(entry[1]) is not int):
            return False
    return True


def getattr_check_wire_form(fb: Any) -> AckFeedback:
    """Structural validation of a decoded feedback frame.

    Returns ``fb`` unchanged when every field has the declared wire
    shape (see :class:`AckFeedback`); raises
    :class:`~repro.transport.errors.FeedbackFormatError` naming the
    first offending field otherwise.  *Values* are not judged here —
    an in-range type-correct lie (an optimistic ``cum_ack``, a
    replayed ``fb_seq``) is the feedback guard's job
    (:mod:`repro.transport.guard`); this function only guarantees the
    sender can consume the frame without a ``TypeError`` escaping the
    event loop.
    """
    if not isinstance(fb, AckFeedback):
        raise FeedbackFormatError("fb", f"expected AckFeedback, got {type(fb).__name__}")
    # A value of the exact built-in type (an empty list, a list of
    # plain int pairs) has the declared shape and passes here; anything
    # else -- a subclass, a bool, a tuple for a list -- is the helper's
    # to accept or to reject naming the field, in the same field order.
    if type(fb.cum_ack) is not int:
        _require_int("cum_ack", fb.cum_ack)
    if type(fb.awnd) is not int:
        _require_int("awnd", fb.awnd)
    for field in ("sack_blocks", "unacked_blocks"):
        value = getattr(fb, field)
        if type(value) is not list or (value and not _plain_int_pairs(value)):
            _require_pair_list(field, value, _require_int)
    if fb.pull_pkt_range is not None:
        _require_pair_list("pull_pkt_range", [fb.pull_pkt_range], _require_int)
    for field in ("tack_delay", "echo_departure_ts", "delivery_rate_bps",
                  "rx_loss_rate"):
        value = getattr(fb, field)
        if value is not None and not (type(value) is float
                                      and isfinite(value)):
            _require_real(field, value)
    if fb.largest_pkt_seq is not None and type(fb.largest_pkt_seq) is not int:
        _require_int("largest_pkt_seq", fb.largest_pkt_seq)
    if type(fb.packet_delays) is not list or fb.packet_delays:
        _require_pair_list("packet_delays", fb.packet_delays, _require_real)
    if fb.reason is not None and not isinstance(fb.reason, str):
        raise FeedbackFormatError("reason", f"expected str, got {fb.reason!r}")
    if fb.fb_seq is not None and type(fb.fb_seq) is not int:
        _require_int("fb_seq", fb.fb_seq)
    return fb
