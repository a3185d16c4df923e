"""Assembled protocol flavors.

``make_connection`` builds the schemes the paper evaluates:

========================  ==========================================
scheme                    composition
========================  ==========================================
``tcp-tack``              TACK policy + receiver-driven loss
                          detection + advanced timing + co-designed
                          BBR on receiver-reported rates (TCP-TACK)
``tcp-tack-poor``         same but TACKs carry only Q=1 blocks and run
                          the literal Eq. (3) clock (no HoLB
                          keep-alive) — the paper's Fig. 5(b) baseline
``tcp-tack-cubic``        TACK mechanism with CUBIC
``tcp-bbr``               delayed ACK + SACK + RACK + sender BBR
``tcp-cubic``             delayed ACK + SACK + RACK + CUBIC
``tcp-reno``              delayed ACK + SACK + NewReno
``tcp-vegas``             delayed ACK + SACK + Vegas
``tcp-bbr-l{4,8,16}``     the paper's ACK-thinning patch: L=4/8/16
``tcp-bbr-perpacket``     TCP_QUICKACK (L=1)
========================  ==========================================
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ack import (
    AckPolicy,
    ByteCountingAck,
    DelayedAck,
    PeriodicAck,
    PerPacketAck,
    TackPolicy,
)
from repro.cc import BBR, CompoundTcp, Cubic, NewReno, Vegas
from repro.cc.base import CongestionController
from repro.core.params import TackParams
from repro.netsim.engine import Simulator
from repro.transport.connection import Connection, ConnectionConfig
from repro.transport.guard import GuardConfig


def _tack_scheme(cc_factory: Callable[[], CongestionController],
                 rich: "bool | str", timing_mode: str = "advanced",
                 holb_keepalive: bool = True):
    def build(sim: Simulator, params: Optional[TackParams], flow_id: int,
              rcv_buffer: int, initial_rtt_s: float,
              guard: Optional[GuardConfig] = None) -> Connection:
        tack_params = (params or TackParams()).copy(
            rich=rich, timing_mode=timing_mode, holb_keepalive=holb_keepalive
        )
        cc = cc_factory()
        if isinstance(cc, BBR):
            cc._initial_rtt_s = initial_rtt_s
        config = ConnectionConfig(
            receiver_driven=True,
            timing_mode=tack_params.timing_mode,
            rcv_buffer_bytes=rcv_buffer,
            flow_id=flow_id,
            guard=guard,
        )
        return Connection(sim, cc, TackPolicy(tack_params), config)
    return build


def _legacy_scheme(cc_factory: Callable[[], CongestionController],
                   policy_factory: Callable[[], AckPolicy]):
    def build(sim: Simulator, params: Optional[TackParams], flow_id: int,
              rcv_buffer: int, initial_rtt_s: float,
              guard: Optional[GuardConfig] = None) -> Connection:
        cc = cc_factory()
        if isinstance(cc, BBR):
            cc._initial_rtt_s = initial_rtt_s
        config = ConnectionConfig(
            receiver_driven=False,
            rcv_buffer_bytes=rcv_buffer,
            flow_id=flow_id,
            guard=guard,
        )
        return Connection(sim, cc, policy_factory(), config)
    return build


SCHEMES: dict[str, Callable] = {
    "tcp-tack": _tack_scheme(BBR, rich=True),
    "tcp-tack-poor": _tack_scheme(BBR, rich=False),
    "tcp-tack-poor-literal": _tack_scheme(BBR, rich=False, holb_keepalive=False),
    "tcp-tack-adaptive": _tack_scheme(BBR, rich="adaptive"),
    "tcp-tack-naive-timing": _tack_scheme(BBR, rich=True, timing_mode="naive"),
    "tcp-tack-perpacket-timing": _tack_scheme(BBR, rich=True,
                                              timing_mode="per-packet"),
    "tcp-tack-cubic": _tack_scheme(Cubic, rich=True),
    "tcp-tack-compound": _tack_scheme(CompoundTcp, rich=True),
    "tcp-compound": _legacy_scheme(CompoundTcp, DelayedAck),
    "tcp-bbr": _legacy_scheme(BBR, DelayedAck),
    "tcp-cubic": _legacy_scheme(Cubic, DelayedAck),
    "tcp-reno": _legacy_scheme(NewReno, DelayedAck),
    "tcp-vegas": _legacy_scheme(Vegas, DelayedAck),
    "tcp-bbr-perpacket": _legacy_scheme(BBR, PerPacketAck),
    "tcp-bbr-periodic": _legacy_scheme(BBR, PeriodicAck),
    "tcp-bbr-l4": _legacy_scheme(BBR, lambda: ByteCountingAck(4)),
    "tcp-bbr-l8": _legacy_scheme(BBR, lambda: ByteCountingAck(8)),
    "tcp-bbr-l16": _legacy_scheme(BBR, lambda: ByteCountingAck(16)),
}


def make_connection(
    sim: Simulator,
    scheme: str = "tcp-tack",
    params: Optional[TackParams] = None,
    flow_id: int = 0,
    rcv_buffer_bytes: int = 8 * 1024 * 1024,
    initial_rtt_s: float = 0.05,
    guard: Optional[GuardConfig] = None,
) -> Connection:
    """Build a connection of the named scheme.

    ``initial_rtt_s`` seeds BBR before the first measurement (the real
    stack inherits this from the handshake).  ``guard`` tunes the
    sender's feedback validator (``None`` keeps the default-enabled
    :class:`~repro.transport.guard.GuardConfig`).
    """
    try:
        factory = SCHEMES[scheme]
    except KeyError:
        raise KeyError(f"unknown scheme {scheme!r}; have {sorted(SCHEMES)}") from None
    return factory(sim, params, flow_id, rcv_buffer_bytes, initial_rtt_s,
                   guard=guard)
