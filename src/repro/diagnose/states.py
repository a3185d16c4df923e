"""Send-limit state vocabulary for the flow doctor.

Every instant of a flow's lifetime belongs to exactly one of these
states.  When several conditions hold at once (a flow can be inside
RTO recovery *and* nominally cwnd-limited), the state earlier in
:data:`ALL_STATES` wins — recovery and control-plane conditions shadow
the steady-state limit classification, mirroring how tcp_info-style
rate samples fold app-limited epochs out of cwnd-limited ones.
"""

from __future__ import annotations

#: Connection has not completed the handshake yet (includes SYN
#: retries and handshake-timeout aborts).
HANDSHAKE = "handshake"

#: Transfer finished (all bytes cumulatively acked) or structurally
#: aborted; the tail until ``close`` is bookkeeping, not sending.
CLOSING = "closing"

#: Timeout recovery: an RTO fired and the recovery point (the highest
#: sequence outstanding at the timeout) has not been fully acked yet.
RTO_RECOVERY = "rto-recovery"

#: Feedback-driven loss recovery (IACK pulls, TACK unacked blocks,
#: dupACK/RACK) without a timeout.
PULL_RECOVERY = "pull-recovery"

#: The receiver's advertised window (not cwnd) is the binding
#: constraint — includes zero-window persist probing.
RWND_LIMITED = "rwnd-limited"

#: No feedback of any kind for longer than the starvation threshold
#: while bytes are in flight: the ACK clock has stalled.
ACK_STARVED = "ack-starved"

#: The TACK receiver has boosted its ACK frequency above the Eq. (3)
#: minimum because measured ACK-path loss crossed the degradation
#: threshold.
DEGRADED_TACK = "degraded-tack"

#: The application ran out of data to send.
APP_LIMITED = "app-limited"

#: The pacer (paper S5.3) is metering transmissions; the window has
#: room.
PACING_LIMITED = "pacing-limited"

#: Default steady state: the congestion window is the binding
#: constraint.
CWND_LIMITED = "cwnd-limited"

#: Every state in classification priority, highest first (``classify``
#: returns the first whose condition holds; stable for table rendering).
ALL_STATES = (
    HANDSHAKE,
    CLOSING,
    RTO_RECOVERY,
    PULL_RECOVERY,
    RWND_LIMITED,
    ACK_STARVED,
    DEGRADED_TACK,
    APP_LIMITED,
    PACING_LIMITED,
    CWND_LIMITED,
)
