"""The chaos scenario library.

Each :class:`Scenario` bundles a wired-path shape (rate/RTT/transfer
size), a :class:`~repro.chaos.faults.FaultSchedule` factory, and the
*expected ending*: every scenario x scheme run must terminate in
either full delivery or a structured abort within ``time_limit_s`` of
simulated time — a hang or an unhandled exception is always a bug.

``expect`` encodes which ending is acceptable:

* ``"deliver"`` — the impairment is survivable; the transfer must
  complete (possibly slowly).
* ``"abort"`` — the path is unrecoverable; the sender must give up
  with a structured :class:`~repro.transport.errors.AbortInfo`.
* ``"any"`` — both endings are legitimate (e.g. heavy loss right at
  the handshake: survival depends on the scheme's retry discipline).

The impairment shapes mirror the paper's robustness experiments:
``ack-path-loss`` is Fig. 5(b)'s asymmetric ACK-drop profile,
``burst-loss`` is the Gilbert-Elliott wireless profile behind
Fig. 13's loss sweeps, and ``bw-collapse`` models the rate-varying
channel of S6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.chaos.faults import (
    BandwidthOscillation,
    Blackout,
    BurstLossEpisode,
    Corruption,
    DelayStep,
    Duplication,
    FaultSchedule,
    JitterSpike,
    LinkFlap,
    LossEpisode,
    Reordering,
)

#: The protocol schemes every scenario is swept against by default:
#: TACK, the per-packet-ACK legacy baseline, and the BBR/CUBIC stacks.
DEFAULT_SCHEMES = ("tcp-tack", "tcp-bbr-perpacket", "tcp-bbr", "tcp-cubic")


@dataclass(frozen=True)
class Scenario:
    """One named chaos experiment: topology + fault schedule + verdict."""

    name: str
    description: str
    build: Callable[[], FaultSchedule] = field(repr=False)
    expect: str = "deliver"          # "deliver" | "abort" | "any"
    rate_bps: float = 20e6
    rtt_s: float = 0.04
    transfer_bytes: int = 1_500_000
    time_limit_s: float = 120.0
    #: Expected dominant diagnosis from the flow doctor: each token
    #: (``|``-separated alternatives, for scheme-dependent endings)
    #: must match either the dominant send-limit state or a present
    #: anomaly kind (see ``ChaosResult.diagnosis_ok``).  The chaos
    #: pytest suite asserts this across the scenario x scheme matrix.
    diagnosis: str = ""
    #: Misbehaving-peer model (a :data:`repro.adversary.models.
    #: ADVERSARIES` name) wrapped around the feedback path, or ``""``
    #: for a network-faults-only scenario.
    adversary: str = ""
    #: When non-empty and the run aborts, the structured abort reason
    #: must be one of these (e.g. the guard's ``misbehaving_peer``
    #: rather than a coincidental ``rto_exhausted``).
    expect_abort: tuple = ()

    def __post_init__(self):
        if self.expect not in ("deliver", "abort", "any"):
            raise ValueError(f"bad expect: {self.expect!r}")


def _blackout() -> FaultSchedule:
    # Starts at 0.3 s so even the fastest scheme (TACK finishes the
    # 1.5 MB transfer in ~0.75 s unimpaired) is still mid-transfer.
    return FaultSchedule([Blackout(0.3, 2.0, direction="both")])


def _flap() -> FaultSchedule:
    return FaultSchedule([LinkFlap(0.5, 3.0, period_s=0.5, direction="forward")])


def _ack_path_loss() -> FaultSchedule:
    # Asymmetric: only the ACK direction is impaired (Fig. 5(b) shape).
    # 60% uniform feedback loss forces TACK's graceful degradation.
    return FaultSchedule([LossEpisode(0.3, 4.0, rate=0.6, direction="reverse")])


def _burst_loss() -> FaultSchedule:
    return FaultSchedule([
        BurstLossEpisode(0.3, 3.0, p_enter=0.05, p_exit=0.3, bad_loss=0.7,
                         direction="forward"),
    ])


def _bw_collapse() -> FaultSchedule:
    return FaultSchedule([
        BandwidthOscillation(0.5, 4.0, low_bps=1e6, high_bps=20e6,
                             period_s=1.0, direction="forward"),
    ])


def _jitter_reorder() -> FaultSchedule:
    return FaultSchedule([
        JitterSpike(0.3, 2.0, jitter_s=0.02, direction="forward"),
        Reordering(2.5, 2.0, prob=0.1, extra_delay_s=0.03,
                   direction="forward"),
    ])


def _dup_corrupt() -> FaultSchedule:
    return FaultSchedule([
        Duplication(0.3, 2.0, prob=0.2, direction="forward"),
        Corruption(0.3, 2.0, prob=0.05, direction="forward"),
        Corruption(2.6, 1.0, prob=0.05, direction="reverse"),
    ])


def _route_change() -> FaultSchedule:
    # +0.25 s each way: the RTT step (~0.54 s total) overshoots the
    # retransmission timer armed for the old ~40 ms path, so the route
    # flip manifests as *spurious* RTOs — the in-flight data was only
    # delayed, never lost (the flow-doctor anomaly this scenario pins).
    # t=0.3 for the same reason as the blackout: later and the fast
    # schemes have already drained the transfer.
    return FaultSchedule([DelayStep(0.3, 2.0, extra_delay_s=0.25,
                                    direction="both")])


def _dead_path() -> FaultSchedule:
    # Never lifts within the time limit: the sender must abort, not hang.
    return FaultSchedule([Blackout(0.5, 600.0, direction="both")])


def _handshake_storm() -> FaultSchedule:
    # Heavy loss from t=0 swallows SYN exchanges; whether the flow
    # establishes before retries run out is scheme/seed-dependent.
    return FaultSchedule([LossEpisode(0.0, 8.0, rate=0.85, direction="both")])


def _kitchen_sink() -> FaultSchedule:
    # Everything composed: loss burst, rate collapse, jitter, dup,
    # asymmetric corruption, and a short blackout — staggered so
    # same-kind windows never overlap.
    return FaultSchedule([
        BurstLossEpisode(0.3, 2.0, direction="forward"),
        BandwidthOscillation(0.5, 3.0, low_bps=2e6, high_bps=20e6,
                             period_s=0.8, direction="forward"),
        JitterSpike(1.0, 1.5, jitter_s=0.015, direction="reverse"),
        Duplication(1.5, 1.0, prob=0.15, direction="forward"),
        Corruption(2.0, 1.0, prob=0.03, direction="reverse"),
        Blackout(4.0, 0.5, direction="both"),
    ])


SCENARIOS: dict[str, Scenario] = {
    s.name: s for s in [
        Scenario("blackout", "2 s total outage mid-transfer, both directions",
                 _blackout, diagnosis="rto-recovery"),
        # TACK's periodic pull keeps pacing through the flap and shows
        # up as ACK-starvation episodes instead of RTO storms.
        Scenario("flap", "link flaps at 2 Hz for 3 s (down half the time)",
                 _flap, diagnosis="rto-recovery|pull-recovery|ack-starvation"),
        Scenario("ack-path-loss",
                 "60% uniform ACK-path loss for 4 s (Fig. 5(b) shape)",
                 _ack_path_loss,
                 diagnosis="ack-starvation|ack-starved|degraded-tack"),
        Scenario("burst-loss",
                 "Gilbert-Elliott burst loss on the data path for 3 s",
                 # CUBIC's multiplicative decrease leaves it crawling
                 # cwnd-limited after the burst rather than in recovery.
                 _burst_loss,
                 diagnosis="pull-recovery|rto-recovery|cwnd-limited"),
        Scenario("bw-collapse",
                 "bottleneck oscillates 20 Mbps <-> 1 Mbps for 4 s",
                 _bw_collapse,
                 diagnosis="cwnd-limited|pull-recovery|rto-recovery"),
        # Mild impairment: the flow should stay *productive* — loss
        # recovery from dup-delivery at worst, never an RTO spiral.
        Scenario("jitter-reorder",
                 "20 ms jitter spike, then 10% reordering at +30 ms",
                 _jitter_reorder,
                 diagnosis="pull-recovery|cwnd-limited|pacing-limited"),
        Scenario("dup-corrupt",
                 "20% duplication + in-flight corruption, both directions",
                 _dup_corrupt, diagnosis="pull-recovery|cwnd-limited"),
        # TACK/CUBIC trip the timer and the doctor proves it spurious
        # (Eifel-lite); the BBR stacks instead mark the delay-reordered
        # flight lost and spend the step in feedback-driven recovery.
        Scenario("route-change",
                 "RTT steps +500 ms for 2 s and back (route flip)",
                 _route_change,
                 diagnosis="rto-recovery|spurious-rto|cwnd-limited"
                           "|pull-recovery"),
        Scenario("dead-path",
                 "path goes dark at t=0.5 s and never recovers",
                 _dead_path, expect="abort", transfer_bytes=4_000_000,
                 time_limit_s=600.0, diagnosis="rto-recovery"),
        Scenario("handshake-storm",
                 "85% bidirectional loss from t=0 through the handshake",
                 _handshake_storm, expect="any", transfer_bytes=300_000,
                 time_limit_s=300.0, diagnosis="handshake|rto-recovery"),
        Scenario("kitchen-sink",
                 "burst loss + rate collapse + jitter + dup + corruption "
                 "+ blackout, staggered",
                 _kitchen_sink,
                 diagnosis="rto-recovery|pull-recovery|cwnd-limited"),
    ]
}


def _no_faults() -> FaultSchedule:
    # Adversary scenarios impair the feedback *content*, not the
    # network: the path itself stays clean so every ending is
    # attributable to the peer model alone.
    return FaultSchedule([])


#: Misbehaving-peer scenarios, swept across the same scheme matrix but
#: kept OUT of :data:`SCENARIOS` on purpose: the legitimate-network
#: matrix doubles as the guard's false-positive suite (strict mode must
#: see zero violations there), while every scenario here must end in
#: its declared guard verdict.
ADVERSARY_SCENARIOS: dict[str, Scenario] = {
    s.name: s for s in [
        Scenario("adv-optimistic-acker",
                 "peer acks data far beyond anything sent, compounding",
                 _no_faults, expect="abort",
                 adversary="optimistic-acker",
                 expect_abort=("misbehaving_peer",),
                 transfer_bytes=4_000_000,
                 diagnosis="misbehaving-peer"),
        Scenario("adv-ack-withholder",
                 "peer goes silent after 200 kB while the path keeps "
                 "accepting data (T-RACKs failure mode)",
                 _no_faults, expect="abort",
                 adversary="ack-withholder",
                 expect_abort=("misbehaving_peer",),
                 transfer_bytes=4_000_000,
                 diagnosis="misbehaving-peer"),
        Scenario("adv-pull-flooder",
                 "every feedback demands out-of-range or whole-horizon "
                 "retransmission pulls",
                 _no_faults, expect="abort",
                 adversary="pull-flooder",
                 expect_abort=("misbehaving_peer",),
                 transfer_bytes=4_000_000,
                 diagnosis="misbehaving-peer"),
        Scenario("adv-fbseq-replayer",
                 "peer freezes fb_seq, masking ACK-path loss from rho'",
                 _no_faults, expect="abort",
                 adversary="fbseq-replayer",
                 expect_abort=("misbehaving_peer",),
                 transfer_bytes=4_000_000,
                 diagnosis="misbehaving-peer"),
        # The tolerate half of tolerate->escalate: a *bounded* timing
        # poisoning window is clamped through and the flow delivers.
        # Legacy schemes carry no timing fields, so the model is a
        # no-op there and the doctor sees an ordinary clean run.
        Scenario("adv-rtt-poisoner",
                 "bounded window of poisoned TACK timing echoes; guard "
                 "clamps through, flow still delivers",
                 _no_faults, expect="deliver",
                 adversary="rtt-poisoner",
                 transfer_bytes=4_000_000,
                 diagnosis="misbehaving-peer|cwnd-limited|pacing-limited"
                           "|app-limited"),
        Scenario("adv-field-mangler",
                 "random typed-garbage mutation of one feedback field "
                 "per frame",
                 _no_faults, expect="abort",
                 adversary="field-mangler",
                 expect_abort=("misbehaving_peer",),
                 transfer_bytes=4_000_000,
                 diagnosis="misbehaving-peer"),
    ]
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        pass
    try:
        return ADVERSARY_SCENARIOS[name]
    except KeyError:
        known = sorted(SCENARIOS) + sorted(ADVERSARY_SCENARIOS)
        raise KeyError(
            f"unknown scenario {name!r}; have {known}") from None
