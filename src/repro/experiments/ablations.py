"""Design-choice ablations (DESIGN.md section 6).

Each function isolates one co-design decision of the TACK protocol and
measures what it buys:

* ``run_beta_l_sweep`` — Appendix B.3 robustness: beta in {2, 4, 8}
  x L in {1, 2, 4} on a WLAN path (goodput and ACK economy).
* ``run_pacing_ablation`` — S5.3: paced vs ack-clocked-burst sending
  under a shallow bottleneck buffer.
* ``run_governor_ablation`` — S5.1's once-per-RTT retransmission rule:
  spurious retransmissions with and without suppression.
* ``run_rtt_latency_ablation`` — the latency cost of fewer ACKs for
  short RPCs as L grows (why the paper keeps L = 2).
"""

from __future__ import annotations

from repro.app.bulk import BulkFlow
from repro.cc.pacing import Pacer
from repro.core.params import TackParams
from repro.experiments.table import Table
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path, wlan_path
from repro.stats.percentile import percentile


def run_beta_l_sweep(duration_s: float = 5.0, warmup_s: float = 1.5,
                     rtt_s: float = 0.08, seed: int = 5) -> Table:
    table = Table(
        "Ablation: TACK beta x L over 802.11n (paper Appendix B.3)",
        ["beta", "L", "goodput_mbps", "acks_per_s"],
        note="Default beta=4, L=2; beta=2 is the utilization floor.",
    )
    for beta in (2.0, 4.0, 8.0):
        for L in (1, 2, 4):
            sim = Simulator(seed=seed)
            path = wlan_path(sim, "802.11n", extra_rtt_s=rtt_s)
            flow = BulkFlow(
                sim, path, "tcp-tack",
                params=TackParams(beta=beta, ack_count_l=L),
                initial_rtt_s=rtt_s,
            )
            flow.start()
            sim.run(until=duration_s)
            table.add_row(
                beta=beta, L=L,
                goodput_mbps=flow.goodput_bps(start=warmup_s) / 1e6,
                acks_per_s=flow.ack_count() / duration_s,
            )
    return table


class _BurstPacer(Pacer):
    """A pacer that runs far ahead of whatever rate it is given."""

    __slots__ = ()

    def set_rate(self, rate_bps: float) -> None:
        super().set_rate(max(rate_bps * 50, 1e9))


def run_pacing_ablation(rate_bps: float = 20e6, rtt_s: float = 0.1,
                        duration_s: float = 15.0, warmup_s: float = 5.0,
                        seed: int = 9) -> Table:
    """Paced vs burst sending at a shallow (0.25 bdp) buffer.

    Burst mode is emulated by letting the pacer run far faster than
    the controller's rate: packets leave back-to-back whenever window
    space opens (one TACK can release a whole window, paper S4.3).
    """
    table = Table(
        "Ablation: pacing vs ack-clocked bursts (shallow buffer)",
        ["mode", "goodput_mbps", "retx", "queue_peak_kb"],
        note="Shallow 0.25-bdp bottleneck; paper S5.3: TACK must pace.",
    )
    bdp = int(rate_bps * rtt_s / 8)
    for mode in ("paced", "burst"):
        sim = Simulator(seed=seed)
        path = wired_path(sim, rate_bps, rtt_s, queue_bytes=bdp // 4)
        flow = BulkFlow(sim, path, "tcp-tack", initial_rtt_s=rtt_s)
        if mode == "burst":
            sender = flow.conn.sender  # defeat pacing
            sender.pacer = _BurstPacer(sender.pacer.rate_bps)
        flow.start()
        sim.run(until=duration_s)
        table.add_row(
            mode=mode,
            goodput_mbps=flow.goodput_bps(start=warmup_s) / 1e6,
            retx=flow.conn.sender.stats.retransmissions,
            queue_peak_kb=path.wan.forward.queue.peak_bytes // 1000,
        )
    return table


def run_governor_ablation(rate_bps: float = 20e6, rtt_s: float = 0.2,
                          data_loss: float = 0.01, ack_loss: float = 0.05,
                          duration_s: float = 15.0, seed: int = 7) -> Table:
    """Once-per-RTT retransmission suppression on/off.

    Without the governor every TACK re-reporting a hole triggers a
    retransmission, so the same segment is sent several times per
    recovery — visible as duplicate deliveries at the receiver.
    """
    table = Table(
        "Ablation: once-per-RTT retransmission governor",
        ["governor", "goodput_mbps", "retx", "duplicates"],
        note="Bidirectionally lossy 200 ms path; duplicates = spurious retx.",
    )
    for enabled in (True, False):
        sim = Simulator(seed=seed)
        path = wired_path(sim, rate_bps, rtt_s,
                          queue_bytes=int(rate_bps * rtt_s / 8),
                          data_loss=data_loss, ack_loss=ack_loss)
        flow = BulkFlow(sim, path, "tcp-tack", initial_rtt_s=rtt_s)
        if not enabled:
            flow.conn.sender.governor.may_retransmit = (
                lambda seq, now, window_s: True
            )
        flow.start()
        sim.run(until=duration_s)
        table.add_row(
            governor="on" if enabled else "off",
            goodput_mbps=flow.goodput_bps(start=duration_s / 3) / 1e6,
            retx=flow.conn.sender.stats.retransmissions,
            duplicates=flow.conn.receiver.stats.duplicate_packets,
        )
    return table


def run_rpc_latency_ablation(rtt_s: float = 0.04, duration_s: float = 10.0,
                             seed: int = 3) -> Table:
    """Sender-side RPC completion latency as L grows.

    Delivery latency at the receiver is ACK-independent; what large L
    delays is the *sender learning* the response completed — the
    latency an application blocked on the socket actually feels (paper
    B.3: keep L small for thin flows; offer L=1 a la TCP_QUICKACK).
    """
    from repro.core.flavors import make_connection

    response_bytes = 3000  # 2 segments: thinner than L for L >= 4
    table = Table(
        "Ablation: sender-side RPC completion latency vs TACK L",
        ["L", "p95_ack_latency_ms", "mean_ack_latency_ms", "acks"],
        note="3 kB responses every 100 ms over a 100 Mbps / 40 ms path; "
             "latency until the sender's cum-ACK covers the response. "
             "Responses thinner than L packets wait for the straggler "
             "flush, which is the latency cost of a large L.",
    )
    for L in (1, 2, 4, 8):
        sim = Simulator(seed=seed)
        path = wired_path(sim, 100e6, rtt_s)
        conn = make_connection(sim, "tcp-tack",
                               params=TackParams(ack_count_l=L),
                               initial_rtt_s=rtt_s)
        conn.wire(path.forward, path.reverse)
        conn.sender.start()
        latencies: list[float] = []
        pending: list[tuple[int, float]] = []
        issued = [0]

        original = conn.sender._on_feedback

        def on_feedback(fb, kind, _orig=original, _snd=conn.sender):
            _orig(fb, kind)
            while pending and pending[0][0] <= _snd.cum_acked:
                end, t0 = pending.pop(0)
                latencies.append(sim.now() - t0)

        conn.sender._on_feedback = on_feedback  # type: ignore[method-assign]

        def issue():
            issued[0] += response_bytes
            pending.append((issued[0], sim.now()))
            conn.sender.write(response_bytes)
            sim.call_in(0.1, issue)

        issue()
        sim.run(until=duration_s)
        table.add_row(
            L=L,
            p95_ack_latency_ms=percentile(latencies, 95) * 1e3,
            mean_ack_latency_ms=1e3 * sum(latencies) / len(latencies),
            acks=conn.ack_count(),
        )
    return table


if __name__ == "__main__":
    run_beta_l_sweep().show()
    run_pacing_ablation().show()
    run_governor_ablation().show()
    run_rpc_latency_ablation().show()
