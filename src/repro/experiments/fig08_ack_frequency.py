"""Fig. 8: ACK frequency reduction over the 802.11 standards.

(a) analytic delta-f = f_tcp - f_tack per standard and RTT;
(b) absolute frequencies, validated against the *measured* TACK rate
    of a simulated bulk flow.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.analysis.ack_frequency import byte_counting_frequency, tack_frequency
from repro.app.bulk import BulkFlow
from repro.diagnose.live import FlowDoctor
from repro.experiments.table import Table
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path, wlan_path
from repro.telemetry import JsonlSink, TraceCollector
from repro.wlan.phy import PHY_PROFILES

# Effective transport-level bandwidths (paper Fig. 7 UDP baselines).
EFFECTIVE_BW = {
    "802.11b": 7e6,
    "802.11g": 26e6,
    "802.11n": 210e6,
    "802.11ac": 590e6,
}


def run_analytic(rtts=(0.01, 0.08, 0.2)) -> Table:
    table = Table(
        "Fig. 8(a): ACK frequency reduction delta-f = f_tcp - f_tack (Hz)",
        ["link", "f_tcp_L2"] + [f"delta_f@{int(r*1e3)}ms" for r in rtts],
    )
    for name, bw in EFFECTIVE_BW.items():
        row = {"link": name, "f_tcp_L2": byte_counting_frequency(bw, 2)}
        for rtt in rtts:
            row[f"delta_f@{int(rtt*1e3)}ms"] = (
                byte_counting_frequency(bw, 2) - tack_frequency(bw, rtt)
            )
        table.add_row(**row)
    return table


def run_measured(rtt_s: float = 0.08, duration_s: float = 5.0,
                 warmup_s: float = 1.0, seed: int = 5) -> Table:
    table = Table(
        "Fig. 8(b) validation: analytic vs measured TACK frequency (Hz)",
        ["link", "analytic_hz", "measured_hz"],
        note=f"Bulk TCP-TACK flow, RTT {rtt_s*1e3:.0f} ms.",
    )
    for name in PHY_PROFILES:
        sim = Simulator(seed=seed)
        path = wlan_path(sim, name, extra_rtt_s=rtt_s)
        flow = BulkFlow(sim, path, "tcp-tack", initial_rtt_s=rtt_s)
        flow.start()
        sim.run(until=warmup_s)
        tacks_at_warmup = flow.conn.receiver.stats.tacks_sent
        sim.run(until=duration_s)
        measured = (
            (flow.conn.receiver.stats.tacks_sent - tacks_at_warmup)
            / (duration_s - warmup_s)
        )
        table.add_row(
            link=name,
            analytic_hz=tack_frequency(EFFECTIVE_BW[name], rtt_s),
            measured_hz=measured,
        )
    return table


def run_traced(trace_path: Optional[str] = None, rate_bps: float = 20e6,
               rtt_s: float = 0.04, duration_s: float = 6.0,
               warmup_s: float = 2.0, seed: int = 7) -> Table:
    """Fig. 8-style single-link run with full telemetry capture.

    A bulk TCP-TACK flow over a wired bottleneck, traced end to end:
    the trace written to *trace_path* carries every ``ack`` event with
    its emission reason, so the Eq. (3) frequency can be re-derived
    offline from the trace alone (``python -m repro.telemetry
    summarize``).  Returns the same analytic-vs-measured table as
    :func:`run_measured` for the one link.

    A live flow doctor rides along: when a trace is written, the
    diagnosis report lands next to it at ``<trace_path>.diagnosis.json``
    with the same digest ``python -m repro.diagnose report <trace>``
    computes offline from the trace.
    """
    meta = {
        "experiment": "fig08_traced", "rate_bps": rate_bps,
        "rtt_s": rtt_s, "duration_s": duration_s,
        "warmup_s": warmup_s, "seed": seed,
    }
    sink = JsonlSink(trace_path, meta=meta) if trace_path is not None else None
    collector = TraceCollector(sink=sink)
    doctor = FlowDoctor()
    sim = Simulator(seed=seed, telemetry=collector, diagnosis=doctor)
    path = wired_path(sim, rate_bps, rtt_s)
    flow = BulkFlow(sim, path, "tcp-tack", initial_rtt_s=rtt_s)
    flow.start()
    sim.run(until=warmup_s)
    tacks_at_warmup = flow.conn.receiver.stats.tacks_sent
    sim.run(until=duration_s)
    measured = ((flow.conn.receiver.stats.tacks_sent - tacks_at_warmup)
                / (duration_s - warmup_s))
    collector.close()
    doctor.finalize()
    if trace_path is not None:
        with open(f"{trace_path}.diagnosis.json", "w") as fh:
            json.dump(doctor.report(), fh, indent=2, sort_keys=True)
    table = Table(
        "Fig. 8 traced validation: analytic vs measured TACK frequency (Hz)",
        ["link", "analytic_hz", "measured_hz"],
        note=f"Bulk TCP-TACK flow, {rate_bps/1e6:.0f} Mbps wired "
             f"bottleneck, RTT {rtt_s*1e3:.0f} ms, telemetry on.",
    )
    table.add_row(
        link=f"wired-{rate_bps/1e6:.0f}M",
        analytic_hz=tack_frequency(rate_bps, rtt_s),
        measured_hz=measured,
    )
    return table


def run(rtt_s: float = 0.08, duration_s: float = 5.0, seed: int = 5) -> Table:
    # The harness treats the analytic table as the headline; the
    # measured table is produced alongside by the benchmark wrapper.
    return run_analytic()


if __name__ == "__main__":
    run_analytic().show()
    run_measured().show()
