"""The four benchmark workloads.

Each workload turns a seed into plain inputs (``build``), constructs
what it can before the first ``Simulator.run`` (``prepare``) and runs
one round (``execute``).  A round returns a :class:`Round`: the exact,
simulated counts the program's public results expose (they repeat for
a fixed seed, on any host), how many operations were attempted and
failed, the delivered bytes and simulated seconds goodput is made of,
and the host time of each slice of the round (``timing.Slices``).
Workloads reach the program only through its public entry points
and take the simulator class and ``make_connection`` from *env*
(:class:`tracing.Untraced` for timed rounds, :class:`tracing.Tracer`
for the traced pass), so both passes run the same code.

Sizes are chosen so one round is 2-4 s of host time on a 2-core box:
the driver's cap leaves about 20 s of timed rounds per run, and the
median of a slice needs at least five rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import repro.chaos.runner
import repro.fleet.shard
from repro.chaos import (ADVERSARY_SCENARIOS, DEFAULT_SCHEMES, SCENARIOS,
                         run_scenario)
from repro.fleet.shard import ShardSpec, run_shard
from repro.fleet.workload import WorkloadConfig
from repro.netsim.loss import PatternLoss
from repro.netsim.packet import MSS
from repro.netsim.paths import wired_path, wlan_path
from timing import Slices


@dataclass
class Round:
    """Outcome of one round of one workload."""

    counts: dict                 # exact simulated counts, by metric name
    attempted: int
    failed: int
    delivered_bytes: int
    sim_seconds: float
    slices: Slices               # host time of each slice, in order
    notes: list                  # why operations failed

    @property
    def data_pkts(self) -> int:
        return self.counts["transport.sender.data_pkts"]


BULK_SLICES = 50


def _bulk_round(sim, conn, until_s: float, goodput_envelope_bps):
    """Run one bulk flow, one slice of simulated time after another,
    and judge it as a single operation."""
    conn.start_bulk()
    slices = Slices()
    for k in range(BULK_SLICES):
        slices.run(sim.run, until=until_s * (k + 1) / BULK_SLICES)
    delivered = conn.receiver.stats.bytes_delivered
    goodput_bps = delivered * 8.0 / until_s
    low_bps, high_bps = goodput_envelope_bps
    notes = []
    if conn.aborted is not None:
        notes.append(f"aborted: {conn.aborted.reason}")
    if not low_bps <= goodput_bps <= high_bps:
        notes.append(f"goodput {goodput_bps:.0f} bps outside "
                     f"[{low_bps:.0f}, {high_bps:.0f}]")
    counts = {
        "netsim.engine.events": sim.events_fired,
        "transport.sender.data_pkts": conn.sender.stats.data_packets_sent,
        "transport.sender.retx": conn.sender.stats.retransmissions,
        "transport.sender.feedbacks": conn.sender.stats.feedback_received,
        "transport.receiver.segments": conn.receiver.stats.data_packets,
        "ack.feedbacks": conn.receiver.stats.total_feedback(),
        "delivered_bytes": delivered,
    }
    return Round(counts, 1, int(bool(notes)), delivered, until_s, slices,
                 notes)


class TackWlanBulk:
    """One ``tcp-tack`` bulk flow over an 802.11n hop with 80 ms of
    extra RTT: the paper's headline case.  DCF rounds and A-MPDUs, the
    event queue and the per-packet receiver path do the work; the sender
    sees one feedback per ~80 data packets.  The seed drives the
    simulator's backoff draws."""

    name = "tack_wlan_bulk"
    until_s = 5.0
    extra_rtt_s = 0.08

    def build(self, seed: int, scale: float) -> dict:
        return {"seed": seed, "until_s": self.until_s * scale}

    def prepare(self, inputs: dict, env):
        sim = env.Simulator(seed=inputs["seed"])
        path = wlan_path(sim, "802.11n", extra_rtt_s=self.extra_rtt_s)
        conn = env.make_connection(sim, "tcp-tack",
                                   initial_rtt_s=self.extra_rtt_s)
        conn.wire(path.forward, path.reverse)
        return sim, path, conn, inputs["until_s"]

    def execute(self, state, env) -> Round:
        sim, path, conn, until_s = state
        ap, sta = path.stations
        result = _bulk_round(sim, conn, until_s, (10e6, 300e6))
        txops = path.medium.transmissions
        tacks_hz = conn.receiver.stats.tacks_sent / until_s
        # Eq. 3 at the rate and RTT_min this flow actually saw.
        eq3_hz = conn.receiver.policy.params.tack_frequency(
            result.delivered_bytes * 8.0 / until_s,
            conn.sender.current_rtt_min())
        result.counts.update({
            "wlan.txops": txops,
            "wlan.collisions": path.medium.collisions,
            "wlan.mpdus_per_txop":
                (ap.frames_sent + sta.frames_sent) / txops if txops else 0.0,
            "ack.tack_hz_err_pct": 100.0 * abs(tacks_hz - eq3_hz) / eq3_hz,
        })
        return result


class BbrWiredBulk:
    """One ``tcp-bbr`` bulk flow (delayed ACK + SACK + RACK) over a
    50 Mbps / 40 ms wired path: the legacy per-ACK sender path.  The
    seed jitters rate and RTT by 1 % and places one forward-path drop
    in every block of ``drop_every`` packets, so every seed sees the
    same number of recovery episodes at different places.  (With the
    default one-BDP queue and no injected loss the same flow is chaotic:
    a 1 % change of rate moves retransmissions between 1 282 and
    10 533.)"""

    name = "bbr_wired_bulk"
    until_s = 6.0
    rate_bps = 50e6
    rtt_s = 0.04
    drop_every = 250

    def build(self, seed: int, scale: float) -> dict:
        rng = random.Random(seed)
        until_s = self.until_s * scale
        rate_bps = self.rate_bps * rng.uniform(0.99, 1.01)
        blocks = int(rate_bps * until_s / (8 * MSS * self.drop_every)) + 1
        return {
            "seed": seed,
            "until_s": until_s,
            "rate_bps": rate_bps,
            "rtt_s": self.rtt_s * rng.uniform(0.99, 1.01),
            "drops": [block * self.drop_every + rng.randrange(self.drop_every)
                      for block in range(blocks)],
        }

    def prepare(self, inputs: dict, env):
        sim = env.Simulator(seed=inputs["seed"])
        rate_bps, rtt_s = inputs["rate_bps"], inputs["rtt_s"]
        path = wired_path(sim, rate_bps, rtt_s,
                          queue_bytes=int(2 * rate_bps * rtt_s / 8),
                          forward_loss=PatternLoss(inputs["drops"]))
        conn = env.make_connection(sim, "tcp-bbr", initial_rtt_s=rtt_s)
        conn.wire(path.forward, path.reverse)
        return sim, conn, inputs

    def execute(self, state, env) -> Round:
        sim, conn, inputs = state
        rate_bps = inputs["rate_bps"]
        return _bulk_round(sim, conn, inputs["until_s"],
                           (0.1 * rate_bps, rate_bps))


class FleetChurn:
    """Eight fleet shards back to back, ``tcp-tack`` and ``tcp-bbr`` in
    turn: hundreds of short heavy-tailed flows arriving, transferring
    and being retired, with the ``diagnose`` and ``energy`` planes
    attached as ``fleet.shard`` always does.  Connection set-up and
    tear-down, demux, reaper and digests show here and nowhere else.
    The seed drives every shard's arrivals and sizes."""

    name = "fleet_churn"
    schemes = ("tcp-tack", "tcp-bbr") * 4
    workload = WorkloadConfig(mean_arrival_hz=60.0, duration_s=1.5,
                              size_median_bytes=40_000, size_sigma=1.0,
                              max_bytes=2_000_000)

    def build(self, seed: int, scale: float) -> list:
        config = WorkloadConfig.from_dict({
            **self.workload.to_dict(),
            "duration_s": self.workload.duration_s * scale})
        return [ShardSpec(shard_id=i, scheme=scheme,
                          seed=seed * len(self.schemes) + i,
                          workload=config).to_dict()
                for i, scheme in enumerate(self.schemes)]

    def prepare(self, inputs: list, env):
        return inputs

    def execute(self, state, env) -> Round:
        slices = Slices()
        with env.patched(repro.fleet.shard):
            shards = [slices.run(env.span("fleet", run_shard), spec)
                      for spec in state]
        flows = [shard["flows"] for shard in shards]
        started = sum(f["started"] for f in flows)
        failed = sum(f["aborted"] + f["unfinished"] for f in flows)
        delivered = sum(shard["bytes"]["delivered"] for shard in shards)
        counts = {
            "netsim.engine.events":
                sum(shard["engine"]["events_fired"] for shard in shards),
            "transport.sender.data_pkts":
                sum(shard["packets"]["data"] for shard in shards),
            "transport.sender.retx":
                sum(shard["packets"]["retransmissions"] for shard in shards),
            "ack.feedbacks": sum(shard["packets"]["acks"] for shard in shards),
            "delivered_bytes": delivered,
            "fleet.flows_started": started,
            "fleet.peak_active": max(f["peak_active"] for f in flows),
        }
        notes = [f"{failed} of {started} flows aborted or unfinished"] \
            if failed else []
        return Round(counts, started, failed, delivered,
                     sum(shard["elapsed_s"] for shard in shards), slices,
                     notes)


class ChaosMatrix:
    """Every chaos scenario and every adversary scenario under the TACK
    scheme and the legacy BBR scheme: short transfers through blackouts,
    burst loss, reordering and hostile feedback.  The same transport
    layers as the bulk workloads, used differently: retransmission, RTO,
    pulls, interval sets full of holes, guard validation, structured
    aborts, flow doctor attached.  The seed drives every loss and jitter
    draw.  (All four ``DEFAULT_SCHEMES`` would take 4 s a round, too few
    rounds in a run for a steady floor.)"""

    name = "chaos_matrix"
    schemes = DEFAULT_SCHEMES[::2]      # tcp-tack, tcp-bbr
    # Stalls under tcp-tack at seed 6 (one run in 4 352 tried while
    # sizing); left out so that no operation of the workload fails.
    excluded = ("adv-field-mangler",)

    def build(self, seed: int, scale: float) -> list:
        scenarios = [s for s in (*SCENARIOS.values(),
                                 *ADVERSARY_SCENARIOS.values())
                     if s.name not in self.excluded]
        cases = [(scenario, scheme, seed)
                 for scenario in scenarios for scheme in self.schemes]
        # A scaled-down matrix keeps every n-th case, not the first few:
        # the leading scenarios draw no random numbers at all.
        return cases[::max(1, round(0.5 / scale))]

    def prepare(self, inputs: list, env):
        return inputs

    def execute(self, state, env) -> Round:
        notes = []

        def case(scenario, scheme, seed):
            try:
                return env.span("chaos", run_scenario)(
                    scenario, scheme, seed=seed)
            except Exception as exc:    # a crash is a failed run
                notes.append(f"{scenario.name}/{scheme}: {exc!r}")
                return None

        slices = Slices()
        with env.patched(repro.chaos.runner):
            outcomes = [slices.run(case, *args) for args in state]
        results = [r for r in outcomes if r is not None]
        notes += [f"{r.scenario}/{r.scheme}: {r.outcome}, expected {r.expect}"
                  for r in results if not r.ok]
        delivered = sum(r.bytes_delivered for r in results)
        counts = {
            "netsim.engine.events": sum(r.events_fired for r in results),
            "transport.sender.data_pkts":
                sum(r.summary["data_packets_sent"] for r in results),
            "transport.sender.retx":
                sum(r.summary["retransmissions"] for r in results),
            "transport.sender.rtos": sum(r.summary["rtos"] for r in results),
            "ack.feedbacks": sum(r.summary["acks_total"] for r in results),
            "delivered_bytes": delivered,
            "chaos.runs": len(state),
            "chaos.verdict_match_share":
                sum(r.diagnosis_ok() for r in results) / len(state),
        }
        return Round(counts, len(state), len(notes), delivered,
                     sum(r.sim_time_s for r in results), slices, notes)


WORKLOADS = {w.name: w for w in
             (TackWlanBulk(), BbrWiredBulk(), FleetChurn(), ChaosMatrix())}
