"""One fleet shard: a busy access point serving a churning flow population.

A shard is the unit of parallelism in a fleet campaign: one simulator,
one AP bottleneck (downlink data link + uplink ACK link shared by every
flow through a demux), and a workload-driven population of connections
that arrive, transfer a heavy-tailed number of bytes, and leave.  A
shard runs in a worker process and returns a **bounded-size summary**
— counters plus mergeable digests (:mod:`repro.stats.streaming`) —
never a per-flow record list, so campaign memory stays flat at any
flow count.

Topology note: the paper's WLAN collision-domain model
(:mod:`repro.wlan`) simulates every DCF contention round and is
tractable for tens of stations, not thousands.  Fleet shards therefore
model the AP as an asymmetric wired bottleneck (fast downlink, slow
uplink that all ACK traffic shares — the crowded-uplink story of paper
Fig. 3) and account WLAN airtime analytically: each uplink ACK is
costed at one DCF exchange (DIFS + mean backoff + PPDU + SIFS + link
ACK) of the configured PHY profile.  DESIGN.md section 13 discusses
the substitution.

Flow lifecycle: arrivals are pulled lazily from
:mod:`repro.fleet.workload` (one pending arrival event at a time); a
periodic reaper retires finished or aborted connections, folds their
metrics into the digests, unregisters them from the demux, releases
them (``Connection.release``) and drops the last reference: a retired
flow is in no reference cycle, so refcounting frees it once its
cancelled timers surface.  Active-set size is capped (``max_active``);
arrivals beyond the cap wait in a deferral queue, modeling an AP's
admission backlog.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.flavors import make_connection
from repro.diagnose import ALL_STATES
from repro.diagnose.live import FlowDoctor
from repro.energy import EnergyLedger
from repro.fleet.workload import FlowSpec, WorkloadConfig, generate_flows
from repro.netsim.demux import FlowDemux, SharedPort
from repro.netsim.emulator import EmulatedPath, PathConfig
from repro.netsim.engine import Simulator
from repro.stats.streaming import BottomKReservoir, ExactSum, LogHistogram
from repro.wlan.phy import get_profile

#: LogHistogram bounds shared by every shard of a campaign.  These are
#: part of the digest *identity* (merges require equal configs), so
#: they are module constants rather than knobs.
FCT_HIST_BOUNDS = (1e-3, 1e4)          # 1 ms .. ~3 h
GOODPUT_HIST_BOUNDS = (1e2, 1e11)      # 100 bps .. 100 Gbps
HIST_BINS_PER_DECADE = 64
RESERVOIR_K = 128


@dataclass
class ShardSpec:
    """Everything a worker needs to simulate one shard, picklable."""

    shard_id: int
    scheme: str
    seed: int
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    # AP bottleneck: fast shared downlink, slow shared uplink (ACKs).
    rate_bps: float = 100e6
    uplink_rate_bps: float = 20e6
    rtt_s: float = 0.03
    queue_bytes: Optional[int] = None
    uplink_queue_bytes: Optional[int] = None
    # lifecycle
    drain_s: float = 10.0               # grace after the arrival window
    reap_interval_s: float = 0.25
    max_active: int = 2048
    rcv_buffer_bytes: int = 1024 * 1024
    phy: str = "802.11n"                # airtime/energy-ledger PHY profile
    power: str = "wavelan"              # radio power model (repro.energy)

    @property
    def name(self) -> str:
        return f"shard{self.shard_id:04d}-{self.scheme}"

    def to_dict(self) -> Dict[str, Any]:
        data = {f: getattr(self, f) for f in self.__dataclass_fields__}
        data["workload"] = self.workload.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardSpec":
        known = {k: v for k, v in data.items() if k in cls.__dataclass_fields__}
        known["workload"] = WorkloadConfig.from_dict(data.get("workload", {}))
        return cls(**known)


class _ShardRun:
    """Mutable state of one in-progress shard simulation."""

    def __init__(self, spec: ShardSpec, simsan: Optional[bool] = None):
        self.spec = spec
        # Per-flow energy/airtime ledger: attached before links and
        # endpoints so they cache sim.energy at construction.  Retired
        # flows fold into ExactSum partials, so the summary merges
        # bit-identically in any shard order.
        self.energy = EnergyLedger(phy=spec.phy, power=spec.power)
        # Flow doctor rides the same pattern: attached before endpoints
        # (they cache sim.probes at construction), retired flows
        # fold into ExactSum state-time partials at _retire so doctor
        # memory stays flat under churn.
        self.doctor = FlowDoctor()
        self.sim = Simulator(seed=spec.seed, simsan=simsan,
                             energy=self.energy, diagnosis=self.doctor)
        queue_bytes = (spec.queue_bytes if spec.queue_bytes is not None
                       else max(int(spec.rate_bps * spec.rtt_s / 8.0),
                                128 * 1024))
        uplink_queue = (spec.uplink_queue_bytes
                        if spec.uplink_queue_bytes is not None
                        else max(int(spec.uplink_rate_bps * spec.rtt_s / 8.0),
                                 64 * 1024))
        self.wan = EmulatedPath(
            self.sim,
            PathConfig(spec.rate_bps, spec.rtt_s, queue_bytes,
                       reverse_rate_bps=spec.uplink_rate_bps,
                       reverse_queue_bytes=uplink_queue),
            name=spec.name,
        )
        self.fwd_demux = FlowDemux()
        self.rev_demux = FlowDemux()
        self.wan.forward.connect(self.fwd_demux)
        self.wan.reverse.connect(self.rev_demux)

        self.flows = generate_flows(spec.workload,
                                    self.sim.fork_rng("fleet-workload"))
        # flow index -> (connection, start_s, size_bytes)
        self.active: Dict[int, tuple] = {}
        self.deferred: deque[FlowSpec] = deque()

        self.fct_hist = LogHistogram(*FCT_HIST_BOUNDS,
                                     bins_per_decade=HIST_BINS_PER_DECADE)
        self.goodput_hist = LogHistogram(*GOODPUT_HIST_BOUNDS,
                                         bins_per_decade=HIST_BINS_PER_DECADE)
        self.samples = BottomKReservoir(RESERVOIR_K, salt="fleet-flows")

        self.diag_flows = 0
        self.diag_state_time = {s: ExactSum() for s in ALL_STATES}
        self.diag_state_bytes = {s: 0 for s in ALL_STATES}
        self.diag_anomalies: Dict[str, int] = {}

        self.started = 0
        self.completed = 0
        self.aborted = 0
        self.guard_aborted = 0
        self.unfinished = 0
        self.offered_bytes = 0
        self.delivered_bytes = 0
        self.ack_packets = 0
        self.data_packets = 0
        self.retransmissions = 0
        self.peak_active = 0

    # ------------------------------------------------------------------
    def _admit(self, flow: FlowSpec) -> None:
        spec = self.spec
        conn = make_connection(
            self.sim, spec.scheme, flow_id=flow.index,
            rcv_buffer_bytes=spec.rcv_buffer_bytes,
            initial_rtt_s=spec.rtt_s)
        fwd = SharedPort(self.wan.forward, self.fwd_demux, flow.index)
        rev = SharedPort(self.wan.reverse, self.rev_demux, flow.index)
        conn.wire(fwd, rev)
        conn.start_transfer(flow.size_bytes)
        self.active[flow.index] = (conn, self.sim.now(), flow.size_bytes)
        self.started += 1
        self.offered_bytes += flow.size_bytes
        if len(self.active) > self.peak_active:
            self.peak_active = len(self.active)

    def _on_arrival(self, flow: FlowSpec) -> None:
        if len(self.active) >= self.spec.max_active:
            self.deferred.append(flow)
        else:
            self._admit(flow)
        self._schedule_next_arrival()

    def _schedule_next_arrival(self) -> None:
        flow = next(self.flows, None)
        if flow is not None:
            self.sim.call_at(flow.start_s, lambda f=flow: self._on_arrival(f))

    # ------------------------------------------------------------------
    def _retire(self, index: int, status: str) -> None:
        conn, start_s, size_bytes = self.active.pop(index)
        self.delivered_bytes += conn.receiver.stats.bytes_delivered
        self.ack_packets += conn.receiver.stats.total_feedback()
        self.data_packets += conn.sender.stats.data_packets_sent
        self.retransmissions += conn.sender.stats.retransmissions
        if status == "completed":
            self.completed += 1
            fct_s = conn.sender.completed_at - start_s
            if fct_s > 0:
                self.fct_hist.add(fct_s)
                self.goodput_hist.add(size_bytes * 8.0 / fct_s)
            self.samples.add(
                f"shard{self.spec.shard_id}/flow{index}",
                {"flow": index, "size_bytes": size_bytes,
                 "fct_s": round(fct_s, 9)})
        elif status == "aborted":
            self.aborted += 1
            if (conn.aborted is not None
                    and conn.aborted.reason == "misbehaving_peer"):
                self.guard_aborted += 1
        else:
            self.unfinished += 1
        conn.close()
        self.fwd_demux.unregister(index)
        self.rev_demux.unregister(index)
        conn.release()
        # Fold the flow's diagnosis and drop the per-flow record.  The
        # transport/close event just emitted by conn.close() finalized
        # it inside the engine; states fold in the fixed ALL_STATES
        # order so the partials layout is shard-deterministic.
        diag = self.doctor.pop_flow(index)
        if diag is not None:
            self.diag_flows += 1
            for state in ALL_STATES:
                secs = diag["state_time_s"].get(state)
                if secs:
                    self.diag_state_time[state].add(secs)
                self.diag_state_bytes[state] += \
                    diag["state_bytes"].get(state, 0)
            for anomaly in diag["anomalies"]:
                kind = anomaly["kind"]
                self.diag_anomalies[kind] = (
                    self.diag_anomalies.get(kind, 0)
                    + anomaly.get("count", 1))
        # Retire the flow's energy account too: ledger memory stays
        # flat no matter how many flows churn through the shard.  (A
        # packet still in flight after retirement re-opens a stub
        # record; summary() folds those in, so totals stay exact.)
        self.energy.pop_flow(index)

    def _reap(self, final: bool = False) -> None:
        for index in list(self.active):
            conn = self.active[index][0]
            if conn.completed:
                self._retire(index, "completed")
            elif conn.aborted is not None:
                self._retire(index, "aborted")
            elif final:
                self._retire(index, "unfinished")
        while self.deferred and len(self.active) < self.spec.max_active:
            self._admit(self.deferred.popleft())

    def _reaper_tick(self) -> None:
        self._reap()
        end_s = self.spec.workload.duration_s + self.spec.drain_s
        if self.active or self.deferred or self.sim.now() < self.spec.workload.duration_s:
            if self.sim.now() + self.spec.reap_interval_s <= end_s:
                self.sim.call_in(self.spec.reap_interval_s, self._reaper_tick)

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        spec = self.spec
        self._schedule_next_arrival()
        self.sim.call_in(spec.reap_interval_s, self._reaper_tick)
        end_s = spec.workload.duration_s + spec.drain_s
        self.sim.run(until=end_s)
        self._reap(final=True)
        elapsed_s = self.sim.now()

        # WLAN airtime/energy: the per-packet ledger costs every
        # transmission at one DCF exchange (DIFS + mean backoff + PPDU
        # + SIFS + link ACK) of the configured PHY — the paper's
        # Fig. 3 accounting, now exact per packet size instead of the
        # old mean-ACK-size analytic estimate.
        phy = get_profile(spec.phy)
        rev = self.wan.reverse
        en = self.energy.summary()
        ack_airtime_s = en["ack_airtime_s"]
        per_ack_airtime_s = (
            ack_airtime_s / en["ack_pkts"] if en["ack_pkts"]
            else phy.dcf_exchange_s(phy.mpdu_bytes(64)))

        return {
            "shard_id": spec.shard_id,
            "scheme": spec.scheme,
            "seed": spec.seed,
            "elapsed_s": elapsed_s,
            "duration_s": spec.workload.duration_s,
            "flows": {
                "started": self.started,
                "completed": self.completed,
                "aborted": self.aborted,
                "guard_aborted": self.guard_aborted,
                "unfinished": self.unfinished,
                "deferred_peak": len(self.deferred),
                "peak_active": self.peak_active,
            },
            "bytes": {
                "offered": self.offered_bytes,
                "delivered": self.delivered_bytes,
            },
            "packets": {
                "data": self.data_packets,
                "retransmissions": self.retransmissions,
                "acks": self.ack_packets,
            },
            "links": {
                "down_delivered_bytes": self.wan.forward.bytes_delivered,
                "down_drops": self.wan.forward.packets_lost,
                "up_delivered_bytes": rev.bytes_delivered,
                "up_delivered_packets": rev.packets_delivered,
                "up_drops": rev.packets_lost,
            },
            "airtime": {
                "ack_airtime_s": ack_airtime_s,
                "per_ack_airtime_s": per_ack_airtime_s,
                "uplink_serialization_s":
                    rev.bytes_delivered * 8.0 / spec.uplink_rate_bps,
            },
            "energy": {
                "phy": en["phy"],
                "power": en["power"],
                "data_energy_j": en["data_energy_j"],
                "ack_energy_j": en["ack_energy_j"],
                "idle_energy_j": en["idle_energy_j"],
                "total_energy_j": en["total_energy_j"],
                "ack_energy_share": en["ack_energy_share"],
                "ack_airtime_share": en["ack_airtime_share"],
                "data_airtime_s": en["data_airtime_s"],
                "ack_airtime_s": en["ack_airtime_s"],
                "data_pkts": en["data_pkts"],
                "ack_pkts": en["ack_pkts"],
                "feedback_bytes": en["feedback_bytes"],
                "partials": en["partials"],
            },
            "digests": {
                "fct_s": self.fct_hist.to_dict(),
                "flow_goodput_bps": self.goodput_hist.to_dict(),
                "samples": self.samples.to_dict(),
            },
            "diagnosis": {
                "flows": self.diag_flows,
                "state_time_partials": {
                    s: list(self.diag_state_time[s]._partials)
                    for s in ALL_STATES},
                "state_bytes": dict(self.diag_state_bytes),
                "anomalies": {k: self.diag_anomalies[k]
                              for k in sorted(self.diag_anomalies)},
            },
            "engine": {
                "events_fired": self.sim.events_fired,
            },
        }


def run_shard(spec: Dict[str, Any],
              simsan: Optional[bool] = None) -> Dict[str, Any]:
    """Worker entry point: simulate one shard, return its summary dict.

    ``spec`` is a :meth:`ShardSpec.to_dict` payload (plain JSON types
    so it pickles cheaply into the pool and hashes stably for resume
    fingerprints).
    """
    return _ShardRun(ShardSpec.from_dict(spec), simsan=simsan).run()
