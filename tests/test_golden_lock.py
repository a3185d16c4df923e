"""Golden locks (ROADMAP item 5a, scoped): values recorded at the
commit *before* a refactor that the refactor must reproduce exactly.

Probe bus
---------

``tests/golden/probe_bus.json`` was recorded at the commit *before* the
flow doctor became a subscriber of the telemetry event stream.  Every
value in it is a pure function of a seed, so a refactor of how events
reach the planes must reproduce each one exactly:

* chaos: ``diagnosis_digest`` / ``events_fired`` / ``bytes_delivered``
  of ``run_scenario`` for four scenarios x {tcp-tack, tcp-bbr}, seed 1;
* fleet: ``aggregate_digest`` of a 2-shard tack+bbr mini-campaign;
* trace: sha256 of a full-fidelity ``fig08.run_traced`` JSONL trace and
  the digest of its live diagnosis report (which the offline replay of
  that trace must equal);
* planes: attaching any subset of telemetry / diagnosis / energy /
  simsan / profiler leaves ``events_fired`` and delivered bytes
  untouched.

Legacy scoreboard
-----------------
``tests/golden/legacy_scoreboard.json`` was recorded at the commit
*before* the sender's SACK/RACK scoreboard became incremental: the
per-ACK baselines on their recovery paths.

* chaos: four loss/reordering scenarios x {tcp-bbr, tcp-cubic,
  tcp-bbr-perpacket}, seed 1, each with ``diagnosis_digest`` /
  ``events_fired`` / ``bytes_delivered`` and the sender's
  retransmission, fast-retransmit and RTO counts;
* bulk: one ``tcp-bbr`` flow over a wired path with one forward drop
  every 250 packets, long enough (> 8 192 segments) to cross the
  compaction of the sender's send-order index, with a sha256 over
  every DATA emission (``seq``, ``pkt_seq``, departure time) — the
  retransmission order itself, not only its count.

Transmit path
-------------
``tests/golden/transmit_path.json`` was recorded at the commit *before*
the per-packet transmit -> pipe -> receive path was flattened: the
paced TACK sender, one emission per send-timer event.

* wlan: 1 s of a ``tcp-tack`` bulk flow over an 802.11n hop with 80 ms
  of extra RTT (the AP's ingress delay and an uplink delay pipe,
  A-MPDUs, one feedback per ~80 packets);
* finite: a ``tcp-tack`` transfer whose last segment is partial, over a
  wired path that drops data and feedback (pulls, RTO-free recovery,
  the rho' sync, completion);

each pinned by a sha256 over every DATA emission at the forward port
(``seq``, ``pkt_seq``, departure time and the ``rtt_min`` /
``ack_loss_rate`` the packet carries), a sha256 over every arrival at
the receiver's sink (arrival time, ``seq``, ``pkt_seq``),
``events_fired``, ``sim.pending()`` at the end, and every sender and
receiver counter.  The wlan cell's ``events_fired`` and ``pending``
were re-recorded (32 386 -> 17 916 and 729 -> 7) when the AP's
ingress delay replaced the forward delay pipe and a clean TXOP stopped
pushing a second, idle contention round; every other value is the
original.

Feedback path
-------------
``tests/golden/feedback_path.json`` was recorded at the commit *before*
the legacy per-ACK feedback path (guard -> sender -> controller -> RTO
re-arm) was flattened and the RTO became a moved event instead of a
cancelled and re-pushed one.

* one ``tcp-bbr`` and one ``tcp-cubic`` bulk flow over the wired path
  of the legacy-scoreboard bulk case (a forward drop every 250
  packets), with every 97th feedback dropped on the reverse path and
  all of it for 300 ms (a spurious, backed-off RTO and the go-back-N
  marking behind it);

each pinned by a sha256 over every processed feedback (arrival time,
``cum_acked``, ``in_flight``, ``cc.cwnd_bytes()``,
``cc.pacing_rate_bps()`` and the armed RTO's deadline, or ``None``),
``events_fired``, ``sim.pending()`` at the end and every sender counter.

Recovery path
-------------
``tests/golden/recovery_path.json`` was recorded at the commit *before*
the RACK sweep became deadline-ordered and the receiver started reusing
its unacked list for an unchanged reassembly buffer.

* feedback: ``adv-ack-withholder``, ``blackout`` and ``jitter-reorder``
  x ``tcp-tack``, seed 1, each pinned by a sha256 over every feedback
  the receiver emits (``cum_ack``, SACK blocks, unacked blocks, pull
  range) and their count;
* retransmissions: ``burst-loss``, ``kitchen-sink`` and ``dup-corrupt``
  x ``tcp-bbr``, seed 1, each pinned by a sha256 over every
  retransmission the sender emits (``seq``, ``pkt_seq``, departure
  time) and their count.

Regenerate (only for an *intended* behaviour change, with the diff
shown in the PR); ``--regen`` takes an optional golden name and
rewrites only that file::

    PYTHONPATH=src python tests/test_golden_lock.py --regen [probe_bus|legacy_scoreboard|transmit_path|feedback_path|recovery_path]
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile
from unittest import mock

import pytest

import repro.chaos.runner
from repro.chaos import get_scenario, run_scenario
from repro.core.flavors import make_connection
from repro.diagnose import FlowDoctor, diagnose_trace
from repro.energy import EnergyLedger
from repro.experiments.fig08_ack_frequency import run_traced
from repro.fleet import FleetConfig, WorkloadConfig, campaign_report, run_fleet
from repro.netsim.engine import Simulator
from repro.netsim.loss import BurstLoss, LossModel, PatternLoss
from repro.netsim.packet import PacketType
from repro.netsim.paths import wired_path, wlan_path
from repro.profile import Profiler
from repro.telemetry import TraceCollector, trace_digest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

CHAOS_SCENARIOS = ("blackout", "ack-path-loss", "route-change",
                   "adv-optimistic-acker")
CHAOS_SCHEMES = ("tcp-tack", "tcp-bbr")
PLANES = ("telemetry", "diagnosis", "energy", "simsan", "profiler")

LEGACY_SCENARIOS = ("burst-loss", "jitter-reorder", "dup-corrupt",
                    "kitchen-sink")
LEGACY_SCHEMES = ("tcp-bbr", "tcp-cubic", "tcp-bbr-perpacket")
BULK_DROP_EVERY = 250
BULK_UNTIL_S = 4.0

FEEDBACK_SCHEMES = ("tcp-bbr", "tcp-cubic")
FEEDBACK_DROP_EVERY = 97
FEEDBACK_BLACKOUT = (2.0, 0.3)       # start, duration (s)

RECOVERY_FEEDBACK_CELLS = tuple((scenario, "tcp-tack") for scenario in (
    "adv-ack-withholder", "blackout", "jitter-reorder"))
RECOVERY_RETX_CELLS = tuple((scenario, "tcp-bbr") for scenario in (
    "burst-loss", "kitchen-sink", "dup-corrupt"))


def chaos_cell(scenario: str, scheme: str) -> dict:
    result = run_scenario(get_scenario(scenario), scheme, seed=1)
    return {"diagnosis_digest": result.diagnosis["digest"],
            "events_fired": result.events_fired,
            "bytes_delivered": result.bytes_delivered}


def fleet_digest(tmp_dir: str) -> str:
    config = FleetConfig(
        schemes=CHAOS_SCHEMES, shards_per_scheme=1, seed=21, drain_s=5.0,
        workload=WorkloadConfig(arrival="poisson", mean_arrival_hz=3.0,
                                duration_s=4.0, size_median_bytes=20_000,
                                size_sigma=0.8, max_bytes=200_000))
    manifest = os.path.join(tmp_dir, "fleet.jsonl")
    outcome = run_fleet(config, manifest)
    assert outcome.complete, outcome.failed
    return campaign_report(manifest)["aggregate_digest"]


def traced_run(tmp_dir: str) -> dict:
    path = os.path.join(tmp_dir, "fig08.jsonl")
    run_traced(path, duration_s=2.0, warmup_s=0.5)
    with open(f"{path}.diagnosis.json") as fh:
        live = json.load(fh)
    return {"jsonl_sha256": trace_digest(path),
            "live_digest": live["digest"],
            "offline_digest": diagnose_trace(path)["digest"]}


def plane_run(attached: tuple) -> tuple:
    """(events_fired, bytes_delivered) of one short tcp-tack flow with
    exactly the planes named in *attached* in place."""
    sim = Simulator(
        seed=5, simsan="simsan" in attached,
        telemetry=TraceCollector() if "telemetry" in attached else None,
        diagnosis=FlowDoctor() if "diagnosis" in attached else None,
        energy=EnergyLedger() if "energy" in attached else None,
        profiler=Profiler() if "profiler" in attached else None)
    path = wired_path(sim, rate_bps=20e6, rtt_s=0.04, data_loss=0.01)
    conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.04)
    conn.wire(path.forward, path.reverse)
    conn.start_transfer(400_000)
    sim.run(until=10.0)
    conn.close()
    return sim.events_fired, conn.receiver.stats.bytes_delivered


def legacy_cell(scenario: str, scheme: str) -> dict:
    """``chaos_cell`` plus the sender's loss-recovery counters (the
    runner does not hand the connection out, so it is captured on the
    way through ``make_connection``)."""
    made = []

    def capture(*args, **kwargs):
        made.append(make_connection(*args, **kwargs))
        return made[-1]

    with mock.patch.object(repro.chaos.runner, "make_connection", capture):
        cell = chaos_cell(scenario, scheme)
    stats = made[0].sender.stats
    return {**cell,
            "retransmissions": stats.retransmissions,
            "fast_retransmits": stats.fast_retransmits,
            "rtos": stats.rtos}


class _EmissionLog:
    """Forward-port proxy hashing every DATA packet the sender emits,
    with the *meta_keys* annotations it carries."""

    def __init__(self, port, meta_keys=()):
        self._port = port
        self._meta_keys = meta_keys
        self.sha = hashlib.sha256()

    def send(self, packet):
        if packet.kind is PacketType.DATA:
            carried = "".join(f",{packet.meta.get(key)!r}"
                              for key in self._meta_keys)
            self.sha.update(f"{packet.seq},{packet.pkt_seq},"
                            f"{packet.sent_at!r}{carried}\n".encode())
        return self._port.send(packet)


def bulk_flow(scheme: str, reverse_loss=None):
    """``(sim, path, conn)``: one wired-up legacy bulk flow with a
    forward drop every 250 packets, not yet started."""
    sim = Simulator(seed=1)
    rate_bps, rtt_s = 50e6, 0.04
    drops = range(BULK_DROP_EVERY // 2, 40_000, BULK_DROP_EVERY)
    path = wired_path(sim, rate_bps, rtt_s,
                      queue_bytes=int(2 * rate_bps * rtt_s / 8),
                      forward_loss=PatternLoss(drops),
                      reverse_loss=reverse_loss)
    conn = make_connection(sim, scheme, initial_rtt_s=rtt_s)
    conn.wire(path.forward, path.reverse)
    return sim, path, conn


def legacy_bulk() -> dict:
    """One tcp-bbr bulk flow with a forward drop every 250 packets."""
    sim, path, conn = bulk_flow("tcp-bbr")
    log = _EmissionLog(path.forward)
    conn.sender.connect(log)
    conn.start_bulk()
    sim.run(until=BULK_UNTIL_S)
    stats = conn.sender.stats
    return {"events_fired": sim.events_fired,
            "bytes_delivered": conn.receiver.stats.bytes_delivered,
            "data_packets_sent": stats.data_packets_sent,
            "feedback_received": stats.feedback_received,
            "retransmissions": stats.retransmissions,
            "fast_retransmits": stats.fast_retransmits,
            "rtos": stats.rtos,
            "cum_acked": conn.sender.cum_acked,
            "emissions_sha256": log.sha.hexdigest()}


TRANSMIT_FINITE_BYTES = 600_777      # not a multiple of the MSS


def transmit_flow(sim, path, conn, start, until_s: float) -> dict:
    """Run one wired-up flow with every DATA emission and every arrival
    at the receiver's sink hashed on the way through."""
    conn.wire(path.forward, path.reverse)
    emissions = _EmissionLog(path.forward, ("rtt_min", "ack_loss_rate"))
    conn.sender.connect(emissions)
    arrivals = hashlib.sha256()

    def sink(packet):
        if packet.kind is PacketType.DATA:
            arrivals.update(f"{sim.now()!r},{packet.seq},"
                            f"{packet.pkt_seq}\n".encode())
        conn.receiver.on_packet(packet)

    path.forward.connect(sink)
    start()
    sim.run(until=until_s)
    return {"events_fired": sim.events_fired,
            "pending": sim.pending(),
            "completed_at": conn.sender.completed_at,
            "cum_acked": conn.sender.cum_acked,
            "sender": vars(conn.sender.stats),
            "receiver": vars(conn.receiver.stats),
            "emissions_sha256": emissions.sha.hexdigest(),
            "arrivals_sha256": arrivals.hexdigest()}


def transmit_wlan() -> dict:
    """The headline case: a paced tcp-tack bulk flow over 802.11n."""
    sim = Simulator(seed=1)
    path = wlan_path(sim, "802.11n", extra_rtt_s=0.08)
    conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.08)
    return transmit_flow(sim, path, conn, conn.start_bulk, 1.0)


def transmit_finite() -> dict:
    """A finite tcp-tack transfer, partial last segment, over a wired
    path losing 2 % of the data and 5 % of the feedback."""
    sim = Simulator(seed=3)
    path = wired_path(sim, rate_bps=20e6, rtt_s=0.04, data_loss=0.02,
                      ack_loss=0.05)
    conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.04)
    return transmit_flow(
        sim, path, conn,
        lambda: conn.start_transfer(TRANSMIT_FINITE_BYTES), 10.0)


class _EitherLoss(LossModel):
    """Drops what any of *models* drops (each sees every packet)."""

    def __init__(self, *models):
        self._models = models

    def should_drop(self, packet, now):
        return any([m.should_drop(packet, now) for m in self._models])


def feedback_flow(scheme: str) -> dict:
    """One legacy bulk flow losing data and feedback, with the sender's
    state hashed at the end of every feedback it processes."""
    drops = range(FEEDBACK_DROP_EVERY // 2, 40_000, FEEDBACK_DROP_EVERY)
    sim, _, conn = bulk_flow(scheme, reverse_loss=_EitherLoss(
        PatternLoss(drops), BurstLoss([FEEDBACK_BLACKOUT])))
    sender = conn.sender
    feedbacks = hashlib.sha256()
    on_feedback = sender._on_feedback

    def hashed(fb, kind):
        on_feedback(fb, kind)
        rto = sender._rto_timer
        feedbacks.update(
            f"{sim.now()!r},{sender.cum_acked},{sender.in_flight},"
            f"{sender.cc.cwnd_bytes()},{sender.cc.pacing_rate_bps()!r},"
            f"{None if rto is None else sim.due(rto)!r}\n".encode())

    sender._on_feedback = hashed
    conn.start_bulk()
    sim.run(until=BULK_UNTIL_S)
    return {"events_fired": sim.events_fired,
            "pending": sim.pending(),
            "cum_acked": sender.cum_acked,
            "sender": vars(sender.stats),
            "feedbacks_sha256": feedbacks.hexdigest()}


def recovery_cell(scenario: str, scheme: str, feedback: bool) -> dict:
    """Seed-1 chaos run with every feedback the receiver emits
    (*feedback*) or every retransmission the sender emits hashed on
    the way through, hooked in as ``legacy_cell`` captures."""
    sha = hashlib.sha256()
    count = [0]

    def capture(*args, **kwargs):
        conn = make_connection(*args, **kwargs)
        if feedback:
            emit_feedback = conn.receiver.emit_feedback

            def hashed_feedback(kind, fb):
                count[0] += 1
                sha.update(f"{fb.cum_ack},{fb.sack_blocks},"
                           f"{fb.unacked_blocks},"
                           f"{fb.pull_pkt_range}\n".encode())
                emit_feedback(kind, fb)

            conn.receiver.emit_feedback = hashed_feedback
        else:
            emit = conn.sender._emit

            def hashed_emit(rec, now):
                if rec.retx_count:
                    count[0] += 1
                    sha.update(f"{rec.seq},{rec.pkt_seq},{now!r}\n".encode())
                emit(rec, now)

            conn.sender._emit = hashed_emit
        return conn

    with mock.patch.object(repro.chaos.runner, "make_connection", capture):
        run_scenario(get_scenario(scenario), scheme, seed=1)
    return {"count": count[0], "sha256": sha.hexdigest()}


def record_probe_bus() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "chaos": {f"{sc}/{scheme}": chaos_cell(sc, scheme)
                      for sc in CHAOS_SCENARIOS for scheme in CHAOS_SCHEMES},
            "fleet_aggregate_digest": fleet_digest(tmp),
            "traced": traced_run(tmp),
            "planes_off": list(plane_run(())),
        }


def record_legacy_scoreboard() -> dict:
    return {
        "chaos": {f"{sc}/{scheme}": legacy_cell(sc, scheme)
                  for sc in LEGACY_SCENARIOS for scheme in LEGACY_SCHEMES},
        "bulk": legacy_bulk(),
    }


def record_transmit_path() -> dict:
    return {"wlan": transmit_wlan(), "finite": transmit_finite()}


def record_feedback_path() -> dict:
    return {scheme: feedback_flow(scheme) for scheme in FEEDBACK_SCHEMES}


def record_recovery_path() -> dict:
    return {
        "feedback": {f"{sc}/{scheme}": recovery_cell(sc, scheme, True)
                     for sc, scheme in RECOVERY_FEEDBACK_CELLS},
        "retransmissions": {f"{sc}/{scheme}": recovery_cell(sc, scheme, False)
                            for sc, scheme in RECOVERY_RETX_CELLS},
    }


RECORDERS = {"probe_bus": record_probe_bus,
             "legacy_scoreboard": record_legacy_scoreboard,
             "transmit_path": record_transmit_path,
             "feedback_path": record_feedback_path,
             "recovery_path": record_recovery_path}


def _load(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load("probe_bus")


@pytest.fixture(scope="module")
def legacy_golden() -> dict:
    return _load("legacy_scoreboard")


@pytest.mark.parametrize("scheme", CHAOS_SCHEMES)
@pytest.mark.parametrize("scenario", CHAOS_SCENARIOS)
def test_chaos_cells_match_golden(golden, scenario, scheme):
    assert chaos_cell(scenario, scheme) == golden["chaos"][f"{scenario}/{scheme}"]


def test_fleet_aggregate_digest_matches_golden(golden, tmp_path):
    assert fleet_digest(str(tmp_path)) == golden["fleet_aggregate_digest"]


def test_traced_run_matches_golden_and_live_equals_offline(golden, tmp_path):
    traced = traced_run(str(tmp_path))
    assert traced == golden["traced"]
    assert traced["live_digest"] == traced["offline_digest"]


def test_any_plane_subset_leaves_the_run_untouched(golden):
    baseline = tuple(golden["planes_off"])
    for k in range(len(PLANES) + 1):
        for attached in itertools.combinations(PLANES, k):
            assert plane_run(attached) == baseline, attached


@pytest.mark.parametrize("scheme", LEGACY_SCHEMES)
@pytest.mark.parametrize("scenario", LEGACY_SCENARIOS)
def test_legacy_scoreboard_cells_match_golden(legacy_golden, scenario, scheme):
    assert (legacy_cell(scenario, scheme)
            == legacy_golden["chaos"][f"{scenario}/{scheme}"])


def test_legacy_bulk_flow_matches_golden_across_compaction(legacy_golden):
    bulk = legacy_bulk()
    # The lock only means something if the run crosses the compaction
    # of the send-order index and goes through recovery episodes.
    assert bulk["data_packets_sent"] > 8192 + 1000
    assert bulk["retransmissions"] >= 10
    assert bulk == legacy_golden["bulk"]


def test_transmit_path_matches_golden():
    golden = _load("transmit_path")
    wlan, finite = transmit_wlan(), transmit_finite()
    # The lock only means something if the paced path carries real
    # traffic and the finite transfer recovers from loss and ends on
    # its partial segment.
    assert wlan["sender"]["data_packets_sent"] > 5000
    assert (wlan["sender"]["feedback_received"] * 20
            < wlan["sender"]["data_packets_sent"])
    assert finite["sender"]["retransmissions"] > 0
    assert finite["cum_acked"] == TRANSMIT_FINITE_BYTES
    assert finite["completed_at"] is not None
    assert wlan == golden["wlan"]
    assert finite == golden["finite"]


@pytest.mark.parametrize("scheme", FEEDBACK_SCHEMES)
def test_feedback_path_matches_golden(scheme):
    flow = feedback_flow(scheme)
    # The lock only means something if the flow is ACK-clocked (a
    # feedback per packet or two) and goes through fast recovery and a
    # timeout.
    assert flow["sender"]["feedback_received"] > 1000
    assert (flow["sender"]["feedback_received"] * 3
            > flow["sender"]["data_packets_sent"])
    assert flow["sender"]["fast_retransmits"] >= 5
    assert flow["sender"]["rtos"] >= 1
    assert flow == _load("feedback_path")[scheme]


def test_recovery_path_matches_golden():
    recovery = record_recovery_path()
    # The lock only means something if every cell goes through
    # recovery: unacked blocks and pulls, retransmission episodes.
    for cell in (*recovery["feedback"].values(),
                 *recovery["retransmissions"].values()):
        assert cell["count"] >= 10, recovery
    assert recovery == _load("recovery_path")


if __name__ == "__main__":
    names = sys.argv[2:] or sorted(RECORDERS)
    if sys.argv[1:2] != ["--regen"] or not set(names) <= set(RECORDERS):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_lock.py "
                 f"--regen [{'|'.join(sorted(RECORDERS))}]")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names:
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(RECORDERS[name](), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
