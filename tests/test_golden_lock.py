"""Golden lock: seeded values a refactor must reproduce exactly.  A cell
of ``CELLS`` pins what its builder returns, the keys it names of its
connection's end state and its taps' counts and digests into
``golden/lock.json``; its floors make the lock mean something.  Taps are
port proxies, never a wrapped method a rewrite could fold.  Regenerate
only for an intended behaviour change, showing the lines it prints::

    PYTHONPATH=src python tests/test_golden_lock.py --regen [cell-prefix ...]
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile
from fnmatch import fnmatchcase
from functools import lru_cache, partial
from typing import Callable, NamedTuple
from unittest import mock

import pytest

from repro.chaos import ADVERSARY_SCENARIOS, SCENARIOS, get_scenario, run_scenario
from repro.core.flavors import make_connection
from repro.diagnose import FlowDoctor, diagnose_trace
from repro.energy import EnergyLedger
from repro.experiments.fig08_ack_frequency import run_traced
from repro.fleet import FleetConfig, WorkloadConfig, campaign_report, run_fleet
from repro.netsim.engine import Simulator
from repro.netsim.loss import PatternLoss
from repro.netsim.packet import ACK_KINDS, PacketType
from repro.netsim.paths import wired_path, wlan_path
from repro.profile import Profiler
from repro.runner import canonical_json
from repro.telemetry import TraceCollector, trace_digest
from repro.transport.connection import Connection

LOCK_PATH = os.path.join(os.path.dirname(__file__), "golden", "lock.json")
PLANES = {"telemetry": TraceCollector, "diagnosis": FlowDoctor, "energy": EnergyLedger,
          "simsan": lambda: True, "profiler": Profiler}   # Simulator keyword: its value
WIRE = Connection.wire


class _Port:
    """Proxy of *port*: *sent* sees what it is handed, *arrived* what it delivers."""

    def __init__(self, port, sent, arrived):
        self._port, self._sent, self._arrived = port, sent, arrived

    def send(self, packet):
        self._sent(packet)
        return self._port.send(packet)

    def connect(self, sink) -> None:
        def deliver(packet):
            sink(packet)
            self._arrived(packet)
        self._port.connect(deliver)


class Taps:
    """Per packet: ``emissions`` DATA handed to the forward port, ``retx``
    DATA whose ``seq`` was sent before, ``arrivals`` DATA the port delivers;
    ``frames`` feedback the receiver hands to its port (before an
    adversary there), ``feedbacks`` the sender's state after taking one."""

    def __init__(self, names):
        self.shas = {name: hashlib.sha256() for name in names}
        self.counts = dict.fromkeys(names, 0)
        self.conn, self._seqs_sent = None, set()

    def wire(self, conn, forward, reverse) -> None:
        self.conn = conn
        if self.shas:
            forward = _Port(forward, self._data_sent, self._data_arrived)
            reverse = _Port(reverse, self._frame_sent, self._feedback_taken)
        WIRE(conn, forward, reverse)

    def _add(self, name: str, line: str) -> None:
        if name in self.shas:
            self.counts[name] += 1
            self.shas[name].update(f"{line}\n".encode())

    def _data_sent(self, packet) -> None:
        if packet.kind is PacketType.DATA:
            line, meta = f"{packet.seq},{packet.pkt_seq},{packet.sent_at!r}", packet.meta
            self._add("emissions", line + "".join(
                f",{meta[key]!r}" for key in ("rtt_min", "ack_loss_rate") if key in meta))
            if packet.seq in self._seqs_sent:
                self._add("retx", line)
            self._seqs_sent.add(packet.seq)

    def _data_arrived(self, packet) -> None:
        if packet.kind is PacketType.DATA:
            self._add("arrivals", f"{self.conn.sim.now()!r},{packet.seq},{packet.pkt_seq}")

    def _frame_sent(self, packet) -> None:
        if packet.kind in ACK_KINDS:
            fb = packet.meta["fb"]
            self._add("frames", f"{fb.cum_ack},{fb.sack_blocks},"
                                f"{fb.unacked_blocks},{fb.pull_pkt_range}")

    def _feedback_taken(self, packet) -> None:
        if packet.kind in ACK_KINDS and "feedbacks" in self.shas:
            sim, sender = self.conn.sim, self.conn.sender
            rto, cc = sender._rto_timer, sender.cc
            self._add("feedbacks", f"{sim.now()!r},{sender.cum_acked},{sender.in_flight},"
                      f"{cc.cwnd_bytes()},{cc.pacing_rate_bps()!r},"
                      f"{None if rto is None else sim.due(rto)!r}")

    def observed(self) -> dict:
        out = {f"{name}_{what}": value for name, sha in self.shas.items() for what, value
               in (("count", self.counts[name]), ("sha256", sha.hexdigest()))}
        if self.conn is not None:
            sim, sender, receiver = self.conn.sim, self.conn.sender, self.conn.receiver
            out.update(events_fired=sim.events_fired, pending=sim.pending(),
                       cum_acked=sender.cum_acked, completed_at=sender.completed_at)
            out.update((f"sender.{key}", v) for key, v in vars(sender.stats).items())
            out.update((f"receiver.{key}", v) for key, v in vars(receiver.stats).items())
        return out


def chaos(scenario: str, scheme: str) -> dict:
    result = run_scenario(get_scenario(scenario), scheme, seed=1)
    return {"diagnosis_digest": result.diagnosis["digest"]}


def chaos_digest(seed: int) -> dict:
    """Every fault and adversary scenario's result, tcp-tack and tcp-bbr."""
    sha = hashlib.sha256()
    for scenario, scheme in itertools.product(
            sorted({**SCENARIOS, **ADVERSARY_SCENARIOS}), ("tcp-tack", "tcp-bbr")):
        result = run_scenario(get_scenario(scenario), scheme, seed=seed)
        sha.update(f"{canonical_json(result.to_dict())}\n".encode())
    return {"sha256": sha.hexdigest()}


def flow(scheme: str, path, seed: int = 1, until_s: float = 4.0, rtt_s: float = 0.04,
         start=Connection.start_bulk, planes: tuple = ()) -> dict:
    """One flow over ``path(sim)``, begun by ``start(conn)``, with *planes*."""
    sim = Simulator(seed=seed, **{plane: PLANES[plane]() for plane in planes})
    wired = path(sim)
    conn = make_connection(sim, scheme, initial_rtt_s=rtt_s)
    conn.wire(wired.forward, wired.reverse)
    start(conn)
    sim.run(until=until_s)
    return {"events_fired": sim.events_fired,
            "receiver.bytes_delivered": conn.receiver.stats.bytes_delivered}


class _FeedbackLoss(PatternLoss):
    """Every 97th feedback, and all of it for 300 ms from 2 s."""

    def should_drop(self, packet, now):
        return super().should_drop(packet, now) or 2.0 <= now < 2.0 + 0.3


def lossy_wired(lossy_feedback: bool = False):
    """A forward drop every 250 packets; with *lossy_feedback*, feedback loss."""
    return lambda sim: wired_path(
        sim, 50e6, 0.04, queue_bytes=int(2 * 50e6 * 0.04 / 8),
        forward_loss=PatternLoss(range(125, 40_000, 250)),
        reverse_loss=_FeedbackLoss(range(48, 40_000, 97)) if lossy_feedback else None)


def fleet() -> dict:
    config = FleetConfig(
        schemes=("tcp-tack", "tcp-bbr"), shards_per_scheme=1, seed=21, drain_s=5.0,
        workload=WorkloadConfig(arrival="poisson", mean_arrival_hz=3.0, duration_s=4.0,
                                size_median_bytes=20_000, size_sigma=0.8, max_bytes=200_000))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "fleet.jsonl")
        outcome = run_fleet(config, manifest)
        assert outcome.complete, outcome.failed
        return {"aggregate_digest": campaign_report(manifest)["aggregate_digest"]}


def traced() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fig08.jsonl")
        run_traced(path, duration_s=2.0, warmup_s=0.5)
        with open(f"{path}.diagnosis.json") as fh:
            live = json.load(fh)
        return {"jsonl_sha256": trace_digest(path), "live_digest": live["digest"],
                "offline_digest": diagnose_trace(path)["digest"]}


plane_run = partial(   # one short tcp-tack flow; plane_run(planes=...)
    flow, "tcp-tack", lambda sim: wired_path(sim, rate_bps=20e6, rtt_s=0.04, data_loss=0.01),
    seed=5, until_s=10.0, start=lambda conn: conn.start_transfer(400_000))


class Cell(NamedTuple):
    build: Callable[[], dict]
    keys: tuple = ()
    taps: tuple = ()
    floors: tuple = ()     # predicates over the pinned values


CHAOS_TAPS = {  # scenario/scheme: taps
    **{f"{sc}/{scheme}": () for scheme in ("tcp-tack", "tcp-bbr")
       for sc in ("ack-path-loss", "route-change", "adv-optimistic-acker")},
    **{f"{sc}/{scheme}": () for scheme in ("tcp-cubic", "tcp-bbr-perpacket")
       for sc in ("burst-loss", "jitter-reorder", "dup-corrupt", "kitchen-sink")},
    **{f"{sc}/{scheme}": ("frames",) for scheme in ("tcp-tack", "tcp-bbr")
       for sc in ("blackout", "jitter-reorder")},
    **{f"{sc}/tcp-bbr": ("retx",) for sc in ("burst-loss", "dup-corrupt", "kitchen-sink")},
    "adv-ack-withholder/tcp-tack": ("frames",),
}
CHAOS_KEYS = ("events_fired", "receiver.bytes_delivered", "sender.retransmissions",
              "sender.fast_retransmits", "sender.rtos")
RECOVERS = (lambda v: all(v[key] >= 10 for key in v if key.endswith("_count")),)
CONN_KEYS = ("events_fired", "pending", "cum_acked", "completed_at", "sender.*", "receiver.*")
CELLS = {
    **{f"chaos/{pair}": Cell(partial(chaos, *pair.split("/")), CHAOS_KEYS, taps,
                             RECOVERS if taps else ()) for pair, taps in CHAOS_TAPS.items()},
    "bulk/tcp-bbr": Cell(
        partial(flow, "tcp-bbr", lossy_wired()), CONN_KEYS, ("emissions",),
        (lambda v: v["sender.data_packets_sent"] > 8192 + 1000,
         lambda v: v["sender.retransmissions"] >= 10)),
    **{f"feedback/{scheme}": Cell(
        partial(flow, scheme, lossy_wired(True)), CONN_KEYS, ("feedbacks",),
        (lambda v: v["sender.feedback_received"] > 1000, lambda v: v["sender.rtos"] >= 1,
         lambda v: v["sender.feedback_received"] * 3 > v["sender.data_packets_sent"],
         lambda v: v["sender.fast_retransmits"] >= 5))
       for scheme in ("tcp-bbr", "tcp-cubic")},
    "transmit/wlan": Cell(
        partial(flow, "tcp-tack", lambda sim: wlan_path(sim, "802.11n", extra_rtt_s=0.08),
                until_s=1.0, rtt_s=0.08),
        CONN_KEYS, ("emissions", "arrivals"),
        (lambda v: v["sender.data_packets_sent"] > 5000,
         lambda v: v["sender.feedback_received"] * 20 < v["sender.data_packets_sent"])),
    "transmit/finite": Cell(
        partial(flow, "tcp-tack", lambda sim: wired_path(
            sim, rate_bps=20e6, rtt_s=0.04, data_loss=0.02, ack_loss=0.05),
            seed=3, until_s=10.0, start=lambda conn: conn.start_transfer(600_777)),  # < MSS tail
        CONN_KEYS, ("emissions", "arrivals"),
        (lambda v: v["sender.retransmissions"] > 0, lambda v: v["cum_acked"] == 600_777,
         lambda v: v["completed_at"] is not None)),
    "fleet": Cell(fleet),
    "traced/fig08": Cell(traced),
    "planes/none": Cell(plane_run),
    **{f"chaos_digest/seed{seed}": Cell(partial(chaos_digest, seed)) for seed in (1, 2, 3)},
}


@lru_cache(maxsize=None)
def record(name: str) -> dict:
    """What *name* pins, from one run of its builder."""
    cell = CELLS[name]
    taps = Taps(cell.taps)
    with mock.patch.object(Connection, "wire", lambda *args: taps.wire(*args)):
        built = cell.build()
    patterns = cell.keys + tuple(f"{tap}_*" for tap in cell.taps)
    pinned = {key: value for key, value in taps.observed().items()
              if any(fnmatchcase(key, pattern) for pattern in patterns)}
    return dict(sorted({**pinned, **built}.items()))


@lru_cache(maxsize=None)
def lock() -> dict:
    with open(LOCK_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_lock(name):
    values = record(name)
    for i, floor in enumerate(CELLS[name].floors):
        assert floor(values), (f"floor {i} of {name}", values)
    assert values == lock()[name]


def test_live_digest_equals_offline():
    values = record("traced/fig08")
    assert values["live_digest"] == values["offline_digest"]


def test_any_plane_subset_leaves_the_run_untouched():
    for k in range(len(PLANES) + 1):
        for attached in itertools.combinations(PLANES, k):
            assert plane_run(planes=attached) == lock()["planes/none"], attached


if __name__ == "__main__":
    if sys.argv[1:2] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_lock.py --regen [cell-prefix ...]")
    new = {name: lock()[name] for name in CELLS if name in lock()}
    for name in CELLS:
        if name.startswith(tuple(sys.argv[2:]) or ""):
            new[name], was = record(name), lock().get(name, {})
            for key in sorted({*was, *new[name]}):
                before, after = (v.get(key, "<absent>") for v in (was, new[name]))
                if before != after:
                    print(f"{name}.{key}: {before!r} -> {after!r}")
    with open(LOCK_PATH, "w") as fh:
        fh.write(json.dumps(new, indent=1, sort_keys=True) + "\n")
