"""Unit tests for the transport sender over a controlled pipe."""

import gc
import math
from collections import Counter

import pytest

from repro.cc import BBR, NewReno
from repro.cc.pacing import Pacer
from repro.cc.rack import RackState
from repro.core.flavors import make_connection
from repro.fleet.shard import ShardSpec, run_shard
from repro.fleet.workload import WorkloadConfig
from repro.netsim.engine import Simulator
from repro.netsim.loss import PatternLoss
from repro.netsim.packet import MSS, Packet, PacketType
from repro.netsim.paths import wlan_path
from repro.netsim.pipe import Pipe
from repro.transport.feedback import AckFeedback, make_feedback_packet
from repro.transport.sender import IN_FLIGHT, LOST, TransportSender

from callcount import calls_by_package, over_ceilings, per_packet
from conftest import build_wired_connection


class StubPort:
    """Captures sent packets without delivering them anywhere."""

    def __init__(self):
        self.sent = []

    def send(self, packet):
        self.sent.append(packet)
        return True

    def connect(self, sink):
        pass


def established_sender(sim, cc=None, **kwargs):
    sender = TransportSender(sim, cc or NewReno(), **kwargs)
    port = StubPort()
    sender.connect(port)
    sender.start()
    syn_ack = Packet(PacketType.SYN_ACK, size=64)
    syn_ack.meta["syn_sent_at"] = 0.0
    sim.call_in(0.01, lambda: sender.on_packet(syn_ack))
    sim.run(until=0.02)
    port.sent.clear()
    return sender, port


def ack_for(sender, cum_ack, kind=PacketType.ACK, **fields):
    fb = AckFeedback(cum_ack=cum_ack, awnd=fields.pop("awnd", 1 << 30), **fields)
    pkt = make_feedback_packet(kind, fb)
    sender.on_packet(pkt)
    return fb


class TestHandshake:
    def test_syn_establishes_and_samples_rtt(self, sim):
        sender, _ = established_sender(sim)
        assert sender.established
        assert sender.rtt.srtt == pytest.approx(0.01, abs=1e-3)

    def test_syn_retry_on_loss(self, sim):
        sender = TransportSender(sim, NewReno())
        port = StubPort()
        sender.connect(port)
        sender.start()
        sim.run(until=3.0)
        syns = [p for p in port.sent if p.kind is PacketType.SYN]
        assert len(syns) >= 2  # original plus at least one retry


class TestConstruction:
    def test_controller_error_surfaces_instead_of_a_default_pacer(self, sim):
        class Broken(NewReno):
            def pacing_rate_bps(self):
                raise RuntimeError("rate model not initialised")

        with pytest.raises(RuntimeError, match="not initialised"):
            TransportSender(sim, Broken())

    def test_pacer_falls_back_only_for_a_non_positive_rate(self, sim):
        class Idle(NewReno):
            def pacing_rate_bps(self):
                return 0.0

        assert TransportSender(sim, Idle()).pacer.rate_bps == 1e6
        cc = NewReno()
        assert TransportSender(sim, cc).pacer.rate_bps == cc.pacing_rate_bps()


class TestSending:
    def test_respects_cwnd(self, sim):
        sender, port = established_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        data = [p for p in port.sent if p.kind is PacketType.DATA]
        assert len(data) * MSS <= sender.cc.cwnd_bytes() + MSS

    def test_pkt_seq_monotone(self, sim):
        sender, port = established_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        seqs = [p.pkt_seq for p in port.sent if p.kind is PacketType.DATA]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_finite_write(self, sim):
        sender, port = established_sender(sim)
        sender.set_total(5 * MSS)
        sim.run(until=0.2)
        data = [p for p in port.sent if p.kind is PacketType.DATA]
        assert sum(p.payload_len for p in data) == 5 * MSS

    def test_partial_final_segment(self, sim):
        sender, port = established_sender(sim)
        sender.set_total(MSS + 100)
        sim.run(until=0.2)
        data = [p for p in port.sent if p.kind is PacketType.DATA]
        assert [p.payload_len for p in data] == [MSS, 100]

    def test_zero_awnd_blocks(self, sim):
        sender, port = established_sender(sim)
        ack_for(sender, 0, awnd=0)
        sender.set_unlimited()
        sim.run(until=0.15)  # below the persist timeout
        assert not [p for p in port.sent if p.kind is PacketType.DATA]

    def test_persist_probe_fires(self, sim):
        sender, port = established_sender(sim)
        ack_for(sender, 0, awnd=0)
        sender.set_unlimited()
        sim.run(until=1.0)
        # The persist timer must eventually probe the zero window.
        assert [p for p in port.sent if p.kind is PacketType.DATA]

    def test_pacing_spaces_packets(self, sim):
        sender, port = established_sender(sim)
        sender.pacer.set_rate(1.2e6)  # ~10 pkt/s at full size
        sender.cc.pacing_rate_bps = lambda: 1.2e6
        sender.set_unlimited()
        sim.run(until=0.5)
        times = [p.sent_at for p in port.sent if p.kind is PacketType.DATA]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert min(gaps) >= 1518 * 8 / 1.2e6 * 0.99


class TestCumAck:
    def test_cum_ack_releases_window(self, sim):
        sender, port = established_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        sent_before = len(port.sent)
        ack_for(sender, 5 * MSS)
        sim.run(until=0.2)
        assert len(port.sent) > sent_before
        assert sender.cum_acked == 5 * MSS

    def test_in_flight_decreases(self, sim):
        sender, port = established_sender(sim)
        sender.set_total(5 * MSS)
        sim.run(until=0.1)
        assert sender.in_flight == 5 * MSS
        ack_for(sender, 2 * MSS)
        assert sender.in_flight == 3 * MSS

    def test_completion_stamped(self, sim):
        sender, port = established_sender(sim)
        sender.set_total(3 * MSS)
        sim.run(until=0.1)
        assert sender.completed_at is None
        ack_for(sender, 3 * MSS)
        assert sender.completed_at == pytest.approx(sim.now())

    def test_stale_cum_ack_ignored(self, sim):
        sender, port = established_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        ack_for(sender, 5 * MSS)
        ack_for(sender, 2 * MSS)  # reordered feedback
        assert sender.cum_acked == 5 * MSS


class TestDupAckRecovery:
    def test_three_dupacks_fast_retransmit(self, sim):
        sender, port = established_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        port.sent.clear()
        for _ in range(3):
            ack_for(sender, 0, sack_blocks=[(MSS, 2 * MSS)])
        sim.run(until=0.15)
        retx = [p for p in port.sent if p.kind is PacketType.DATA and p.seq == 0]
        assert retx
        assert sender.stats.fast_retransmits == 1

    def test_retransmission_gets_new_pkt_seq(self, sim):
        sender, port = established_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        original = next(p for p in port.sent if p.seq == 0)
        port.sent.clear()
        for _ in range(3):
            ack_for(sender, 0, sack_blocks=[(MSS, 2 * MSS)])
        sim.run(until=0.15)
        retx = next(p for p in port.sent if p.seq == 0)
        assert retx.pkt_seq > original.pkt_seq

    def test_no_spurious_fast_retx_in_recovery(self, sim):
        sender, port = established_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        for _ in range(6):
            ack_for(sender, 0, sack_blocks=[(MSS, 2 * MSS)])
        assert sender.stats.fast_retransmits == 1


    def test_fast_retransmit_skips_a_segment_already_marked_lost(self, sim):
        """The dupACK rule repairs the first segment still presumed in
        the network, not one already queued for retransmission."""
        sender, port = established_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        # Pacing debt keeps the repair of segment 0 in the queue.
        sender.pacer.set_rate(1.0)
        sender.pacer.on_sent(10_000, sim.now())
        sender._mark_record_lost(sender.records[0], sim.now())
        for _ in range(3):
            ack_for(sender, 0)
        assert sender.stats.fast_retransmits == 1
        assert list(sender.retx_queue) == [0, MSS]


class CountingDict(dict):
    """``sender.records`` with its lookups counted."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.lookups += 1
        return dict.get(self, key, default)


class TestScoreboardCost:
    """A feedback costs what it newly says, not the window (the
    per-ACK full-window SACK walk and RACK sweep looked up about two
    records per segment in flight on every ACK)."""

    WINDOW = 450
    SLACK = 8       # hole sweep, first-unacked, retx-queue peeks

    @pytest.fixture
    def sim(self):
        # Never sanitized: simsan's ledger audit is O(window) by design
        # and reads the same dict.
        return Simulator(seed=42, simsan=False)

    def feed(self, sender, cum_ack, sack_blocks=()):
        """One ACK; returns (record lookups, records newly settled)."""
        sender.records.lookups = 0
        delivered = sender.delivered
        ack_for(sender, cum_ack, sack_blocks=list(sack_blocks))
        return (sender.records.lookups,
                (sender.delivered - delivered) // MSS)

    def test_one_hole_episode_costs_new_information_only(self, sim):
        sender, port = established_sender(
            sim, NewReno(initial_cwnd_mss=self.WINDOW))
        sender.set_unlimited()
        sim.run(until=0.15)     # window full, first RTO not yet due
        assert sender.in_flight >= 400 * MSS
        sender.records = CountingDict(sender.records)
        # Segment 0 is lost; every later one arrives and is SACKed, one
        # ACK per segment, each ACK sent twice.
        for top in range(2, 420):
            sim.run(until=sim.now() + 1e-4)
            for settles in (1, 0):
                lookups, settled = self.feed(sender, 0, [(MSS, top * MSS)])
                assert settled == settles
                assert lookups <= self.SLACK + settled, (top, lookups)
            assert len(sender.records) >= 400
        assert sender.stats.fast_retransmits == 1
        assert sender.stats.rtos == 0
        # The repair lands: one cumulative ACK retires the whole run.
        lookups, settled = self.feed(sender, 419 * MSS)
        assert settled == 1
        assert lookups <= self.SLACK + 419

    def test_repeated_sack_blocks_are_free(self, sim):
        sender, port = established_sender(
            sim, NewReno(initial_cwnd_mss=self.WINDOW))
        sender.set_unlimited()
        sim.run(until=0.15)     # window full, first RTO not yet due
        blocks = [(MSS, 100 * MSS), (150 * MSS, 300 * MSS),
                  (320 * MSS, 400 * MSS)]
        ack_for(sender, 0, sack_blocks=blocks)
        sender.records = CountingDict(sender.records)
        for _ in range(5):
            sim.run(until=sim.now() + 1e-4)
            lookups, settled = self.feed(sender, 0, blocks)
            assert settled == 0
            # 71 holes below the SACK top: the sweep visits those only.
            assert lookups <= self.SLACK + 71

    def rack_state(self, sender):
        """Brute force over the holes: the in-flight ones RACK declares
        lost right now (which the governor must be refusing after a
        sweep), and the LOST ones."""
        rack, srtt, now = sender.rack, sender.rtt.smoothed(), sender.sim.now()
        due, lost = set(), set()
        for seq in sender._holes:
            rec = sender.records[seq]
            if rec.state == IN_FLIGHT and RackState.is_lost(
                    rack, rec.last_sent, srtt, now):
                due.add(seq)
            elif rec.state == LOST:
                lost.add(seq)
        return due, lost

    def test_burst_loss_sweep_is_bounded(self, sim):
        """Every other segment of a 420-segment run is lost (210 holes)
        and repaired; the full pass evaluated every in-flight hole on
        every SACK-bearing ACK, the index evaluates the holes newly due,
        not the RACK-due repairs the governor is holding back."""
        sender, port = established_sender(
            sim, NewReno(initial_cwnd_mss=self.WINDOW))
        sender.set_unlimited()
        sim.run(until=0.15)     # window full, first RTO not yet due
        # Repairs leave as soon as they are queued.
        sender.cc.pacing_rate_bps = lambda: 1e9
        evaluations = []
        is_lost = sender.rack.is_lost

        def counted(*args):
            evaluations.append(args)
            return is_lost(*args)

        sender.rack.is_lost = counted
        blocks = [(i * MSS, (i + 1) * MSS) for i in range(1, 420, 2)]
        peak_held_back, evaluated = 0, 0

        def feed(cum_ack, sack_blocks):
            nonlocal peak_held_back, evaluated
            _, lost_before = self.rack_state(sender)
            del evaluations[:]
            ack_for(sender, cum_ack, sack_blocks=sack_blocks)
            due, lost_after = self.rack_state(sender)
            newly_marked = len(lost_after - lost_before)
            # The constant: the entry that ends each heap's pass (a
            # held-back repair stops the repairs' heap), and stale
            # entries of holes acked or SACKed since they were pushed.
            assert len(evaluations) <= newly_marked + 4
            peak_held_back = max(peak_held_back, len(due))
            evaluated += len(evaluations)
            sim.run(until=sim.now() + 1e-4)

        # The loss episode: three new SACK blocks per ACK, each hole is
        # RACK-due the moment a later segment is SACKed and repaired at
        # once; the repairs are in flight again and not due.
        for i in range(0, len(blocks), 3):
            feed(0, blocks[i:i + 3])
        assert len(sender._holes) >= 200
        assert sender.stats.retransmissions >= 200
        assert evaluated <= 2 * len(blocks)
        # The last repair is SACKed (and the first acked, which moves
        # the RTO): every earlier one is RACK-due 1.25 srtt after it
        # was sent and governed until 1.5 srtt.
        last_repaired = max(sender._holes)
        top = [(last_repaired, last_repaired + MSS)]
        for _ in range(300):
            feed(MSS, top)
        assert peak_held_back >= 50
        assert sender.stats.rtos == 0
        assert sender.stats.retransmissions >= 400


class TestRackDeadline:
    def test_index_and_is_lost_agree_exactly_at_the_deadline(self, sim):
        """The sweep pops an entry by ``RackState.is_lost`` itself: one
        ulp before the deadline the hole stays in flight and indexed,
        at the deadline it is marked."""
        sender, port = established_sender(sim)
        sender.set_total(4 * MSS)
        sim.run(until=0.037)     # three segments paced out
        hole, after = sender.records[MSS], sender.records[2 * MSS]
        assert hole.last_sent < after.last_sent
        # Segment 0 is acked (one RTT sample), segment 2 SACKed: the
        # hole is behind a delivered later send, not yet due.
        ack_for(sender, MSS, sack_blocks=[(2 * MSS, 3 * MSS)])
        srtt = sender.rtt.smoothed()
        deadline = hole.last_sent + srtt + sender.rack.reo_wnd(srtt)
        assert sim.now() < deadline
        entry = (hole.last_sent, hole.pkt_seq)
        first_sends = sender._rack_heaps[0]
        assert entry in first_sends
        just_before = math.nextafter(deadline, 0.0)
        sim.run(until=just_before)
        assert not sender.rack.is_lost(hole.last_sent, srtt, just_before)
        ack_for(sender, MSS, sack_blocks=[(2 * MSS, 3 * MSS)])
        assert hole.state == IN_FLIGHT and hole.retx_count == 0
        assert entry in first_sends
        sim.run(until=deadline)
        assert sender.rack.is_lost(hole.last_sent, srtt, deadline)
        ack_for(sender, MSS, sack_blocks=[(2 * MSS, 3 * MSS)])
        assert hole.state == LOST and list(sender.retx_queue) == [MSS]
        assert sender.stats.fast_retransmits == 0
        assert entry not in first_sends
        assert sender.rtt.smoothed() == srtt

    def test_a_reordered_ack_sweeps_below_its_own_top(self, sim):
        sender, port = established_sender(sim, NewReno(initial_cwnd_mss=50))
        sender.set_total(6 * MSS)
        sim.run(until=0.029)        # all six out, no deadline passed
        assert len(sender.records) == 6

        def marked():
            return {seq for seq, rec in sender.records.items()
                    if rec.state == LOST or rec.retx_count}

        ack_for(sender, 0, sack_blocks=[(5 * MSS, 6 * MSS)])
        assert sender._holes == [0, MSS, 2 * MSS, 3 * MSS, 4 * MSS]
        assert marked() == set()
        sim.run(until=0.045)        # every hole is RACK-due now
        # An older ACK, delivered late: its SACK top is segment 3, so
        # the due holes above it wait for feedback that covers them.
        ack_for(sender, 0, sack_blocks=[(2 * MSS, 3 * MSS)])
        assert marked() == {0, MSS}
        ack_for(sender, MSS, sack_blocks=[(5 * MSS, 6 * MSS)])
        assert marked() == {MSS, 3 * MSS, 4 * MSS}
        assert sender.stats.fast_retransmits == 0

    def test_a_settled_run_leaves_rack_at_its_latest_send(self, sim):
        """A cumulative ACK settles its records as one run with one
        RACK update: the latest send among them, which need not be the
        last record's (a repair of the first one left later)."""
        sender, port = established_sender(sim, NewReno(initial_cwnd_mss=50))
        sender.set_total(4 * MSS)
        sim.run(until=0.029)
        for _ in range(3):
            ack_for(sender, 0, sack_blocks=[(MSS, 2 * MSS)])
        sim.run(until=0.05)
        repaired = sender.records[0]
        assert repaired.retx_count == 1
        latest = repaired.last_sent
        assert latest > max(rec.last_sent for seq, rec in
                            sender.records.items() if seq)
        ack_for(sender, 4 * MSS)
        assert not sender.records
        assert sender.rack.latest_delivered_send_time == pytest.approx(latest)


class PushCountingSimulator(Simulator):
    """Records the callback of every event pushed onto the heap, and
    every event cancelled (a dead heap entry until it surfaces)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.pushed = []
        self.cancelled = []

    def call_at(self, t, fn):
        self.pushed.append(fn)
        return super().call_at(t, fn)

    def cancel(self, ev):
        self.cancelled.append(ev)
        super().cancel(ev)


class CountingBBR(BBR):
    cwnd_reads = 0

    def cwnd_bytes(self):
        self.cwnd_reads += 1
        return super().cwnd_bytes()


class TestTransmitCost:
    """One emitted packet costs one heap push and one window read (a
    paced sender is one send-timer event per packet, and a feedback
    that finds the timer already armed for the release time used to
    cancel it and push an identical one)."""

    WINDOW = 450

    @pytest.fixture
    def sim(self):
        return PushCountingSimulator(seed=42, simsan=False)

    def count_try_send(self, sender):
        calls = []
        try_send = sender._try_send

        def counted():
            calls.append(sender.sim.now())
            try_send()

        sender._try_send = counted
        return calls

    def test_paced_tack_sender_one_push_one_window_read_per_packet(self, sim):
        cc = CountingBBR(initial_rtt_s=0.01, initial_cwnd_mss=self.WINDOW)
        sender, port = established_sender(sim, cc, receiver_driven=True)
        calls = self.count_try_send(sender)
        sender.set_unlimited()
        assert sender._limit == "pacing"
        for acked in (0, 150, 300):
            if acked:
                ack_for(sender, acked * MSS, kind=PacketType.TACK)
            del sim.pushed[:], calls[:], port.sent[:]
            cc.cwnd_reads = 0
            sim.run(max_events=120)
            # Nothing but send timers ran, and each did one thing.
            assert len(port.sent) == len(calls) == cc.cwnd_reads == 120
            assert sim.pushed == [sender._on_send_timer] * 120
            assert sender._limit == "pacing"
        assert sender.stats.retransmissions == sender.stats.rtos == 0

    def test_feedback_at_a_pacing_blocked_sender_keeps_the_timer(self, sim):
        sender, port = established_sender(
            sim, NewReno(initial_cwnd_mss=self.WINDOW))
        sender.set_unlimited()
        sim.run(max_events=40)
        ack_for(sender, 20 * MSS)
        timer, dead = sender._send_timer, len(sim.cancelled)
        assert sender._limit == "pacing" and sim.due(timer) is not None
        del sim.pushed[:], port.sent[:]
        fed = sender.stats.feedback_received
        for _ in range(10):
            # Late duplicates of older ACKs: no progress, no dupACK.
            ack_for(sender, 10 * MSS)
        assert sender.stats.feedback_received == fed + 10
        assert sim.pushed == [] and port.sent == []
        assert sender._send_timer is timer and sim.due(timer) is not None
        assert len(sim.cancelled) == dead
        sim.run(max_events=1)
        assert [p.sent_at for p in port.sent] == [pytest.approx(sim.due(timer))]

    def test_kept_timer_follows_the_pacer_release_time(self, sim):
        sender, port = established_sender(
            sim, NewReno(initial_cwnd_mss=self.WINDOW))
        sender.set_total(40 * MSS)
        sim.run(max_events=5)
        pacer, kept = sender.pacer, sender._send_timer
        # A new rate does not move the release time: same timer.
        pacer.set_rate(pacer.rate_bps / 3)
        sender._try_send()
        assert sender._send_timer is kept and sim.due(kept) is not None
        assert sim.due(kept) == pytest.approx(pacer.release_at)
        # Debt at a replaced rate, then forgiven: the release time
        # moves out and back in, and the timer with it, both times.
        pacer.set_rate(10.0)
        pacer.on_sent(MSS, sim.now())
        sender._try_send()
        far = sender._send_timer
        assert sim.due(kept) is None and sim.due(far) > sim.now() + 60.0
        pacer.set_rate(20e6)
        pacer.forgive(sim.now(), MSS)
        sender._try_send()
        near = sender._send_timer
        assert sim.due(far) is None
        assert sim.due(near) == pytest.approx(pacer.release_at)
        del port.sent[:]
        sim.run(max_events=1)
        assert [p.sent_at for p in port.sent] == [pytest.approx(sim.due(near))]
        # An RTO forgives the debt itself; its retransmissions leave on
        # the timer armed for the forgiven release time.
        pacer.set_rate(10.0)
        pacer.on_sent(MSS, sim.now())
        sender._try_send()
        del port.sent[:]
        while sender.stats.rtos == 0:
            assert sim.step()
        timer = sender._send_timer
        due = sim.due(timer)
        assert due == pytest.approx(pacer.release_at)
        assert sim.now() < due < sim.now() + 1.0 and port.sent == []
        sim.run(until=due)
        assert [(p.seq, p.sent_at) for p in port.sent] == [
            (0, pytest.approx(due))]


    def test_a_departure_costs_the_guard_one_append_and_no_pop(self, sim):
        cc = BBR(initial_rtt_s=0.01, initial_cwnd_mss=self.WINDOW)
        sender, port = established_sender(sim, cc, receiver_driven=True)
        sender.guard._stamps = stamps = CountingList()
        sender.set_unlimited()
        sim.run(max_events=300)
        departures = [p.sent_at for p in port.sent]
        assert len(departures) == len(set(departures)) >= 250
        assert stamps == departures
        assert stamps.appends == len(departures) and stamps.removals == 0

    #: Ceilings on calls into ``repro`` per data packet, by package,
    #: for the two flows below (``callcount``; "other" holds every
    #: package not named).  Measured values are in the docstrings.
    CALL_CEILINGS = {
        "tack_wlan": {"total": 20.6, "transport": 9.5, "netsim": 2.65,
                      "wlan": 4.2, "cc": 1.4, "core": 2.9, "ack": 1.0,
                      "other": 0.05},
        "bbr_wired": {"total": 44.1, "transport": 18.6, "netsim": 13.95,
                      "cc": 8.9, "core": 1.15, "ack": 2.45, "other": 0.05},
    }

    def test_python_calls_per_data_packet_on_a_tack_wlan_flow(self):
        """Calls into ``repro`` per data packet of a seeded ``tcp-tack``
        flow over 802.11n (``callcount``, CPython 3.11): 20.17
        (transport 9.26, wlan 3.96, core 2.67, netsim 2.40, cc 1.14,
        ack 0.74); 24.34 (netsim 5.55, wlan 4.98; ceiling 24.8) before
        the AP's ingress delay replaced the forward delay pipe (a
        ``Pipe.send``, a ``call_at`` and a ``_deliver_next`` per data
        packet, where the medium's ``settle`` per event is now), a
        clean TXOP stopped pushing a second round and handed its MPDUs
        to the receiver's sink in place (``Station.deliver``), 31.88
        (recorded as 32.11; ceiling 32.6) before the
        receiver took a data packet in one pass (the three ``core``
        trackers, four ``IntervalSet`` methods and the DATA dispatch as
        calls) and the sender built a new segment's record, charged the
        pacer and stamped the departure in place, 37.83 before the heap
        entry was the event's handle (an ``Event.__init__`` per push) and the per-packet
        handlers read the clock in place, 40.09 before ``Simulator.run``
        stepped its clock in place, 42.60 before ``Simulator.call_at``
        read its clock's slot, and 52.00 before the path of a data packet was one pass per
        layer (the RTT_min read through four calls, three calls per
        acked record, the WLAN peer looked up per MPDU)."""
        sim = Simulator(seed=1, simsan=False)
        path = wlan_path(sim, "802.11n", extra_rtt_s=0.08)
        conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.08)
        conn.wire(path.forward, path.reverse)
        packets, calls = self.calls_from_half_a_second(sim, conn)
        assert packets > 4000
        assert over_ceilings(calls, self.CALL_CEILINGS["tack_wlan"]) == {}

    def test_python_calls_per_data_packet_on_a_bbr_wired_flow(self):
        """The same count for a seeded ``tcp-bbr`` flow (delayed ACK,
        SACK, RACK; about one ACK per 1.2 data packets) on a 50 Mbit/s,
        40 ms wired path losing one packet in 250 (CPython 3.11): 43.69
        (transport 18.32, netsim 13.67, cc 8.62, ack 2.18, core 0.90);
        49.75 (transport 23.52, netsim 14.54; ceiling 50.2) before the
        receiver wrote a plain ACK in one pass (``send_ack``: the frame
        and its packet built without ``__init__``, where
        ``build_feedback``, ``first_missing``, ``covered``,
        ``last_ranges``, ``AckFeedback.__init__``, ``emit_feedback``,
        ``make_feedback_packet`` and ``Packet.__init__`` were called per
        ACK), 59.39 before the receiver took a data packet in one pass and the
        sender's new segment, pacer charge and stamp were made in place,
        59.44 before a wired-link packet was one event (a serialization
        finish and a ``call_at`` for it, per data packet and per ACK,
        where the queue's ``settle`` and the link's ``_schedule`` are
        now), 70.88 before the heap entry was the event's handle and the
        per-packet handlers read the clock in place (``Event.__init__``
        and ``Clock.now`` per push and per handler), 94.92 before each
        wired-link leg was one pass (a loss model on
        the lossless reverse link, the queue's methods, the
        serialization formula, a closure per arrival, ``advance_to`` per
        event), and 115.48 before one legacy ACK was one pass per layer
        (the ACK built through six helpers, the guard's helpers and the
        loss detector called on clean frames, BBR's state machine and
        the RTO through calls and builtins, the clock read in
        ``call_at``)."""
        sim = Simulator(seed=1, simsan=False)
        conn, _ = build_wired_connection(
            sim, "tcp-bbr", rate_bps=50e6, rtt_s=0.04,
            queue_bytes=int(2 * 50e6 * 0.04 / 8),
            forward_loss=PatternLoss(range(125, 1 << 20, 250)))
        packets, calls = self.calls_from_half_a_second(sim, conn)
        assert packets > 1900 and conn.sender.stats.retransmissions > 5
        assert over_ceilings(calls, self.CALL_CEILINGS["bbr_wired"]) == {}

    def test_events_per_data_packet_on_a_bbr_wired_flow(self):
        """``bbr_wired_bulk`` at a quarter of its length: 2.74 events per
        data packet -- its arrival at each end of the path, about 0.8
        ACK arrivals and one send-timer event -- and 4.58 while each
        wired-link packet also had a serialization-finish event."""
        sim = Simulator(seed=1, simsan=False)
        conn, _ = build_wired_connection(
            sim, "tcp-bbr", rate_bps=50e6, rtt_s=0.04,
            queue_bytes=int(2 * 50e6 * 0.04 / 8),
            forward_loss=PatternLoss(range(125, 1 << 20, 250)))
        conn.start_bulk()
        sim.run(until=1.5)
        stats = conn.sender.stats
        assert stats.data_packets_sent > 5000 and stats.retransmissions > 15
        assert sim.events_fired / stats.data_packets_sent <= 2.9

    def test_events_per_data_packet_on_a_tack_wlan_flow(self):
        """``tack_wlan_bulk`` at a quarter of its length: 1.24 events per
        data packet -- its send timer, and its TXOPs and feedback shared
        out -- and 2.27 while a delay pipe ahead of the AP had an
        arrival event per data packet and every clean TXOP pushed a
        second, idle contention round."""
        sim = Simulator(seed=1, simsan=False)
        path = wlan_path(sim, "802.11n", extra_rtt_s=0.08)
        conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.08)
        conn.wire(path.forward, path.reverse)
        conn.start_bulk()
        sim.run(until=1.25)
        stats = conn.sender.stats
        assert stats.data_packets_sent > 15000
        assert sim.events_fired / stats.data_packets_sent <= 1.3

    @staticmethod
    def calls_from_half_a_second(sim, conn):
        """Run a bulk flow past start-up (0.5 s), then count calls into
        ``repro`` per data packet sent up to 1.0 s, by package."""
        conn.start_bulk()
        sim.run(until=0.5)          # past start-up, into the steady state
        sent = conn.sender.stats.data_packets_sent
        calls = calls_by_package(lambda: sim.run(until=1.0))
        packets = conn.sender.stats.data_packets_sent - sent
        return packets, per_packet(calls, packets)

    @staticmethod
    def cyclic_garbage(run):
        """What ``run()`` returns, and the types of the objects the
        cyclic collector then finds, by count: everything ``run`` let
        go of must have been freed by refcount."""
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            kept = run()
            gc.collect()
            found = Counter(type(obj).__name__ for obj in gc.garbage)
            del gc.garbage[:]
        finally:
            gc.set_debug(debug)
            if enabled:
                gc.enable()
        return kept, found

    def test_no_cyclic_garbage_on_a_tack_wlan_flow(self):
        """A fired heap entry holds no callback, so a TXOP and the
        packets it carried are freed by refcount the moment it ends.
        While the medium's closures held their own heap entries, this
        one-second flow left 42 932 objects to the collector
        (``TxOp``s, ``Packet``s, the lambdas and their cells; 233 393
        per ``tack_wlan_bulk`` round)."""
        def run():
            sim = Simulator(seed=1, simsan=False)
            path = wlan_path(sim, "802.11n", extra_rtt_s=0.08)
            conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.08)
            conn.wire(path.forward, path.reverse)
            conn.start_bulk()
            sim.run(until=1.0)
            return conn, path
        (conn, path), found = self.cyclic_garbage(run)
        assert conn.sender.stats.data_packets_sent > 12000
        assert path.medium.transmissions > 1500
        assert found == {}

    def test_no_cyclic_garbage_on_a_fleet_shard(self):
        """A ``fleet_churn``-shaped shard: a retired flow -- closed,
        unwired and released -- is freed by refcount, and so is the
        shard's simulation once it returns (its drain leaves the heap
        empty).  Each flow used to live on in two cycles (sender and
        guard; sender, its abort callback and the connection): 4 961
        objects of cyclic garbage, 66 connections among them.  The
        same holds with the runtime sanitizer on, whose simulator,
        link list and receiver-to-sender map once held every flow and
        the simulation in cycles (5 678 objects)."""
        workload = WorkloadConfig(mean_arrival_hz=60.0, duration_s=1.0,
                                  size_median_bytes=40_000, size_sigma=1.0,
                                  max_bytes=2_000_000)
        spec = ShardSpec(shard_id=0, scheme="tcp-tack", seed=8,
                         workload=workload).to_dict()
        for simsan in (False, True):
            summary, found = self.cyclic_garbage(
                lambda: run_shard(spec, simsan=simsan))
            assert summary["flows"]["completed"] > 40
            assert found == {}, simsan


class CountingList(list):
    """A list with its appends and removals counted."""

    appends = removals = 0

    def append(self, item):
        self.appends += 1
        super().append(item)

    def pop(self, *args):
        self.removals += 1
        return super().pop(*args)

    def __delitem__(self, key):
        self.removals += 1
        super().__delitem__(key)


class TestFeedbackCost:
    """The retransmission timeout is one event per flow whose deadline
    moves with every ACK that makes progress; it used to be cancelled
    and pushed again each time (one dead heap entry per ACK)."""

    @pytest.fixture
    def sim(self):
        return PushCountingSimulator(seed=42)

    def test_progress_acks_move_the_rto_without_a_push(self, sim):
        # Four BDPs of queue: startup overshoots without a drop.
        conn, _ = build_wired_connection(sim, "tcp-bbr", rate_bps=20e6,
                                         rtt_s=0.04, queue_bytes=400_000)
        sender = conn.sender
        on_feedback = sender._on_feedback
        seen = {"progress": 0, "moved": 0, "earlier": 0}

        def watched(fb, kind):
            armed, acked = sender._rto_timer, sender.cum_acked
            due = None if armed is None else sim.due(armed)
            pushes = sim.pushed.count(sender._on_rto)
            dead = len(sim.cancelled)
            on_feedback(fb, kind)
            if sender.cum_acked == acked or armed is None:
                return
            seen["progress"] += 1
            pushes = sim.pushed.count(sender._on_rto) - pushes
            timer = sender._rto_timer
            assert sim.due(timer) == pytest.approx(
                sim.now() + sender.rtt.rto())
            if sim.due(timer) >= due:
                seen["moved"] += 1
                assert timer is armed and sim.due(armed) is not None
                assert pushes == 0 and len(sim.cancelled) == dead
            else:
                seen["earlier"] += 1
                assert timer is not armed and sim.due(armed) is None
                assert pushes == 1

        sender._on_feedback = watched
        conn.start_bulk()
        sim.run(until=2.0)
        assert sender.stats.retransmissions == sender.stats.rtos == 0
        assert seen["progress"] > 1000
        assert seen["moved"] >= 0.99 * seen["progress"], seen
        # All told: the first arm, and one per deadline that came in.
        assert sim.pushed.count(sender._on_rto) == 1 + seen["earlier"]

    def test_an_earlier_deadline_is_a_cancel_and_a_push(self, sim):
        sender, port = established_sender(sim, NewReno(initial_cwnd_mss=10))
        sender.set_total(10 * MSS)
        sim.run(until=0.25)             # the RTO fires and backs off
        assert sender.stats.rtos == 1
        backed_off = sender._rto_timer
        assert sim.due(backed_off) == pytest.approx(0.02 + 0.2 + 0.4)
        del sim.pushed[:]
        # The late ACK of an original transmission (the second segment;
        # the first was retransmitted): progress, one sample (Karn
        # allows it) that resets the backoff, a shorter RTO.
        ack_for(sender, 2 * MSS)
        timer = sender._rto_timer
        assert timer is not backed_off and sim.due(backed_off) is None
        assert sim.due(timer) == pytest.approx(sim.now() + sender.rtt.rto())
        assert sim.due(timer) < 0.02 + 0.2 + 0.4
        assert sim.pushed.count(sender._on_rto) == 1
        # ... and from there on it only recedes: moved, not pushed.
        sim.run(until=0.3)
        del sim.pushed[:]
        ack_for(sender, 3 * MSS)
        assert sender._rto_timer is timer and sim.due(timer) is not None
        assert sim.due(timer) == pytest.approx(sim.now() + sender.rtt.rto())
        assert sender._on_rto not in sim.pushed

    def test_pacer_subclass_sees_one_set_rate_per_admitted_feedback(self, sim):
        """The pacer seam ``experiments.ablations`` overrides: the rate
        reaches the pacer through ``set_rate``, once per feedback the
        guard admits, as the controller's ``pacing_rate_bps()``."""
        conn, _ = build_wired_connection(sim, "tcp-bbr", rate_bps=20e6,
                                         rtt_s=0.04, queue_bytes=400_000)
        sender = conn.sender
        calls = []

        class RecordingPacer(Pacer):
            def set_rate(self, rate_bps):
                calls.append((sender.stats.feedback_received, rate_bps,
                              sender.cc.pacing_rate_bps()))
                super().set_rate(rate_bps)

        conn.start_bulk()
        sim.run(until=0.2)
        pacer = RecordingPacer(sender.pacer.rate_bps)
        pacer.release_at = sender.pacer.release_at
        sender.pacer = pacer
        admitted = sender.stats.feedback_received
        sim.run(until=1.0)
        bad = AckFeedback(cum_ack="all", awnd=1 << 20)
        sender.on_packet(make_feedback_packet(PacketType.ACK, bad))
        assert sender.stats.feedback_rejected == 1
        assert sender.stats.rtos == 0
        count = sender.stats.feedback_received - admitted
        assert count > 500
        assert [n for n, _, _ in calls] == list(
            range(admitted + 1, admitted + count + 1))
        assert all(rate == expected for _, rate, expected in calls)


class TestReceiverDrivenPull:
    def make_tack_sender(self, sim):
        sender, port = None, None
        s = TransportSender(sim, BBR(initial_rtt_s=0.01), receiver_driven=True)
        p = StubPort()
        s.connect(p)
        s.start()
        syn_ack = Packet(PacketType.SYN_ACK, size=64)
        syn_ack.meta["syn_sent_at"] = 0.0
        sim.call_in(0.01, lambda: s.on_packet(syn_ack))
        sim.run(until=0.02)
        p.sent.clear()
        return s, p

    def test_pull_range_retransmits(self, sim):
        sender, port = self.make_tack_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        lost = [p for p in port.sent if p.pkt_seq == 2][0]
        port.sent.clear()
        ack_for(sender, MSS, kind=PacketType.IACK, pull_pkt_range=(1, 3))
        sim.run(until=0.12)
        retx = [p for p in port.sent if p.seq == lost.seq]
        assert len(retx) == 1
        assert retx[0].pkt_seq > lost.pkt_seq

    def test_stale_pull_for_superseded_pkt_seq_ignored(self, sim):
        sender, port = self.make_tack_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        port.sent.clear()
        ack_for(sender, MSS, kind=PacketType.IACK, pull_pkt_range=(1, 3))
        sim.run(until=0.12)
        n_after_first = sender.stats.retransmissions
        # Same pull again: pkt_seq 2 now superseded, nothing happens.
        ack_for(sender, MSS, kind=PacketType.IACK, pull_pkt_range=(1, 3))
        sim.run(until=0.14)
        assert sender.stats.retransmissions == n_after_first

    def test_unacked_block_governed_once_per_rtt(self, sim):
        sender, port = self.make_tack_sender(sim)
        sender.rtt.on_sample(0.1)
        sender.set_unlimited()
        sim.run(until=0.1)
        port.sent.clear()
        for _ in range(4):
            ack_for(sender, MSS, kind=PacketType.TACK,
                    unacked_blocks=[(MSS, 2 * MSS)])
        sim.run(until=0.15)
        retx = [p for p in port.sent if p.seq == MSS]
        assert len(retx) == 1

    def test_tack_timing_updates_rtt_min(self, sim):
        sender, port = self.make_tack_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        now = sim.now()
        # The echoed reference must be a departure the sender really
        # stamped (the guard's echo_ts rule), so echo a captured one.
        ts = port.sent[0].sent_at
        ack_for(sender, MSS, kind=PacketType.TACK,
                echo_departure_ts=ts, tack_delay=now - ts - 0.03)
        assert sender.rtt_min_est.last_sample == pytest.approx(0.03)

    def test_receiver_rate_feeds_cc(self, sim):
        sender, port = self.make_tack_sender(sim)
        sender.set_unlimited()
        sim.run(until=0.1)
        ack_for(sender, MSS, kind=PacketType.TACK, delivery_rate_bps=42e6)
        assert sender.cc.bw_estimate() == pytest.approx(42e6)


class TestRto:
    def test_rto_fires_and_retransmits(self, sim):
        sender, port = established_sender(sim)
        sender.set_total(2 * MSS)
        sim.run(until=0.05)
        port.sent.clear()
        sim.run(until=3.0)  # no feedback at all
        assert sender.stats.rtos >= 1
        assert any(p.seq == 0 for p in port.sent)

    def test_pacer_debt_does_not_outlive_an_rto(self, sim):
        """Debt charged at a since-replaced rate (20 minutes for one
        packet at 10 bps) must not pacing-block the timeout's own
        retransmission — nothing is in flight to fire another timer."""
        sender, port = established_sender(sim)
        sender.set_total(2 * MSS)
        sim.run(until=0.05)
        sender.pacer.set_rate(10.0)
        sender.pacer.on_sent(MSS, sim.now())
        sender.pacer.set_rate(20e6)
        assert sender.pacer.release_at > sim.now() + 60.0
        port.sent.clear()
        sim.run(until=3.0)  # no feedback at all
        assert sender.stats.rtos >= 1
        assert sender.stats.retransmissions >= 1
        assert any(p.seq == 0 for p in port.sent)

    def test_rto_backoff_doubles(self, sim):
        sender, port = established_sender(sim)
        sender.set_total(MSS)
        first_rto = sender.rtt.rto()
        sim.run(until=0.05 + first_rto + 0.01)
        assert sender.rtt.rto() >= 1.9 * first_rto


class TestEndToEndPipe:
    def test_data_flows_through_pipe(self, sim):
        """Sender against a real receiver via lossless pipes."""
        from repro.ack import PerPacketAck
        from repro.transport.receiver import TransportReceiver

        sender = TransportSender(sim, NewReno())
        receiver = TransportReceiver(sim, PerPacketAck())
        fwd = Pipe(sim, delay_s=0.01, sink=receiver.on_packet)
        rev = Pipe(sim, delay_s=0.01, sink=sender.on_packet)
        sender.connect(fwd)
        receiver.connect(rev)
        sender.set_total(100 * MSS)
        sender.start()
        sim.run(until=5.0)
        assert receiver.stats.bytes_delivered == 100 * MSS
        assert sender.completed_at is not None
