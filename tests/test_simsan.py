"""simsan: enablement plumbing, each invariant trips on a broken flow,
and clean runs stay clean under the sanitizer."""

import pytest

from repro import sanitize
from repro.ack import DelayedAck
from repro.cc import NewReno
from repro.core.flavors import make_connection
from repro.netsim.engine import Simulator
from repro.netsim.packet import MSS, Packet, PacketType
from repro.netsim.paths import wired_path
from repro.sanitize import InvariantViolation, SimSanitizer
from repro.transport.connection import Connection, ConnectionConfig


def make_conn(sim, **cfg):
    path = wired_path(sim, 20e6, 0.04)
    return Connection(sim, NewReno(), DelayedAck(),
                      config=ConnectionConfig(**cfg),
                      forward_port=path.forward,
                      reverse_port=path.reverse)


def run_transfer(sim, conn, nbytes=50 * MSS, until=5.0):
    conn.start_transfer(nbytes)
    sim.run(until=until)
    assert conn.completed
    return conn


class TestEnablement:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIMSAN", raising=False)
        assert Simulator(seed=1).san is None

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMSAN", "1")
        assert sanitize.env_enabled()
        assert isinstance(Simulator(seed=1).san, SimSanitizer)

    def test_env_falsy_values(self, monkeypatch):
        for value in ("0", "off", "no", ""):
            monkeypatch.setenv("REPRO_SIMSAN", value)
            assert Simulator(seed=1).san is None, value

    def test_constructor_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIMSAN", "1")
        assert Simulator(seed=1, simsan=False).san is None
        monkeypatch.delenv("REPRO_SIMSAN")
        assert Simulator(seed=1, simsan=True).san is not None

    def test_connection_config_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIMSAN", raising=False)
        sim = Simulator(seed=1)
        conn = make_conn(sim, simsan=True)
        assert sim.san is not None
        assert conn.sender in sim.san._senders
        assert sim.san._peer_sender[conn.receiver]() is conn.sender

    def test_enable_sanitizer_idempotent(self):
        sim = Simulator(seed=1, simsan=True)
        first = sim.san
        sim.enable_sanitizer()
        assert sim.san is first


class TestViolationObject:
    def test_structured_fields_and_message(self):
        sim = Simulator(seed=1, simsan=True)
        sim.san.on_event(2.0)
        with pytest.raises(InvariantViolation) as exc_info:
            sim.san.on_event(1.0)
        err = exc_info.value
        assert err.invariant == "event_clock"
        assert err.flow_id is None
        assert isinstance(err.sim_time, float)
        assert "[simsan] event_clock violated at t=" in str(err)
        assert isinstance(err, AssertionError)


class TestInvariantsTrip:
    """Each invariant fires when the corresponding state is corrupted.

    Corruptions poke endpoint internals directly — the point is that
    the sanitizer notices a broken simulator, using a deliberately
    broken one."""

    def setup_conn(self):
        sim = Simulator(seed=7, simsan=True)
        conn = make_conn(sim)
        run_transfer(sim, conn)
        return sim, conn

    def test_event_clock_rejects_bad_instants(self):
        sim = Simulator(seed=1, simsan=True)
        with pytest.raises(InvariantViolation, match="event_clock"):
            sim.san.on_event(-0.5)
        with pytest.raises(InvariantViolation, match="event_clock"):
            sim.san.on_event(float("nan"))

    def test_event_clock_rejects_an_entry_carrying_a_move_mark(self):
        sim = Simulator(seed=1, simsan=True)
        ev = sim.call_at(1.0, lambda: None)
        sim.san.on_event(1.0, ev)                   # live: fires as is
        sim.move(ev, 2.0)
        # corrupt: the entry fires under its old key, its mark unread
        with pytest.raises(InvariantViolation, match="event_clock"):
            sim.san.on_event(1.0, ev)

    def test_pkt_seq_monotone(self):
        sim, conn = self.setup_conn()
        sender = conn.sender
        rec = next(iter(sender.records.values()), None)
        if rec is None:  # all records retired after completion
            sim2 = Simulator(seed=7, simsan=True)
            conn2 = make_conn(sim2)
            conn2.start_transfer(50 * MSS)
            sim2.step()  # just enough to emit the first packets
            while not conn2.sender.records:
                sim2.step()
            sim, sender = sim2, conn2.sender
            rec = next(iter(sender.records.values()))
        state = sim.san._senders[sender]
        with pytest.raises(InvariantViolation, match="pkt_seq_monotone"):
            # Re-announce an already-seen PKT.SEQ: S5.1 forbids reuse.
            sim.san.on_data_sent(sender, rec)
        assert state.last_pkt_seq >= rec.pkt_seq

    def test_cum_ack_monotone(self):
        sim, conn = self.setup_conn()
        sender = conn.sender
        sender.cum_acked -= MSS  # corrupt: ack point regresses
        from repro.transport.feedback import AckFeedback
        fb = AckFeedback(cum_ack=sender.cum_acked, awnd=1 << 20)
        with pytest.raises(InvariantViolation, match="cum_ack_monotone"):
            sim.san.on_sender_feedback(sender, fb)

    def test_nonneg_rwnd(self):
        sim, conn = self.setup_conn()
        from repro.transport.feedback import AckFeedback
        fb = AckFeedback(cum_ack=conn.sender.cum_acked, awnd=-1)
        with pytest.raises(InvariantViolation, match="nonneg_rwnd"):
            sim.san.on_sender_feedback(conn.sender, fb)

    def test_nonneg_pacing(self):
        sim, conn = self.setup_conn()
        conn.sender.cc._cwnd = 0  # corrupt: zero congestion window
        from repro.transport.feedback import AckFeedback
        fb = AckFeedback(cum_ack=conn.sender.cum_acked, awnd=1 << 20)
        with pytest.raises(InvariantViolation, match="nonneg_pacing"):
            sim.san.on_sender_feedback(conn.sender, fb)

    def test_byte_conservation_counter_drift(self):
        sim, conn = self.setup_conn()
        conn.sender.in_flight += MSS  # corrupt: phantom in-flight bytes
        with pytest.raises(InvariantViolation, match="byte_conservation"):
            sim.san.check_sender_ledger(conn.sender)

    def test_byte_conservation_missing_record(self):
        sim, conn = self.setup_conn()
        sender = conn.sender
        sender.next_seq += MSS  # corrupt: bytes sent with no record
        with pytest.raises(InvariantViolation, match="byte_conservation"):
            sim.san.check_sender_ledger(sender)

    def mid_recovery_sender(self):
        """A legacy sender stopped while one lost segment is a hole
        under a SACKed run."""
        from repro.netsim.loss import PatternLoss
        sim = Simulator(seed=7, simsan=True)
        path = wired_path(sim, 20e6, 0.04, forward_loss=PatternLoss([5]))
        conn = Connection(sim, NewReno(), DelayedAck(),
                          forward_port=path.forward,
                          reverse_port=path.reverse)
        conn.start_transfer(200 * MSS)
        while not conn.sender._holes:
            assert sim.step()
        sim.san.check_sender_ledger(conn.sender)     # consistent so far
        return sim, conn.sender

    def test_scoreboard_index_stale_hole_list(self):
        sim, sender = self.mid_recovery_sender()
        sender._holes.pop()  # corrupt: a hole the RACK sweep never sees
        with pytest.raises(InvariantViolation, match="scoreboard_index"):
            sim.san.check_sender_ledger(sender)

    def test_scoreboard_index_sacked_coverage_drift(self):
        sim, sender = self.mid_recovery_sender()
        start, end = sender._sacked.ranges()[0]
        sender._sacked.add(end, end + MSS)  # corrupt: covers an un-SACKed record
        with pytest.raises(InvariantViolation, match="scoreboard_index"):
            sim.san.check_sender_ledger(sender)

    def test_rack_index_entry_carries_a_stale_send_time(self):
        from repro.transport.sender import IN_FLIGHT
        sim, sender = self.mid_recovery_sender()
        assert any(sender.records[seq].state == IN_FLIGHT
                   for seq in sender._holes)
        heaps = sender._rack_heaps
        kept = [list(heap) for heap in heaps]
        # corrupt: the index times the hole by a send it never made
        for heap in heaps:
            heap[:] = [(sent + 1.0, pkt_seq) for sent, pkt_seq in heap]
        with pytest.raises(InvariantViolation, match="rack_index"):
            sim.san.check_sender_ledger(sender)
        for heap, entries in zip(heaps, kept):
            heap[:] = entries
        sim.san.check_sender_ledger(sender)     # consistent again
        # corrupt: the governor holds back a hole that was never repaired
        sender.governor.on_retransmit(sender._holes[0], sim.now())
        with pytest.raises(InvariantViolation, match="rack_index"):
            sim.san.check_sender_ledger(sender)

    def test_stamp_store_lost_or_repeated_a_stamp(self):
        sim = Simulator(seed=7, simsan=True)
        conn = make_connection(sim, "tcp-tack", initial_rtt_s=0.04)
        path = wired_path(sim, 20e6, 0.04)
        conn.wire(path.forward, path.reverse)
        conn.start_transfer(400 * MSS)
        sim.run(until=0.3)
        sender, guard = conn.sender, conn.sender.guard
        sim.san.check_sender_ledger(sender)     # consistent so far
        stamps = guard._stamps
        assert len(stamps) > 10 and guard._stamp_head == 0
        guard._stamp_head = 1   # corrupt: a live stamp no echo may match
        with pytest.raises(InvariantViolation, match="stamp_store"):
            sim.san.check_sender_ledger(sender)
        guard._stamp_head = len(stamps) + 1     # corrupt: past the end
        with pytest.raises(InvariantViolation, match="stamp_store"):
            sim.san.check_sender_ledger(sender)
        guard._stamp_head = 0
        sim.san.check_sender_ledger(sender)     # consistent again
        stamps.insert(5, stamps[5])     # corrupt: a repeated stamp
        with pytest.raises(InvariantViolation, match="stamp_store"):
            sim.san.check_sender_ledger(sender)

    def backlogged_link(self):
        """A simsan-checked bulk flow stopped with packets waiting
        behind the one on its forward link's wire."""
        sim = Simulator(seed=7, simsan=True)
        conn = make_connection(sim, "tcp-bbr", initial_rtt_s=0.04)
        path = wired_path(sim, 20e6, 0.04, queue_bytes=30_000)
        conn.wire(path.forward, path.reverse)
        conn.start_transfer(400 * MSS)
        sim.run(until=0.2)
        link = path.forward_link
        while link.queue.settle(sim.now()) < 2 * MSS:  # a backlog
            sim.step()
        sim.san.check_link(link)            # consistent so far
        return sim, link

    def test_link_queue_counts_drift(self):
        sim, link = self.backlogged_link()
        queue = link.queue
        queue.waiting_bytes += 1            # corrupt: bytes not held
        with pytest.raises(InvariantViolation, match="link_queue"):
            sim.san.check_link(link)
        queue.waiting_bytes -= 1
        queue.enqueued += 1                 # corrupt: a packet unaccounted
        with pytest.raises(InvariantViolation, match="link_queue"):
            sim.san.check_link(link)
        queue.enqueued -= 1
        arrival = link._in_flight.pop()     # corrupt: an arrival lost
        with pytest.raises(InvariantViolation, match="link_queue"):
            sim.san.check_link(link)
        link._in_flight.append(arrival)
        sim.san.check_link(link)            # consistent again
        # corrupt: a packet admitted past the capacity, every count
        # kept consistent; the periodic audit finds it.
        giant = Packet(PacketType.DATA, 10**6)
        queue.waiting.append((link._busy_until, giant.size, giant, None,
                              None))
        queue.waiting_bytes += giant.size
        queue.enqueued += 1
        link.packets_sent += 1
        link.packets_lost += 1
        link.packets_corrupted += 1
        with pytest.raises(InvariantViolation, match="link_queue"):
            sim.run(until=sim.now() + 0.05)

    def test_link_queue_entry_timing_drift(self):
        """The starts of the waiting entries never decrease, and none
        is after the transmitter's ``busy_until``."""
        sim, link = self.backlogged_link()
        waiting = link.queue.waiting
        first, second = waiting[0], waiting[1]
        waiting[0], waiting[1] = second, first  # corrupt: out of order
        with pytest.raises(InvariantViolation, match="link_queue"):
            sim.san.check_link(link)
        waiting[0], waiting[1] = first, second
        sim.san.check_link(link)            # consistent again
        busy = link._busy_until
        link._busy_until = waiting[-1][0] - 1e-6    # corrupt: lagging
        with pytest.raises(InvariantViolation, match="link_queue"):
            sim.san.check_link(link)
        link._busy_until = busy
        sim.san.check_link(link)

    def test_gap_cache_reused_list_drifted(self):
        from repro.netsim.packet import make_data_packet
        from repro.transport.receiver import TransportReceiver
        sim = Simulator(seed=7, simsan=True)
        receiver = TransportReceiver(sim, DelayedAck())
        for i in (1, 3, 5):
            receiver.on_packet(make_data_packet(i * MSS, i + 1,
                                                payload_len=MSS))
        receiver.build_feedback(max_unacked_blocks=4)   # the walk
        receiver.build_feedback(max_unacked_blocks=4)   # reused, consistent
        receiver._gaps.pop()  # corrupt: a gap the reused list lost
        with pytest.raises(InvariantViolation, match="gap_cache"):
            receiver.build_feedback(max_unacked_blocks=4)
        receiver._gaps = receiver.intervals.gaps(6 * MSS, start=0)
        receiver.build_feedback(max_unacked_blocks=4)   # consistent again
        receiver._gap_first_seen[99 * MSS] = 0.0  # corrupt: a closed gap
        with pytest.raises(InvariantViolation, match="gap_cache"):
            receiver.build_feedback(max_unacked_blocks=4)

    def mid_flow_sender(self):
        """A legacy sender stopped with bytes in flight and its
        retransmission timeout armed."""
        sim = Simulator(seed=7, simsan=True)
        conn = make_conn(sim)
        conn.start_transfer(400 * MSS)
        sim.run(until=0.5)
        sender = conn.sender
        assert sender.in_flight > 0 and sim.due(sender._rto_timer) is not None
        return sim, sender

    def test_rto_armed_timer_dropped(self):
        sim, sender = self.mid_flow_sender()
        from repro.transport.feedback import AckFeedback
        fb = AckFeedback(cum_ack=sender.cum_acked, awnd=1 << 20)
        sim.san.on_sender_feedback(sender, fb)      # consistent so far
        armed = sender._rto_timer
        sender._rto_timer = None    # corrupt: bytes in flight, no timeout
        with pytest.raises(InvariantViolation, match="rto_armed"):
            sim.san.on_sender_feedback(sender, fb)
        sender._rto_timer = armed
        sim.cancel(armed)           # corrupt: the holder kept a dead event
        with pytest.raises(InvariantViolation, match="rto_armed"):
            sim.san.on_sender_feedback(sender, fb)

    def test_rto_armed_progress_left_the_deadline_behind(self):
        sim, sender = self.mid_flow_sender()
        from repro.transport.feedback import AckFeedback
        fb = AckFeedback(cum_ack=sender.cum_acked, awnd=1 << 20)
        # No progress: an older deadline is what is expected ...
        sim.san.on_sender_feedback(sender, fb, progress=False)
        assert sim.due(sender._rto_timer) < sim.now() + sender.rtt.rto()
        # ... but after progress it is due one RTO from now.
        with pytest.raises(InvariantViolation, match="rto_armed"):
            sim.san.on_sender_feedback(sender, fb, progress=True)
        sim.move(sender._rto_timer, sim.now() + sender.rtt.rto())
        sim.san.on_sender_feedback(sender, fb, progress=True)

    def test_rto_armed_holder_kept_a_fired_event(self):
        sim, sender = self.mid_flow_sender()
        from repro.transport.feedback import AckFeedback
        fb = AckFeedback(cum_ack=sender.cum_acked, awnd=1 << 20)
        stale = sim.call_at(sim.now(), lambda: None)
        sim.run(until=sim.now() + 0.001)
        sim.cancel(sender._rto_timer)
        sender._rto_timer = stale   # corrupt: fired, so moving it is lost
        with pytest.raises(InvariantViolation, match="rto_armed"):
            sim.san.on_sender_feedback(sender, fb)

    def test_rtt_min_window(self):
        sim, conn = self.setup_conn()
        sender = conn.sender
        state = sim.san._senders[sender]
        assert state.rtt_samples, "transfer should have produced samples"
        # Corrupt: inflate every estimator so the reported windowed min
        # exceeds the smallest raw sample the sanitizer witnessed.
        floor = min(s for _, s in state.rtt_samples)
        bad = floor * 10.0
        from repro.transport.feedback import AckFeedback
        sender.min_rtt_legacy._filter._samples.clear()
        sender.min_rtt_legacy._filter.update(bad, sim.now())
        fb = AckFeedback(cum_ack=sender.cum_acked, awnd=1 << 20)
        with pytest.raises(InvariantViolation, match="rtt_min_window"):
            sim.san.on_sender_feedback(sender, fb)

    def test_rtt_sample_must_be_positive(self):
        sim, conn = self.setup_conn()
        with pytest.raises(InvariantViolation, match="rtt_min_window"):
            sim.san.on_rtt_sample(conn.sender, -0.001, sim.now())

    def test_stream_conservation(self):
        sim, conn = self.setup_conn()
        receiver = conn.receiver
        # Corrupt: receiver claims delivery of bytes never injected.
        receiver.delivered_ptr = conn.sender.next_seq + 10 * MSS
        with pytest.raises(InvariantViolation, match="stream_conservation"):
            sim.san.on_receiver_data(receiver)

    def test_interval_count_counter_drift(self):
        sim, conn = self.setup_conn()
        receiver = conn.receiver
        receiver.intervals._covered += MSS  # corrupt: counter ahead of ranges
        with pytest.raises(InvariantViolation, match="interval_count"):
            sim.san.on_receiver_data(receiver)

    def test_receiver_delivered_ptr_monotone(self):
        sim, conn = self.setup_conn()
        receiver = conn.receiver
        sim.san.on_receiver_data(receiver)  # snapshot current pointer
        receiver.delivered_ptr -= 1
        with pytest.raises(InvariantViolation, match="cum_ack_monotone"):
            sim.san.on_receiver_data(receiver)

    def test_doctor_state_handler_wrongly_marked_cannot_reclassify(
            self, monkeypatch):
        """A vocabulary entry marked "cannot change the class" whose
        handler does: the fold skips the re-classification, and the
        sanitized doctor catches it on that very event."""
        from repro.diagnose import FlowDoctor
        from repro.diagnose.engine import VOCABULARY
        handler, marked = VOCABULARY["transport"]["limited"]
        assert marked
        monkeypatch.setitem(VOCABULARY["transport"], "limited",
                            (handler, False))
        sim = Simulator(seed=7, simsan=True, diagnosis=FlowDoctor())
        conn = make_conn(sim)
        conn.start_transfer(50 * MSS)
        with pytest.raises(InvariantViolation, match="doctor_state") as exc:
            sim.run(until=5.0)
        assert exc.value.invariant == "doctor_state"
        assert exc.value.flow_id == conn.sender.flow_id
        assert "classify to" in exc.value.detail


class TestCleanRunsStayClean:
    @pytest.mark.parametrize("receiver_driven", [False, True])
    def test_transfer_completes_under_sanitizer(self, receiver_driven):
        sim = Simulator(seed=11, simsan=True)
        conn = make_conn(sim, receiver_driven=receiver_driven,
                         timing_mode="advanced" if receiver_driven else "legacy")
        run_transfer(sim, conn)
        assert sim.san.checks_run > 100

    def test_lossy_path_under_sanitizer(self):
        from repro.netsim.loss import BernoulliLoss
        sim = Simulator(seed=3, simsan=True)
        path = wired_path(sim, 20e6, 0.04,
                          forward_loss=BernoulliLoss(0.02, sim.fork_rng("l")))
        conn = Connection(sim, NewReno(), DelayedAck(),
                          forward_port=path.forward,
                          reverse_port=path.reverse)
        run_transfer(sim, conn, until=20.0)

    def test_sanitizer_off_leaves_no_hooks(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIMSAN", raising=False)
        sim = Simulator(seed=5)
        conn = make_conn(sim)
        assert conn.sender._san is None
        assert conn.receiver._san is None
        run_transfer(sim, conn)
