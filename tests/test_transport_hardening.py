"""Transport failure handling: structured aborts, capped backoff,
zero-window probes, and TACK's graceful degradation under ACK-path
loss."""

import pytest

from repro.ack import TackPolicy
from repro.cc import BBR
from repro.core.params import TackParams
from repro.netsim.loss import BernoulliLoss
from repro.netsim.packet import HEADER_SIZE, MSS, Packet, PacketType
from repro.netsim.paths import wired_path
from repro.transport.connection import Connection, ConnectionConfig
from repro.transport.errors import ConnectionAborted, abort_result

from conftest import build_wired_connection


def build_custom_connection(sim, rate_bps=20e6, rtt_s=0.04, **cfg_kwargs):
    """Connection with direct access to ConnectionConfig knobs that
    ``make_connection`` does not expose (buffer drain, retry caps)."""
    path = wired_path(sim, rate_bps, rtt_s)
    cc = BBR()
    cc._initial_rtt_s = rtt_s
    config = ConnectionConfig(receiver_driven=True,
                              timing_mode="advanced", **cfg_kwargs)
    conn = Connection(sim, cc, TackPolicy(TackParams()), config)
    conn.wire(path.forward, path.reverse)
    return conn, path


class TestHandshakeAbort:
    def test_total_loss_ends_in_structured_abort(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-bbr", data_loss=1.0)
        conn.start_transfer(15_000)
        sim.run(until=1200.0)
        assert not conn.completed
        info = conn.aborted
        assert info is not None
        assert info.reason == "handshake_timeout"
        assert info.attempts == conn.sender.max_syn_retries + 1
        assert conn.sender.stats.handshake_retries == conn.sender.max_syn_retries
        # Abort tears everything down: the event loop must go quiet.
        sim.run(until=info.at_s + 120.0)
        assert sim.pending() == 0

    def test_retry_backoff_is_exponential(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-bbr", data_loss=1.0)
        conn.start_transfer(15_000)
        sim.run(until=1200.0)
        # Seven attempts at a *fixed* initial RTO would give up after
        # ~7s; the doubling schedule pushes the abort far beyond that.
        linear = (conn.sender.max_syn_retries + 1) * conn.config.initial_rto_s
        assert conn.aborted.at_s > 2 * linear

    def test_raise_if_aborted_and_summary(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-bbr", data_loss=1.0)
        conn.start_transfer(15_000)
        sim.run(until=1200.0)
        with pytest.raises(ConnectionAborted) as exc_info:
            conn.raise_if_aborted()
        assert exc_info.value.reason == "handshake_timeout"
        assert exc_info.value.info is conn.aborted
        s = conn.summary()
        assert s["aborted"]["reason"] == "handshake_timeout"
        assert s["completed"] is False

    def test_clean_connection_never_aborts(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack")
        conn.start_transfer(50 * 1500)
        sim.run(until=5.0)
        assert conn.completed
        assert conn.aborted is None
        conn.raise_if_aborted()  # no-op
        assert conn.summary()["aborted"] is None
        assert abort_result(None) is None


class TestRtoExhaustion:
    def test_mid_transfer_blackout_aborts(self, sim):
        conn, path = build_wired_connection(sim, "tcp-bbr", rate_bps=20e6,
                                            rtt_s=0.04)
        conn.start_transfer(4_000_000)
        # Kill the data path for good once the transfer is in flight.
        sim.call_in(0.5, lambda: path.forward_link.set_loss(
            BernoulliLoss(1.0, 7)))
        sim.run(until=2400.0)
        info = conn.aborted
        assert info is not None
        assert info.reason == "rto_exhausted"
        assert info.attempts == conn.sender.max_rto_retries + 1
        # Degraded, not crashed: partial delivery happened before the
        # blackout and the abort records where the stall began.
        assert 0 < conn.receiver.stats.bytes_delivered < 4_000_000
        sim.run(until=info.at_s + 120.0)
        assert sim.pending() == 0

    def test_rto_recovers_from_transient_blackout(self, sim):
        conn, path = build_wired_connection(sim, "tcp-bbr", rate_bps=20e6,
                                            rtt_s=0.04)
        conn.start_transfer(1_500_000)

        def blackout():
            prev = path.forward_link.set_loss(BernoulliLoss(1.0, 7))
            sim.call_in(3.0, lambda: path.forward_link.set_loss(prev))

        sim.call_in(0.5, blackout)
        sim.run(until=120.0)
        assert conn.completed
        assert conn.aborted is None
        assert conn.sender.stats.rtos > 0


class TestPersistProbes:
    def test_zero_window_exhaustion_aborts(self, sim):
        conn, _ = build_custom_connection(
            sim, rcv_buffer_bytes=30 * 1500, auto_drain=False,
            max_persist_retries=4)
        conn.start_transfer(1_000_000)
        sim.run(until=600.0)
        info = conn.aborted
        assert info is not None
        assert info.reason == "persist_exhausted"
        assert conn.sender.stats.persist_probes > 0
        sim.run(until=info.at_s + 120.0)
        assert sim.pending() == 0

    def test_window_reopen_resumes_transfer(self, sim):
        conn, _ = build_custom_connection(
            sim, rcv_buffer_bytes=30 * 1500, auto_drain=False)
        conn.start_transfer(200 * 1500)
        # An application that reads slowly but steadily: the window
        # keeps reopening, so persist probes bridge stalls instead of
        # aborting.
        def drain():
            conn.receiver.read(15 * 1500)
            if not conn.completed:
                sim.call_in(0.5, drain)
        sim.call_in(1.0, drain)
        sim.run(until=120.0)
        assert conn.aborted is None
        assert conn.completed


class TestTackDegradation:
    def test_clock_densifies_under_ack_path_loss(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack")
        policy = conn.receiver.policy
        base = policy.periodic_interval()
        conn.receiver.peer_ack_loss_rate = 0.5
        degraded = policy.periodic_interval()
        assert degraded == pytest.approx(base / 2.0)
        assert policy._degraded

    def test_densification_is_capped(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack")
        policy = conn.receiver.policy
        base = policy.periodic_interval()
        conn.receiver.peer_ack_loss_rate = 0.99
        assert policy.periodic_interval() == pytest.approx(
            base / policy.params.max_degrade_factor)

    def test_below_threshold_keeps_eq3_clock(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack")
        policy = conn.receiver.policy
        base = policy.periodic_interval()
        conn.receiver.peer_ack_loss_rate = policy.params.degrade_ack_loss
        assert policy.periodic_interval() == pytest.approx(base)
        assert not policy._degraded

    def test_poor_mode_never_degrades(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack-poor")
        policy = conn.receiver.policy
        base = policy.periodic_interval()
        conn.receiver.peer_ack_loss_rate = 0.6
        # Fig. 5(b) baseline: the literal Eq. (3) clock, regardless of
        # ACK-path conditions.
        assert policy.periodic_interval() == pytest.approx(base)
        assert not policy._degraded

    def test_degrade_transition_emits_telemetry(self):
        from repro.netsim.engine import Simulator
        from repro.telemetry import TraceCollector
        sim = Simulator(seed=3, telemetry=TraceCollector())
        conn, _ = build_wired_connection(sim, "tcp-tack")
        policy = conn.receiver.policy
        conn.receiver.peer_ack_loss_rate = 0.5
        policy.periodic_interval()
        conn.receiver.peer_ack_loss_rate = 0.0
        policy.periodic_interval()
        names = [(e.name, e.fields.get("on")) for e in
                 sim.telemetry.events() if e.category == "ack"
                 and e.name == "degrade"]
        assert names == [("degrade", True), ("degrade", False)]

    def test_degrade_params_validated(self):
        with pytest.raises(ValueError):
            TackParams(degrade_ack_loss=0.0)
        with pytest.raises(ValueError):
            TackParams(degrade_ack_loss=1.5)
        with pytest.raises(ValueError):
            TackParams(max_degrade_factor=0.5)

    def test_degrade_params_survive_copy(self):
        p = TackParams(degrade_ack_loss=0.2, max_degrade_factor=3.0)
        q = p.copy(beta=4.0)
        assert q.degrade_ack_loss == 0.2
        assert q.max_degrade_factor == 3.0


class TestAckPathLossEndToEnd:
    """rho' comes from feedback-sequence gaps, so it must be exactly
    zero on a clean path (including app-limited flows, where the old
    expected-count estimator hallucinated ~50% loss) and track real
    reverse-path drops."""

    def _run(self, reverse_loss=None):
        from repro.netsim.engine import Simulator
        sim = Simulator(seed=1)
        conn, path = build_wired_connection(sim, "tcp-tack")
        if reverse_loss is not None:
            path.reverse_link.set_loss(
                BernoulliLoss(reverse_loss, sim.fork_rng("revloss")))
        conn.start_transfer(2_000_000)
        sim.run(until=30.0)
        return conn

    def test_clean_path_reports_zero_ack_loss(self):
        conn = self._run()
        assert conn.completed
        assert conn.sender.ack_loss.loss_rate == 0.0
        assert not conn.receiver.policy._degraded

    def test_reverse_path_loss_drives_degradation(self):
        conn = self._run(reverse_loss=0.5)
        assert conn.completed
        assert conn.sender.ack_loss.loss_rate == pytest.approx(0.5, abs=0.15)
        assert conn.receiver.policy._degraded


class TestMalformedData:
    """A DATA frame without ``seq`` or ``pkt_seq`` cannot be placed in
    the stream: the receiver drops and counts it, and the flow goes on
    (it used to fail an ``assert`` inside the event loop, and raise a
    ``TypeError`` under ``python -O``)."""

    @pytest.mark.parametrize("scheme", ["tcp-tack", "tcp-bbr"])
    def test_injected_mid_flow_the_flow_still_delivers_in_full(self, sim,
                                                                scheme):
        conn, path = build_wired_connection(sim, scheme)
        conn.start_transfer(300 * MSS)
        sim.run(until=0.1)
        assert 0 < conn.receiver.stats.bytes_delivered < 300 * MSS
        for seq, pkt_seq in ((None, 10 ** 6), (0, None), (None, None)):
            path.forward.send(Packet(PacketType.DATA, size=HEADER_SIZE + MSS,
                                     seq=seq, pkt_seq=pkt_seq,
                                     payload_len=MSS, flow_id=0))
        sim.run(until=10.0)
        assert conn.completed and conn.aborted is None
        assert conn.receiver.stats.bytes_delivered == 300 * MSS
        assert conn.receiver.stats.malformed_packets == 3
