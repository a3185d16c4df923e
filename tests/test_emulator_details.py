"""Extra emulator and queue behaviors: queueing delay, ordering under
load, and the path-handle helpers."""

import pytest

from repro.netsim.emulator import EmulatedPath, PathConfig
from repro.netsim.packet import make_data_packet
from repro.netsim.paths import wired_path


class TestQueueingDelay:
    def test_delay_grows_with_backlog(self, sim):
        """Packets behind a backlog arrive later by exactly their
        serialization share."""
        path = EmulatedPath(sim, PathConfig(12e6, 0.0, queue_bytes=10_000_000))
        arrivals = []
        path.connect(lambda p: arrivals.append((p.pkt_seq, sim.now())),
                     lambda p: None)
        for i in range(20):
            path.forward.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        per_pkt = 1518 * 8 / 12e6
        for (seq_a, t_a), (seq_b, t_b) in zip(arrivals, arrivals[1:]):
            assert t_b - t_a == pytest.approx(per_pkt)

    def test_fifo_order_preserved(self, sim):
        path = EmulatedPath(sim, PathConfig(5e6, 0.01, queue_bytes=10_000_000))
        order = []
        path.connect(lambda p: order.append(p.pkt_seq), lambda p: None)
        for i in range(50):
            path.forward.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        assert order == sorted(order)

    def test_overflow_drops_tail_not_head(self, sim):
        path = EmulatedPath(sim, PathConfig(1e6, 0.0, queue_bytes=6_000))
        got = []
        path.connect(lambda p: got.append(p.pkt_seq), lambda p: None)
        for i in range(10):
            path.forward.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        # Whatever survived is a prefix-ordered subset; the earliest
        # enqueued packets survive (droptail).
        assert got == sorted(got)
        assert got[0] == 1


class TestPathHandleHelpers:
    def test_wired_path_exposes_wan(self, sim):
        handle = wired_path(sim, 10e6, 0.02)
        assert handle.wan is not None
        assert handle.medium is None

    def test_min_queue_floor(self, sim):
        # Tiny bdp paths still get a usable queue (floor 64 kB).
        handle = wired_path(sim, 1e6, 0.001)
        assert handle.wan.forward.queue.capacity_bytes >= 64 * 1024

    def test_observed_loss_rate_counter(self, sim):
        from repro.netsim.loss import BernoulliLoss

        handle = wired_path(
            sim, 100e6, 0.0,
            queue_bytes=10_000_000,  # no overflow: isolate model drops
            forward_loss=BernoulliLoss(0.5, sim.fork_rng("x")),
        )
        handle.forward.connect(lambda p: None)
        for i in range(2000):
            handle.forward.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        link = handle.forward
        assert link.packets_lost / link.packets_sent == pytest.approx(
            0.5, abs=0.05)
