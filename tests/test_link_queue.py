"""Unit tests for queues, links, pipes, and the WAN emulator."""

import pytest

from repro.netsim.emulator import EmulatedPath, PathConfig
from repro.netsim.link import Link, LinkConfig
from repro.netsim.loss import BernoulliLoss, PatternLoss
from repro.netsim.packet import make_ack_packet, make_data_packet
from repro.netsim.pipe import Pipe
from repro.netsim.queue import DropTailQueue, REDQueue


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue()
        a, b = make_data_packet(0, 1), make_data_packet(1500, 2)
        q.try_enqueue(a)
        q.try_enqueue(b)
        assert q.dequeue() is a
        assert q.dequeue() is b
        assert q.dequeue() is None

    def test_byte_capacity_enforced(self):
        q = DropTailQueue(capacity_bytes=3000)
        assert q.try_enqueue(make_data_packet(0, 1))
        assert not q.try_enqueue(make_data_packet(1500, 2))
        assert q.drops == 1

    def test_bytes_tracked(self):
        q = DropTailQueue()
        q.try_enqueue(make_data_packet(0, 1))
        assert q.bytes_queued == 1518
        q.dequeue()
        assert q.bytes_queued == 0

    def test_peak_tracked(self):
        q = DropTailQueue()
        for i in range(3):
            q.try_enqueue(make_data_packet(i * 1500, i + 1))
        q.dequeue()
        assert q.peak_bytes == 3 * 1518

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_bytes=0)

    def test_overflow_accounting(self):
        # A rejected packet must not perturb any occupancy accounting:
        # not enqueued, not counted in bytes/peak, and the queue still
        # accepts a later packet that fits.
        q = DropTailQueue(capacity_bytes=3200)
        assert q.try_enqueue(make_data_packet(0, 1))        # 1518B
        assert q.try_enqueue(make_data_packet(1500, 2))     # 3036B
        assert not q.try_enqueue(make_data_packet(3000, 3))  # would be 4554B
        assert q.drops == 1
        assert q.enqueued == 2
        assert q.bytes_queued == 2 * 1518
        assert q.peak_bytes == 2 * 1518
        assert len(q) == 2
        q.dequeue()
        ack = make_ack_packet()  # small enough to fit now
        assert q.try_enqueue(ack)
        assert q.enqueued == 3
        assert q.drops == 1


class TestRed:
    def test_no_drops_below_min_thresh(self):
        import random
        q = REDQueue(capacity_bytes=100_000, min_thresh=50_000,
                     max_thresh=80_000, rng=random.Random(1))
        for i in range(30):
            assert q.try_enqueue(make_data_packet(i * 1500, i + 1))
        assert q.drops == 0

    def test_probabilistic_drops_between_thresholds(self):
        import random
        q = REDQueue(capacity_bytes=10_000_000, min_thresh=10_000,
                     max_thresh=20_000, max_p=1.0, rng=random.Random(1))
        dropped = 0
        for i in range(100):
            if not q.try_enqueue(make_data_packet(i * 1500, i + 1)):
                dropped += 1
        assert dropped > 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            REDQueue(capacity_bytes=1000, min_thresh=500, max_thresh=400)


class TestLink:
    def test_serialization_plus_propagation(self, sim):
        got = []
        link = Link(sim, LinkConfig(rate_bps=12e6, delay_s=0.01),
                    sink=lambda p: got.append(sim.now()))
        link.send(make_data_packet(0, 1))  # 1518B at 12Mbps = 1.012ms
        sim.run()
        assert got[0] == pytest.approx(0.001012 + 0.01)

    def test_back_to_back_serialization(self, sim):
        got = []
        link = Link(sim, LinkConfig(rate_bps=12e6, delay_s=0.0),
                    sink=lambda p: got.append(sim.now()))
        for i in range(3):
            link.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        spacing = got[1] - got[0]
        assert spacing == pytest.approx(1518 * 8 / 12e6)

    def test_rate_enforced(self, sim):
        got_bytes = [0]
        link = Link(sim, LinkConfig(rate_bps=10e6, delay_s=0.0),
                    sink=lambda p: got_bytes.__setitem__(0, got_bytes[0] + p.size))
        for i in range(1000):
            link.send(make_data_packet(i * 1500, i + 1))
        sim.run(until=0.5)
        assert got_bytes[0] * 8 <= 10e6 * 0.5 * 1.01

    def test_queue_overflow_drops(self, sim):
        link = Link(sim, LinkConfig(rate_bps=1e6, delay_s=0.0, queue_bytes=5000))
        link.connect(lambda p: None)
        for i in range(10):
            link.send(make_data_packet(i * 1500, i + 1))
        assert link.packets_lost > 0

    def test_ingress_loss_model(self, sim):
        link = Link(
            sim,
            LinkConfig(rate_bps=1e9, delay_s=0.0, loss=PatternLoss([1])),
        )
        got = []
        link.connect(got.append)
        for i in range(3):
            link.send(make_data_packet(i * 1500, i + 1))
        sim.run()
        assert len(got) == 2
        assert link.loss_rate_observed == pytest.approx(1 / 3)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=0)
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=1e6, delay_s=-1)


class TestPipe:
    def test_fixed_delay(self, sim):
        got = []
        pipe = Pipe(sim, delay_s=0.123, sink=lambda p: got.append(sim.now()))
        pipe.send(make_ack_packet())
        sim.run()
        assert got == [pytest.approx(0.123)]

    def test_loss_model_applies(self, sim):
        pipe = Pipe(sim, delay_s=0.0, loss=PatternLoss([0]))
        got = []
        pipe.connect(got.append)
        pipe.send(make_ack_packet())
        pipe.send(make_ack_packet())
        sim.run()
        assert len(got) == 1
        assert pipe.packets_lost == 1

    def test_delay_is_fixed_at_construction(self, sim):
        """Delivery pairs events with packets by position, which only
        holds while every packet waits the same time."""
        pipe = Pipe(sim, delay_s=0.01)
        assert pipe.delay_s == pytest.approx(0.01)
        with pytest.raises(AttributeError):
            pipe.delay_s = 0.5
        with pytest.raises(ValueError):
            Pipe(sim, delay_s=float("nan"))

    def test_fifo_delivery_with_loss_model_and_counters(self, sim):
        class EveryThird:
            def __init__(self):
                self.asked = []

            def should_drop(self, packet, now):
                self.asked.append((packet.uid, now))
                return len(self.asked) % 3 == 0

        loss = EveryThird()
        pipe = Pipe(sim, delay_s=0.01, loss=loss)
        got = []
        pipe.connect(lambda p: got.append((p.uid, sim.now())))
        sent = [make_ack_packet() for _ in range(9)]
        verdicts = []
        for k, packet in enumerate(sent):
            sim.run(until=0.001 * k)
            verdicts.append(pipe.send(packet))
        assert verdicts == [True, True, False] * 3
        sim.run()
        # The model saw every packet, at its send time; survivors come
        # out in order, each exactly one delay later, one hop older.
        assert loss.asked == [(p.uid, pytest.approx(0.001 * k))
                              for k, p in enumerate(sent)]
        assert got == [(p.uid, pytest.approx(0.001 * k + 0.01))
                       for k, p in enumerate(sent) if k % 3 != 2]
        assert (pipe.packets_sent, pipe.packets_lost,
                pipe.packets_delivered) == (9, 3, 6)
        assert [p.hops for p in sent] == [1, 1, 0] * 3

    def test_no_sink_is_tolerated(self, sim):
        pipe = Pipe(sim, delay_s=0.01)
        packet = make_ack_packet()
        assert pipe.send(packet) is True
        sim.run()
        assert pipe.packets_delivered == 1 and packet.hops == 1
        assert sim.pending() == 0


class TestEmulatedPath:
    def test_rtt_split_between_directions(self, sim):
        path = EmulatedPath(sim, PathConfig(rate_bps=1e9, rtt_s=0.2))
        fwd_t, rev_t = [], []
        path.connect(lambda p: fwd_t.append(sim.now()),
                     lambda p: rev_t.append(sim.now()))
        path.send_forward(make_data_packet(0, 1))
        path.send_reverse(make_ack_packet())
        sim.run()
        assert fwd_t[0] == pytest.approx(0.1, abs=1e-3)
        assert rev_t[0] == pytest.approx(0.1, abs=1e-3)

    def test_asymmetric_loss(self, sim):
        path = EmulatedPath(
            sim, PathConfig(rate_bps=1e9, rtt_s=0.01, data_loss=1.0, ack_loss=0.0)
        )
        fwd, rev = [], []
        path.connect(fwd.append, rev.append)
        path.send_forward(make_data_packet(0, 1))
        path.send_reverse(make_ack_packet())
        sim.run()
        assert fwd == []
        assert len(rev) == 1

    def test_bdp_helper(self):
        cfg = PathConfig(rate_bps=100e6, rtt_s=0.2)
        assert cfg.bdp_bytes() == int(100e6 * 0.2 / 8)

    def test_loss_model_override(self, sim):
        path = EmulatedPath(
            sim,
            PathConfig(rate_bps=1e9, rtt_s=0.01),
            forward_loss=BernoulliLoss(1.0, 1),
        )
        fwd = []
        path.connect(fwd.append, lambda p: None)
        path.send_forward(make_data_packet(0, 1))
        sim.run()
        assert fwd == []
