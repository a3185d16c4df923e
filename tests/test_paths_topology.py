"""Unit tests for topology composition (paths, chains, demux)."""

import pytest

from repro.core.flavors import make_connection
from repro.netsim.demux import FlowDemux, share_path
from repro.netsim.emulator import EmulatedPath, PathConfig
from repro.netsim.packet import make_ack_packet, make_data_packet
from repro.netsim.paths import (
    ChainPort,
    WirelessHop,
    hybrid_path,
    wired_path,
    wlan_path,
)
from repro.netsim.pipe import Pipe


class TestChainPort:
    def test_two_stage_chain_delivers(self, sim):
        got = []
        chain = ChainPort(Pipe(sim, 0.01), Pipe(sim, 0.02))
        chain.connect(lambda p: got.append(sim.now()))
        chain.send(make_ack_packet())
        sim.run()
        assert got == [pytest.approx(0.03)]

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainPort()


class TestWirelessHop:
    def test_hop_routes_tx_to_rx(self, sim):
        handle = wlan_path(sim, "802.11g")
        ap, sta = handle.stations
        hop = WirelessHop(ap, sta)
        got = []
        hop.connect(got.append)
        hop.send(make_data_packet(0, 1))
        sim.run(until=0.1)
        assert len(got) == 1


class TestWiredPath:
    def test_default_queue_sized_to_bdp(self, sim):
        handle = wired_path(sim, 80e6, 0.1)
        assert handle.wan.forward.queue.capacity_bytes == int(80e6 * 0.1 / 8)

    def test_loss_parameters_applied(self, sim):
        handle = wired_path(sim, 1e9, 0.01, data_loss=1.0)
        got = []
        handle.forward.connect(got.append)
        handle.forward.send(make_data_packet(0, 1))
        sim.run()
        assert got == []


class TestWlanPath:
    def test_extra_rtt_adds_latency(self, sim):
        handle = wlan_path(sim, "802.11g", extra_rtt_s=0.1)
        got = []
        handle.forward.connect(lambda p: got.append(sim.now()))
        handle.forward.send(make_data_packet(0, 1))
        sim.run(until=1.0)
        assert got[0] > 0.05  # one-way pipe delay dominates

    def test_medium_exposed(self, sim):
        handle = wlan_path(sim, "802.11n")
        assert handle.medium is not None
        assert handle.stations is not None


class TestHybridPath:
    def test_end_to_end_latency_includes_wan(self, sim):
        handle = hybrid_path(sim, "802.11g", wan_rtt_s=0.2)
        got = []
        handle.forward.connect(lambda p: got.append(sim.now()))
        handle.forward.send(make_data_packet(0, 1))
        sim.run(until=1.0)
        assert got[0] > 0.1

    def test_reverse_direction_works(self, sim):
        handle = hybrid_path(sim, "802.11g", wan_rtt_s=0.02)
        got = []
        handle.reverse.connect(lambda p: got.append(sim.now()))
        handle.reverse.send(make_ack_packet())
        sim.run(until=1.0)
        assert len(got) == 1


class TestDemux:
    def test_routes_by_flow_id(self, sim):
        demux = FlowDemux()
        a, b = [], []
        demux.register(0, a.append)
        demux.register(1, b.append)
        demux(make_data_packet(0, 1, flow_id=0))
        demux(make_data_packet(0, 1, flow_id=1))
        demux(make_data_packet(0, 1, flow_id=9))
        assert len(a) == 1 and len(b) == 1
        assert demux.unrouted == 1

    def test_two_flows_share_bottleneck(self, sim):
        wan = EmulatedPath(sim, PathConfig(20e6, 0.04, 200_000))
        ports = share_path(wan, 2)
        flows = []
        for flow_id, (fwd, rev) in enumerate(ports):
            conn = make_connection(sim, "tcp-tack", flow_id=flow_id,
                                   initial_rtt_s=0.04)
            conn.wire(fwd, rev)
            flows.append(conn)
        for conn in flows:
            conn.start_bulk()
        sim.run(until=10.0)
        total = sum(c.receiver.stats.bytes_delivered for c in flows) * 8 / 10.0
        # Together they saturate the bottleneck...
        assert total > 0.8 * 20e6
        # ...and each flow makes real progress.
        for conn in flows:
            assert conn.receiver.stats.bytes_delivered * 8 / 10.0 > 2e6
