"""Topology composition: chain links, pipes, and WLAN hops into ports.

Every experiment in the paper is one of three shapes:

* **wired** -- two endpoints across the Attero emulator
  (:func:`wired_path`);
* **WLAN-only** -- endpoints on two stations of one collision domain,
  optionally with extra end-to-end latency (:func:`wlan_path`);
* **hybrid** -- a wired WAN segment feeding an access point that
  forwards onto the WLAN (:func:`hybrid_path`, paper Fig. 12).

A *port* is anything with ``send(packet)`` and ``connect(sink)``;
:class:`ChainPort` composes ports in series and
:class:`WirelessHop` adapts a (transmitting station, receiving
station) pair into a single port.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.emulator import EmulatedPath, PathConfig
from repro.netsim.engine import Simulator
from repro.netsim.loss import LossModel
from repro.netsim.packet import Packet
from repro.netsim.pipe import Pipe
from repro.wlan.medium import WirelessMedium
from repro.wlan.phy import PhyProfile, get_profile
from repro.wlan.station import Station, wireless_pair


class WirelessHop:
    """Port over one WLAN hop: transmit from ``tx`` (``send`` is the
    transmitting station's own ``send``), deliver at ``rx``."""

    def __init__(self, tx: Station, rx: Station):
        self.tx = tx
        self.rx = rx
        self.send = tx.send

    def connect(self, sink) -> None:
        self.rx.connect(sink)


class ChainPort:
    """Ports composed in series: ``send`` is the first stage's own
    ``send``, each stage's delivery feeds the next stage's ``send``,
    and ``connect`` binds the final sink."""

    def __init__(self, *stages):
        if not stages:
            raise ValueError("a chain needs at least one stage")
        self.stages = stages
        self.send = stages[0].send
        for upstream, downstream in zip(stages, stages[1:]):
            upstream.connect(downstream.send)

    def connect(self, sink) -> None:
        self.stages[-1].connect(sink)


class PathHandle:
    """What a path builder returns: the two ports plus the pieces a
    benchmark may want to introspect (medium stats, link counters)."""

    def __init__(self, forward, reverse, medium: Optional[WirelessMedium] = None,
                 wan: Optional[EmulatedPath] = None,
                 stations: Optional[tuple[Station, Station]] = None):
        self.forward = forward
        self.reverse = reverse
        self.medium = medium
        self.wan = wan
        self.stations = stations

    # -- chaos-plane access --------------------------------------------
    # The injector mutates *links* (rate/delay/loss/impairments), not
    # ports; on wired and hybrid topologies those are the WAN pair.
    @property
    def forward_link(self):
        """The mutable data-direction :class:`~repro.netsim.link.Link`,
        or ``None`` on a pure-WLAN path."""
        return self.wan.forward if self.wan is not None else None

    @property
    def reverse_link(self):
        """The mutable ACK-direction link, or ``None`` (pure WLAN)."""
        return self.wan.reverse if self.wan is not None else None


def wired_path(
    sim: Simulator,
    rate_bps: float,
    rtt_s: float,
    queue_bytes: Optional[int] = None,
    data_loss: float = 0.0,
    ack_loss: float = 0.0,
    forward_loss: Optional[LossModel] = None,
    reverse_loss: Optional[LossModel] = None,
) -> PathHandle:
    """Two endpoints across the software Attero (paper S6.1)."""
    if queue_bytes is None:
        queue_bytes = max(int(rate_bps * rtt_s / 8.0), 64 * 1024)
    wan = EmulatedPath(
        sim,
        PathConfig(rate_bps, rtt_s, queue_bytes, data_loss, ack_loss),
        forward_loss=forward_loss,
        reverse_loss=reverse_loss,
    )
    return PathHandle(wan.forward, wan.reverse, wan=wan)


def _make_wlan(
    sim: Simulator,
    phy: "str | PhyProfile",
    queue_frames: int,
    aggregate: bool,
    per_mpdu_error_rate: float,
    ingress_delay_s: float = 0.0,
) -> tuple[WirelessMedium, Station, Station]:
    profile = get_profile(phy) if isinstance(phy, str) else phy
    medium = WirelessMedium(sim, profile, per_mpdu_error_rate)
    return (medium, *wireless_pair(medium, "ap", "sta", queue_frames,
                                   aggregate, ingress_delay_s))


def wlan_path(
    sim: Simulator,
    phy: "str | PhyProfile" = "802.11n",
    extra_rtt_s: float = 0.0,
    queue_frames: int = 1024,
    aggregate: bool = True,
    per_mpdu_error_rate: float = 0.0,
) -> PathHandle:
    """Endpoints across one WLAN hop (downlink data, uplink ACKs).

    ``extra_rtt_s`` adds symmetric end-to-end latency (the paper's
    RTT = 10/80/200 ms settings): half as the AP's ingress delay, half
    as a lossless delay pipe behind the uplink hop.
    """
    owd = extra_rtt_s / 2.0
    medium, ap, sta = _make_wlan(sim, phy, queue_frames, aggregate,
                                 per_mpdu_error_rate, owd)
    forward = WirelessHop(ap, sta)
    reverse = WirelessHop(sta, ap)
    if owd > 0:
        reverse = ChainPort(reverse, Pipe(sim, owd))
    return PathHandle(forward, reverse, medium=medium, stations=(ap, sta))


def multi_client_wlan(
    sim: Simulator,
    n_clients: int,
    phy: "str | PhyProfile" = "802.11n",
    extra_rtt_s: float = 0.0,
    queue_frames: int = 2048,
) -> list[PathHandle]:
    """One AP serving ``n_clients`` stations in a single collision
    domain (the paper's crowded-room motivation).

    Returns one :class:`PathHandle` per client; flow ``i`` must stamp
    ``flow_id=i`` on its packets so the AP routes its downlink frames
    to the right station.  All handles share the same medium object.
    """
    from repro.netsim.demux import FlowDemux

    if n_clients < 1:
        raise ValueError(f"need at least one client, got {n_clients}")
    profile = get_profile(phy) if isinstance(phy, str) else phy
    medium = WirelessMedium(sim, profile)
    owd = extra_rtt_s / 2.0
    ap = Station(medium, "ap", queue_frames=queue_frames, ingress_delay_s=owd)
    medium.register(ap)
    # Uplink frames from every client land at the AP; a demux fans
    # them out to the right flow's sender.
    uplink_demux = FlowDemux()
    ap.connect(uplink_demux)
    peer_map: dict[int, Station] = {}
    handles: list[PathHandle] = []

    class _UplinkPort:
        """Per-flow reverse port: client station in, demux out."""

        def __init__(self, client: Station, flow_id: int):
            self.client = client
            self.flow_id = flow_id

        def send(self, packet: Packet) -> bool:
            return self.client.send(packet)

        def connect(self, sink) -> None:
            if owd > 0:
                pipe = Pipe(sim, owd, sink=sink)
                uplink_demux.register(self.flow_id, pipe.send)
            else:
                uplink_demux.register(self.flow_id, sink)

    for i in range(n_clients):
        client = Station(medium, f"sta{i}", queue_frames=queue_frames)
        client.set_peer(ap)
        medium.register(client)
        peer_map[i] = client
        handles.append(PathHandle(WirelessHop(ap, client),
                                  _UplinkPort(client, i),
                                  medium=medium, stations=(ap, client)))
    ap.set_peer_map(peer_map)
    return handles


def hybrid_path(
    sim: Simulator,
    phy: "str | PhyProfile" = "802.11n",
    wan_rate_bps: float = 100e6,
    wan_rtt_s: float = 0.02,
    wan_queue_bytes: Optional[int] = None,
    data_loss: float = 0.0,
    ack_loss: float = 0.0,
    queue_frames: int = 1024,
    aggregate: bool = True,
) -> PathHandle:
    """WAN segment + WLAN last hop (paper Fig. 12 topology).

    Data: server --WAN--> AP --medium--> client.
    ACKs: client --medium--> AP --WAN--> server.
    Loss is injected on the WAN segment (where the paper's emulator
    sits): ``data_loss`` on the ingress port, ``ack_loss`` on egress.
    """
    medium, ap, sta = _make_wlan(sim, phy, queue_frames, aggregate, 0.0)
    if wan_queue_bytes is None:
        wan_queue_bytes = max(int(wan_rate_bps * max(wan_rtt_s, 0.02) / 8.0), 128 * 1024)
    wan = EmulatedPath(
        sim,
        PathConfig(wan_rate_bps, wan_rtt_s, wan_queue_bytes, data_loss, ack_loss),
    )
    forward = ChainPort(wan.forward, WirelessHop(ap, sta))
    reverse = ChainPort(WirelessHop(sta, ap), wan.reverse)
    return PathHandle(forward, reverse, medium=medium, wan=wan, stations=(ap, sta))
