"""Flow demultiplexer: many connections over one shared path.

The fairness experiments (paper Fig. 15) run several flows through a
single bottleneck.  Links deliver to one sink, so :class:`FlowDemux`
fans packets out to per-flow sinks by ``flow_id``, and
:class:`SharedPort` presents the shared link as a private port to each
flow's endpoint.
"""

from __future__ import annotations

from typing import Callable

from repro.netsim.packet import Packet


class FlowDemux:
    """Routes delivered packets to per-flow sinks by ``flow_id``."""

    __slots__ = ("_sinks", "unrouted")

    def __init__(self):
        self._sinks: dict[int, Callable[[Packet], None]] = {}
        self.unrouted = 0

    def register(self, flow_id: int, sink: Callable[[Packet], None]) -> None:
        self._sinks[flow_id] = sink

    def unregister(self, flow_id: int) -> None:
        """Drop a flow's sink; late packets count as ``unrouted``.

        Fleet shards retire thousands of short flows per run — removing
        the sink releases the connection object and keeps the routing
        table bounded by the *active* population.
        """
        self._sinks.pop(flow_id, None)

    def __call__(self, packet: Packet) -> None:
        sink = self._sinks.get(packet.flow_id)
        if sink is None:
            self.unrouted += 1
            return
        sink(packet)


class SharedPort:
    """A per-flow facade over a shared link.

    ``send`` is the shared link's own bound ``send``; ``connect``
    registers the flow's sink with the demux sitting at the link's far
    end.
    """

    __slots__ = ("link", "demux", "flow_id", "send")

    def __init__(self, link, demux: FlowDemux, flow_id: int):
        self.link = link
        self.demux = demux
        self.flow_id = flow_id
        self.send = link.send

    def connect(self, sink: Callable[[Packet], None]) -> None:
        self.demux.register(self.flow_id, sink)


def share_path(wan, n_flows: int):
    """Split an :class:`~repro.netsim.emulator.EmulatedPath` into
    ``n_flows`` (forward, reverse) port pairs sharing its links."""
    fwd_demux = FlowDemux()
    rev_demux = FlowDemux()
    wan.forward.connect(fwd_demux)
    wan.reverse.connect(rev_demux)
    pairs = []
    for flow_id in range(n_flows):
        pairs.append(
            (
                SharedPort(wan.forward, fwd_demux, flow_id),
                SharedPort(wan.reverse, rev_demux, flow_id),
            )
        )
    return pairs
