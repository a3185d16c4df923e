"""Deterministic discrete-event network simulator.

This subpackage is the substrate every experiment runs on.  The paper's
testbed (real Wi-Fi NICs plus a Spirent Attero hardware emulator) is
replaced by a virtual-clock simulation: time advances only when events
fire, so simulated goodput is independent of interpreter speed.
"""

from repro.netsim.clock import Clock
from repro.netsim.engine import Simulator
from repro.netsim.link import Link, LinkConfig
from repro.netsim.loss import (
    BernoulliLoss,
    BurstLoss,
    GilbertElliottLoss,
    LossModel,
    PatternLoss,
)
from repro.netsim.packet import Packet, PacketType
from repro.netsim.pipe import Pipe
from repro.netsim.emulator import EmulatedPath, PathConfig

__all__ = [
    "BernoulliLoss",
    "BurstLoss",
    "Clock",
    "EmulatedPath",
    "GilbertElliottLoss",
    "Link",
    "LinkConfig",
    "LossModel",
    "Packet",
    "PacketType",
    "PathConfig",
    "PatternLoss",
    "Pipe",
    "Simulator",
]
