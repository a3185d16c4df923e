"""Bidirectional WAN path emulator (software Spirent Attero).

The paper impairs the WAN segment with a hardware emulator that adds
latency and loss independently on the ingress (data) and egress (ACK)
ports.  :class:`EmulatedPath` reproduces that: a forward link and a
reverse link, each with its own rate, one-way delay, queue, and loss
model.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.engine import Simulator
from repro.netsim.link import Link, LinkConfig
from repro.netsim.loss import BernoulliLoss, LossModel
from repro.netsim.packet import Packet


def _bernoulli(rate: float, rng) -> Optional[LossModel]:
    return BernoulliLoss(rate, rng) if rate else None


class PathConfig:
    """Parameters for a symmetric-rate, possibly asymmetric-loss path.

    ``rtt_s`` is split evenly between the two directions, matching the
    paper's setup of "latency of 100 ms on both ingress and egress
    ports provides a 200 ms RTT".
    """

    def __init__(
        self,
        rate_bps: float,
        rtt_s: float,
        queue_bytes: Optional[int] = None,
        data_loss: float = 0.0,
        ack_loss: float = 0.0,
        reverse_rate_bps: Optional[float] = None,
        reverse_queue_bytes: Optional[int] = None,
    ):
        if rtt_s < 0:
            raise ValueError(f"negative RTT: {rtt_s}")
        self.rate_bps = float(rate_bps)
        self.rtt_s = float(rtt_s)
        self.queue_bytes = queue_bytes
        self.data_loss = float(data_loss)
        self.ack_loss = float(ack_loss)
        # Asymmetric paths (ADSL-style): a slower, shallower return
        # channel for the ACK stream.  ``None`` keeps symmetry.
        self.reverse_rate_bps = (
            float(reverse_rate_bps) if reverse_rate_bps is not None else None
        )
        self.reverse_queue_bytes = reverse_queue_bytes

    @property
    def one_way_delay_s(self) -> float:
        return self.rtt_s / 2.0

    def bdp_bytes(self) -> int:
        """Bandwidth-delay product of the path in bytes."""
        return int(self.rate_bps * self.rtt_s / 8.0)


class EmulatedPath:
    """A data-direction link plus an ACK-direction link.

    ``forward`` carries client->server traffic (data), ``reverse``
    carries server->client traffic (ACKs); attach sinks with
    :meth:`connect`.  Loss models may be overridden for burst/pattern
    impairments.
    """

    def __init__(
        self,
        sim: Simulator,
        config: PathConfig,
        forward_loss: Optional[LossModel] = None,
        reverse_loss: Optional[LossModel] = None,
        name: str = "path",
    ):
        self.sim = sim
        self.config = config
        # The RNG is forked even for a zero rate (no model, lossless),
        # so the simulator's stream does not depend on the rates.
        fwd_loss = forward_loss or _bernoulli(
            config.data_loss, sim.fork_rng(f"{name}-fwd-loss"))
        rev_loss = reverse_loss or _bernoulli(
            config.ack_loss, sim.fork_rng(f"{name}-rev-loss"))
        self.forward = Link(
            sim,
            LinkConfig(
                config.rate_bps,
                config.one_way_delay_s,
                config.queue_bytes,
                fwd_loss,
            ),
            name=f"{name}-fwd",
        )
        rev_rate_bps = (config.reverse_rate_bps
                        if config.reverse_rate_bps is not None
                        else config.rate_bps)
        rev_queue = (config.reverse_queue_bytes
                     if config.reverse_queue_bytes is not None
                     else config.queue_bytes)
        self.reverse = Link(
            sim,
            LinkConfig(
                rev_rate_bps,
                config.one_way_delay_s,
                rev_queue,
                rev_loss,
            ),
            name=f"{name}-rev",
        )

    def connect(
        self,
        forward_sink: Callable[[Packet], None],
        reverse_sink: Callable[[Packet], None],
    ) -> None:
        """Attach the server-side (forward) and client-side (reverse)
        receive callbacks."""
        self.forward.connect(forward_sink)
        self.reverse.connect(reverse_sink)
