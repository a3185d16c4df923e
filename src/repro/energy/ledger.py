"""Per-flow energy/airtime ledger.

The ledger turns the packet stream into joules and airtime-seconds
per flow, split by direction kind (data vs. ACK-like), using

* the :class:`~repro.wlan.phy.PhyProfile` DCF cost of one exchange —
  ``difs + E[backoff] + PPDU + SIFS + link-ACK`` for the packet's
  wire size — as the airtime of each transmission, and
* a :class:`~repro.energy.model.RadioPowerModel` for the tx / rx /
  idle draws: the transmitting radio is billed ``airtime * tx_w`` when
  the link accepts the packet (dropped packets burn nothing; corrupted
  ones do, like real RF, and so do ones still waiting when a run stops
  at its horizon), the receiving radio ``airtime * rx_w`` at delivery,
  and each flow's remaining lifetime ``idle_w``.

Hook protocol (null-guarded, mirroring telemetry's ``_tel`` pattern —
components cache ``sim.energy`` at construction):

* ``on_tx(packet)`` / ``on_rx(packet)`` from the link layer,
* ``flow_opened(flow_id)`` / ``flow_closed(flow_id)`` from the
  transport sender (bounds the idle-energy window),
* ``on_feedback_emitted(flow_id, nbytes)`` from the receiver (offered
  feedback load; informational, not an energy source — the feedback
  packets' energy is already billed at the link hooks).

Fleet shards retire finished flows with :meth:`EnergyLedger.pop_flow`
so memory stays flat; retired totals accumulate in
:class:`~repro.stats.streaming.ExactSum` partials, making shard
summaries mergeable in any order with bit-identical results.

Simulation-side module: all timestamps come from the attached sim
clock; there is no RNG (the mean-backoff DCF cost is analytic).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

from repro.energy.model import POWER_MODELS, RadioPowerModel, get_power_model
from repro.netsim.packet import ACK_KINDS
from repro.stats.streaming import ExactSum
from repro.wlan.phy import PhyProfile, get_profile


class FlowEnergy:
    """Running energy/airtime account of one flow."""

    __slots__ = ("flow_id", "data_pkts", "ack_pkts", "data_bytes",
                 "ack_bytes", "data_airtime_s", "ack_airtime_s",
                 "data_energy_j", "ack_energy_j", "feedback_bytes",
                 "opened_t", "closed_t")

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        self.data_pkts = 0
        self.ack_pkts = 0
        self.data_bytes = 0
        self.ack_bytes = 0
        self.data_airtime_s = 0.0
        self.ack_airtime_s = 0.0
        self.data_energy_j = 0.0
        self.ack_energy_j = 0.0
        self.feedback_bytes = 0
        self.opened_t: Optional[float] = None
        self.closed_t: Optional[float] = None


class _OnFirstUse(dict):
    """A dict that fills a missing key with ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


#: Metrics exported in mergeable (ExactSum-partials) form.
TOTAL_KEYS = ("data_airtime_s", "ack_airtime_s", "data_energy_j",
              "ack_energy_j", "idle_energy_j")

#: Integer totals (exact by construction, summed as plain ints).
COUNT_KEYS = ("data_pkts", "ack_pkts", "data_bytes", "ack_bytes",
              "feedback_bytes")


class EnergyLedger:
    """Folds link/transport hook calls into per-flow joule accounts.

    Parameters
    ----------
    phy:
        :class:`PhyProfile` (or profile name) supplying the DCF
        exchange airtime per wire size.
    power:
        :class:`RadioPowerModel` (or model name) supplying the
        tx/rx/idle draws.

    Attach with ``Simulator(energy=ledger)``: links and endpoints
    cache ``sim.energy`` at build time, exactly like the telemetry
    collector.
    """

    def __init__(self, phy: Union[PhyProfile, str] = "802.11n",
                 power: Union[RadioPowerModel, str] = "wavelan"):
        self.phy = phy if isinstance(phy, PhyProfile) else get_profile(phy)
        self.power = (power if isinstance(power, RadioPowerModel)
                      else get_power_model(power))
        self._now = None
        self._flows = _OnFirstUse(FlowEnergy)
        phy, power = self.phy, self.power

        def exchange_cost(size_bytes: int) -> Tuple[float, float, float]:
            """``(airtime_s, tx_j, rx_j)`` of one DCF exchange: DIFS +
            mean backoff + PPDU + SIFS + link-ACK, and that airtime at
            the transmit and the receive draw."""
            a = phy.dcf_exchange_s(phy.mpdu_bytes(size_bytes))
            return a, a * power.tx_w, a * power.rx_w

        self._costs = _OnFirstUse(exchange_cost)     # per wire size
        self._retired: Dict[str, ExactSum] = {k: ExactSum()
                                              for k in TOTAL_KEYS}
        self._retired_counts: Dict[str, int] = {k: 0 for k in COUNT_KEYS}
        self.flows_opened = 0
        self.flows_closed = 0
        self.flows_retired = 0

    # ------------------------------------------------------------------
    def attach(self, sim) -> "EnergyLedger":
        """Bind to a simulator's virtual clock (idle-window bounds)."""
        self._now = sim.clock.now
        return self

    # ------------------------------------------------------------------
    # link hooks: one pass per link leg (flow, size costs, kind test)
    # ------------------------------------------------------------------
    def on_tx(self, packet) -> None:
        """One packet accepted for serialization: bill airtime + tx energy."""
        rec = self._flows[packet.flow_id]
        size = packet.size
        a, e, _ = self._costs[size]
        if packet.kind in ACK_KINDS:
            rec.ack_pkts += 1
            rec.ack_bytes += size
            rec.ack_airtime_s += a
            rec.ack_energy_j += e
        else:
            rec.data_pkts += 1
            rec.data_bytes += size
            rec.data_airtime_s += a
            rec.data_energy_j += e

    def on_rx(self, packet) -> None:
        """One packet delivered: bill the receiving radio's energy
        (airtime was already counted once, at transmission)."""
        rec = self._flows[packet.flow_id]
        e = self._costs[packet.size][2]
        if packet.kind in ACK_KINDS:
            rec.ack_energy_j += e
        else:
            rec.data_energy_j += e

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def flow_opened(self, flow_id: int) -> None:
        rec = self._flows[flow_id]
        if rec.opened_t is None:
            self.flows_opened += 1
            rec.opened_t = self._now() if self._now is not None else 0.0

    def flow_closed(self, flow_id: int) -> None:
        rec = self._flows[flow_id]
        if rec.closed_t is None:
            self.flows_closed += 1
            rec.closed_t = self._now() if self._now is not None else 0.0

    def on_feedback_emitted(self, flow_id: int, nbytes: int) -> None:
        self._flows[flow_id].feedback_bytes += nbytes

    # ------------------------------------------------------------------
    # reading the ledger
    # ------------------------------------------------------------------
    def _idle_energy_j(self, rec: FlowEnergy) -> float:
        if rec.opened_t is None:
            return 0.0
        end = rec.closed_t
        if end is None:
            end = self._now() if self._now is not None else rec.opened_t
        busy = rec.data_airtime_s + rec.ack_airtime_s
        idle_s = max(0.0, (end - rec.opened_t) - busy)
        return idle_s * self.power.idle_w

    def flow_summary(self, rec: FlowEnergy) -> Dict[str, Any]:
        """One flow's account as a plain dict (shares and totals)."""
        idle_j = self._idle_energy_j(rec)
        total_j = rec.data_energy_j + rec.ack_energy_j + idle_j
        total_air = rec.data_airtime_s + rec.ack_airtime_s
        return {
            "flow_id": rec.flow_id,
            "data_pkts": rec.data_pkts,
            "ack_pkts": rec.ack_pkts,
            "data_bytes": rec.data_bytes,
            "ack_bytes": rec.ack_bytes,
            "data_airtime_s": rec.data_airtime_s,
            "ack_airtime_s": rec.ack_airtime_s,
            "data_energy_j": rec.data_energy_j,
            "ack_energy_j": rec.ack_energy_j,
            "idle_energy_j": idle_j,
            "total_energy_j": total_j,
            "ack_energy_share": (rec.ack_energy_j / total_j
                                 if total_j > 0 else 0.0),
            "ack_airtime_share": (rec.ack_airtime_s / total_air
                                  if total_air > 0 else 0.0),
            "feedback_bytes": rec.feedback_bytes,
        }

    def pop_flow(self, flow_id: int) -> Optional[Dict[str, Any]]:
        """Retire a finished flow: fold it into the mergeable totals,
        drop its record (keeping ledger memory flat at fleet scale),
        and return its summary — or ``None`` if unknown."""
        rec = self._flows.pop(flow_id, None)
        if rec is None:
            return None
        summary = self.flow_summary(rec)
        for key in TOTAL_KEYS:
            self._retired[key].add(summary[key])
        for key in COUNT_KEYS:
            self._retired_counts[key] += summary[key]
        self.flows_retired += 1
        return summary

    def live_flows(self) -> Dict[int, FlowEnergy]:
        """Flows not yet retired (read-only view for tests/metrics)."""
        return dict(self._flows)

    def summary(self) -> Dict[str, Any]:
        """Ledger-wide totals: retired flows exactly (ExactSum) plus
        the current state of still-live flows."""
        totals = {k: ExactSum(self._retired[k].to_dict()["partials"])
                  for k in TOTAL_KEYS}
        counts = dict(self._retired_counts)
        for rec in self._flows.values():
            flow = self.flow_summary(rec)
            for key in TOTAL_KEYS:
                totals[key].add(flow[key])
            for key in COUNT_KEYS:
                counts[key] += flow[key]
        out: Dict[str, Any] = {k: totals[k].value() for k in TOTAL_KEYS}
        out.update(counts)
        total_j = (out["data_energy_j"] + out["ack_energy_j"]
                   + out["idle_energy_j"])
        total_air = out["data_airtime_s"] + out["ack_airtime_s"]
        out.update({
            "phy": self.phy.name,
            "power": self.power.name,
            "flows_opened": self.flows_opened,
            "flows_closed": self.flows_closed,
            "flows_retired": self.flows_retired,
            "live_flows": len(self._flows),
            "total_energy_j": total_j,
            "ack_energy_share": (out["ack_energy_j"] / total_j
                                 if total_j > 0 else 0.0),
            "ack_airtime_share": (out["ack_airtime_s"] / total_air
                                  if total_air > 0 else 0.0),
            "partials": {k: totals[k].to_dict() for k in TOTAL_KEYS},
        })
        return out

    def __repr__(self) -> str:
        return (f"EnergyLedger(phy={self.phy.name}, "
                f"power={self.power.name}, live={len(self._flows)}, "
                f"retired={self.flows_retired})")


__all__ = ["EnergyLedger", "FlowEnergy", "TOTAL_KEYS", "COUNT_KEYS",
           "RadioPowerModel", "POWER_MODELS", "get_power_model"]
