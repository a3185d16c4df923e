"""Shared wireless medium implementing DCF contention.

The medium coordinates all stations in one collision domain.  Rather
than simulating every idle slot, it runs *contention rounds*: when the
medium goes idle and stations have frames queued, each contender holds
a residual backoff counter (in slots); the medium jumps directly to
``DIFS + min(counter) * slot``, the holders of the minimum transmit
(more than one holder means a collision), and everyone else decrements
their counter by the minimum — the standard event-driven shortcut for
IEEE 802.11 DCF that preserves the per-slot collision probabilities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.engine import Simulator
from repro.wlan.phy import PhyProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wlan.station import Station, TxOp


class WirelessMedium:
    """One 802.11 collision domain shared by a set of stations.

    Parameters
    ----------
    sim:
        Simulation driver.
    phy:
        The PHY profile all stations use (the paper's experiments run a
        single standard at a time).
    per_mpdu_error_rate:
        Optional PHY-layer error probability applied independently to
        each MPDU of a successful (non-collided) transmission; models
        channel noise as opposed to collision losses.
    """

    def __init__(
        self,
        sim: Simulator,
        phy: PhyProfile,
        per_mpdu_error_rate: float = 0.0,
    ):
        if not 0.0 <= per_mpdu_error_rate <= 1.0:
            raise ValueError("per_mpdu_error_rate must be in [0, 1]")
        self.sim = sim
        self.phy = phy
        self.per_mpdu_error_rate = per_mpdu_error_rate
        self.rng = sim.fork_rng("wlan-medium")
        self.stations: list["Station"] = []
        self._delayed: list["Station"] = []
        # A PPDU is on the air / a contention round is pending: while
        # either holds, a new frame needs no notify_backlog call.
        self.busy = False
        self.round_scheduled = False
        self._rounds = 0    # pending; the flag is cleared by any firing
        # statistics
        self.transmissions = 0
        self.collisions = 0
        self.airtime_busy_s = 0.0
        self.airtime_collided_s = 0.0
        self.mpdu_phy_errors = 0

    # ------------------------------------------------------------------
    def register(self, station: "Station") -> None:
        """Add a station to the collision domain."""
        self.stations.append(station)
        if station.ingress_delay_s > 0:
            self._delayed.append(station)

    def notify_backlog(self) -> None:
        """A station enqueued a frame; start a contention round if the
        medium is idle and no round is already pending."""
        if not self.busy and not self.round_scheduled:
            self._schedule_round()

    # ------------------------------------------------------------------
    def _contenders(self) -> list["Station"]:
        return [s for s in self.stations if s.has_backlog()]

    def _schedule_round(self) -> None:
        contenders = self._contenders()
        if not contenders:
            for s in self._delayed:
                s._arm_wake()
            return
        self.round_scheduled = True
        self._rounds += 1
        for s in contenders:
            s.ensure_backoff(self.rng)
        min_slots = min(s.backoff_slots for s in contenders)
        wait = self.phy.difs_s + min_slots * self.phy.slot_s
        ev = self.sim.call_in(wait, lambda: self._fire_round(min_slots, ev))

    def _fire_round(self, elapsed_slots: int, ev: list) -> None:
        for s in self._delayed:
            s.settle(ev)
        self.round_scheduled = False
        self._rounds -= 1
        if self.busy:  # the collided path's second round (_finish_round)
            return
        contenders = self._contenders()
        if not contenders:
            return self._schedule_round()   # idle: arms the wakes
        winners = []
        for s in contenders:
            s.backoff_slots -= elapsed_slots
            if s.backoff_slots <= 0:
                winners.append(s)
        if not winners:
            # All prior contenders drained their queues (shouldn't
            # happen, but stay safe) -- re-run contention.
            self._schedule_round()
            return
        txops = [s.begin_txop() for s in winners]
        airtime = max(
            self.phy.exchange_airtime(txop.total_mpdu_bytes,
                                      station.current_rate_bps())
            for station, txop in zip(winners, txops)
        )
        self.busy = True
        self.transmissions += len(txops)
        self.airtime_busy_s += airtime
        collided = len(winners) > 1
        if collided:
            self.collisions += len(winners)
            self.airtime_collided_s += airtime
        ev = self.sim.call_in(
            airtime, lambda: self._finish_round(winners, txops, collided, ev)
        )

    def _finish_round(
        self,
        winners: list["Station"],
        txops: list["TxOp"],
        collided: bool,
        ev: list,
    ) -> None:
        for s in self._delayed:
            s.settle(ev)
        self.busy = False
        for station, txop in zip(winners, txops):
            if collided:
                station.note_tx_outcome(ok=False)
                station.txop_collided(txop)
            else:
                errored = [
                    self.per_mpdu_error_rate > 0.0
                    and self.rng.random() < self.per_mpdu_error_rate
                    for _ in txop.packets
                ]
                self.mpdu_phy_errors += sum(errored)
                station.note_tx_outcome(ok=not any(errored))
                station.txop_succeeded(txop, errored)
        # A clean TXOP's one pending round, all drawn, needs no busy twin.
        if (collided or not self.round_scheduled or self._rounds > 1
                or any(s.backoff_slots < 0 and s.has_backlog() for s in self.stations)):
            self._schedule_round()

    # ------------------------------------------------------------------
    def collision_rate(self) -> float:
        """Fraction of transmissions that ended in a collision."""
        if self.transmissions == 0:
            return 0.0
        return self.collisions / self.transmissions

    def __repr__(self) -> str:
        return (
            f"WirelessMedium({self.phy.name}, stations={len(self.stations)}, "
            f"tx={self.transmissions}, collisions={self.collisions})"
        )
