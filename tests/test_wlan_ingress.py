"""Twin test of the AP's ingress delay against the delay pipe it replaced.

An AP station with ``ingress_delay_s`` keys each frame at ``send`` and
the medium admits the due ones at the start of each of its own events
(``Station.settle``); a wake is armed only while the medium is idle
with no round pending.  The oracle is the eager chain that stays in the
tree for the reverse path: ``ChainPort(Pipe(sim, owd), WirelessHop(ap,
sta))``, one heap event per frame, in front of an undelayed AP, on a
medium whose every TXOP ends in a ``_schedule_round`` call
(``EagerMedium``: the second round a clean TXOP no longer pushes when
the first has drawn every backoff).

Both worlds run the same hypothesis-generated traffic on a PHY whose
every interval is a whole number of ticks (``TICK`` = 2**-17 s), so
arrivals land *exactly* on medium events, before and after them in
sequence number.  Some sends are aimed at the medium's next round or
TXOP end from inside the medium event that schedules it, and some
downlink sends schedule an uplink send for the instant their frame
reaches the AP (after its key, so an idle medium's wake must sort
first) and are answered with one as they are delivered.  The runs are
cut into ``run(until=)`` slices with frames in flight, and after each
slice the delivery log, every station and medium counter, the queues
and the medium's RNG state must agree.

What a reader sees at a horizon: the AP's queue and
``frames_dropped_queue`` lag by the frames that arrived since the last
medium event; ``settle([sim.now(), math.inf])`` admits them exactly, as
the run would have at its next medium event.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet, PacketType
from repro.netsim.paths import ChainPort, WirelessHop, multi_client_wlan, wlan_path
from repro.netsim.pipe import Pipe
from repro.wlan.medium import WirelessMedium
from repro.wlan.phy import PhyProfile
from repro.wlan.station import Station, wireless_pair

TICK = 2.0 ** -17
#: Airtime is 2**-21 s per byte and every MPDU is a multiple of 16
#: bytes (48 bytes of overhead), so every medium event sits on the grid.
PHY = PhyProfile("dyadic", phy_rate_bps=2.0 ** 24, basic_rate_bps=2.0 ** 24,
                 slot_s=TICK, sifs_s=2 * TICK, difs_s=4 * TICK,
                 preamble_s=4 * TICK, ack_s=8 * TICK, cw_min=7, cw_max=63,
                 max_ampdu_frames=6, max_ampdu_bytes=8192,
                 mpdu_overhead_bytes=14, retry_limit=3)
#: A long DIFS, no MAC retry and a narrow window: collisions drop
#: frames and a collided TXOP's two rounds outlive the TXOP after it.
LONG_DIFS = PhyProfile("long-difs", phy_rate_bps=2.0 ** 24,
                       basic_rate_bps=2.0 ** 24, slot_s=TICK, sifs_s=2 * TICK,
                       difs_s=64 * TICK, preamble_s=4 * TICK, ack_s=8 * TICK,
                       cw_min=3, cw_max=15, max_ampdu_frames=6,
                       max_ampdu_bytes=8192, mpdu_overhead_bytes=14,
                       retry_limit=0)
SIZES = (64, 400, 1520)
#: A run that loops at one instant stops here and fails the comparison.
MAX_EVENTS = 100_000


class EagerMedium(WirelessMedium):
    """``_finish_round`` as it was before a clean TXOP stopped pushing a
    second contention round (a copy, kept as the oracle; it has no
    delayed station to settle)."""

    def _finish_round(self, winners, txops, collided, ev):
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
        self._schedule_round()


class World:
    """One collision domain: an AP and ``clients`` stations, the AP's
    downlink behind either its ingress delay or a delay pipe."""

    def __init__(self, ingress: bool, seed: int, clients: int,
                 queue_frames, error_rate: float, owd_ticks: int,
                 aim_every: int, echo_every: int = 0, phy=PHY,
                 simulator=Simulator):
        self.sim = sim = simulator(seed=seed, simsan=False)
        self.owd = owd = owd_ticks * TICK
        medium_class = WirelessMedium if ingress else EagerMedium
        self.medium = medium = medium_class(sim, phy, error_rate)
        self.ap = ap = Station(medium, "ap", queue_frames,
                               ingress_delay_s=owd if ingress else 0.0)
        medium.register(ap)
        self.log = []
        self.clients = []
        for i in range(clients):
            client = Station(medium, f"sta{i}", queue_frames)
            client.set_peer(ap)
            client.connect(self._sink("down"))
            medium.register(client)
            self.clients.append(client)
        ap.set_peer(self.clients[0])
        if clients > 1:
            ap.set_peer_map(dict(enumerate(self.clients)))
        ap.connect(self._sink("up"))
        hops = [WirelessHop(ap, client) for client in self.clients]
        self.pipes = [] if ingress else [Pipe(sim, owd) for _ in hops]
        self.forward = (hops if ingress else
                        [ChainPort(pipe, hop) for pipe, hop in zip(self.pipes, hops)])
        self.sent = 0
        self.aimed = 0
        self.echo_every = echo_every
        if aim_every:
            self._aim(aim_every)

    def _sink(self, direction):
        def sink(packet):
            self.log.append((self.sim.now(), direction, packet.flow_id,
                             packet.seq, packet.hops))
            # A per-packet ACK, sent inside the TXOP's finish.
            if (direction == "down" and self.echo_every
                    and packet.seq % self.echo_every == 0):
                self.send(False, packet.flow_id, SIZES[0])
        return sink

    def send(self, down: bool, client: int, size: int) -> None:
        client %= len(self.clients)
        self.sent += 1
        packet = Packet(PacketType.DATA if down else PacketType.ACK, size,
                        seq=self.sent, flow_id=client)
        if down:
            self.forward[client].send(packet)
            if self.echo_every and self.sent % self.echo_every == 0:
                self.sim.call_at(self.sim.now() + self.owd,
                                 lambda: self.send(False, client, SIZES[0]))
        else:
            self.clients[client].send(packet)

    def _aim(self, every: int) -> None:
        """Every ``every``-th time the medium schedules a round (not a
        second one while one is pending: the eager medium's extra) or
        starts a TXOP (up to 60 frames), send a downlink frame that
        arrives exactly when that round fires or that TXOP ends (later
        in sequence than the medium event), or when the next round
        fires if it draws no slot (earlier in sequence)."""
        medium, sim, phy = self.medium, self.sim, self.medium.phy
        schedule, fire = medium._schedule_round, medium._fire_round

        def aim_at(t: float) -> None:
            self.aimed += 1
            if (self.aimed % every == 0 and self.aimed <= 60 * every
                    and t - self.owd >= sim.now()):
                sim.call_at(t - self.owd,
                            lambda: self.send(True, self.aimed, SIZES[1]))

        def aimed_schedule():
            pending = medium.round_scheduled    # a second round: no aim
            schedule()
            contenders = medium._contenders()
            if contenders and not pending:
                aim_at(sim.now() + phy.difs_s + phy.slot_s * min(
                    s.backoff_slots for s in contenders))

        def aimed_fire(*args):
            before = medium.airtime_busy_s
            fire(*args)
            if medium.airtime_busy_s > before:
                end = sim.now() + medium.airtime_busy_s - before
                aim_at(end)
                # The round after it, if that one draws no slot: sent
                # before that round is scheduled, so earlier in sequence.
                aim_at(end + phy.difs_s)

        medium._schedule_round = aimed_schedule
        medium._fire_round = aimed_fire

    # -- what is compared ----------------------------------------------
    def stations(self):
        return [self.ap, *self.clients]

    @staticmethod
    def queues(station):
        queues = [station._queue]
        if station._peer_map is not None:
            queues += list(station._dest_queues.values())
        return [[(p.flow_id, p.seq, p.hops) for p in q] for q in queues]

    def state(self, with_ap_queue: bool = True) -> dict:
        m = self.medium
        state = {
            "now": self.sim.now(),
            "log": list(self.log),
            "medium": (m.transmissions, m.collisions, m.airtime_busy_s,
                       m.airtime_collided_s, m.mpdu_phy_errors, m.busy,
                       m.round_scheduled),
            "rng": m.rng.getstate(),
            "stations": [
                (s.frames_sent, s.frames_delivered, s.frames_dropped_retry,
                 s.bytes_delivered, s.txops_won, s.backoff_slots, s._cw,
                 s._retries,
                 None if s._inflight is None
                 else [p.seq for p in s._inflight.packets])
                for s in self.stations()],
            "client_queues": [(self.queues(c), c.frames_dropped_queue)
                              for c in self.clients],
        }
        if with_ap_queue:
            state["ap_queue"] = (self.queues(self.ap),
                                 self.ap.frames_dropped_queue)
        return state

    def ap_frames(self) -> int:
        """Frames the AP queued or dropped so far."""
        return (sum(map(len, self.queues(self.ap)))
                + self.ap.frames_dropped_queue)


def horizon_check(oracle: World, twin: World) -> None:
    """At a ``run(until=)`` horizon: the twin's AP lags by exactly the
    frames that have arrived since its last medium event, and the
    frames still in flight are the pipe's."""
    now = twin.sim.now()
    arrived = sum(1 for entry in twin.ap._ingress if entry[0] <= now)
    assert oracle.ap_frames() == twin.ap_frames() + arrived
    assert (len(twin.ap._ingress) - arrived
            == sum(len(pipe._in_transit) for pipe in oracle.pipes))


SENDS = st.lists(
    st.tuples(st.integers(0, 6000),            # send time, in ticks
              st.booleans(),                   # downlink?
              st.integers(0, 1),               # client
              st.sampled_from(SIZES)),
    min_size=1, max_size=80)
SLICES = st.lists(st.tuples(st.integers(1, 9000), st.booleans()),
                  max_size=6)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 3), clients=st.integers(1, 2),
       queue_frames=st.sampled_from([0, 1, 2, 4, 16, None]),
       error_rate=st.sampled_from([0.0, 0.3]),
       owd_ticks=st.sampled_from([1, 5, 20, 40, 700]),
       aim_every=st.integers(0, 3), echo_every=st.integers(0, 3),
       phy=st.sampled_from([PHY, LONG_DIFS]), sends=SENDS, slices=SLICES)
def test_ingress_station_matches_the_pipe_chain(
        seed, clients, queue_frames, error_rate, owd_ticks, aim_every,
        echo_every, phy, sends, slices):
    worlds = [World(ingress, seed, clients, queue_frames, error_rate,
                    owd_ticks, aim_every, echo_every, phy)
              for ingress in (False, True)]
    for world in worlds:
        for tick, down, client, size in sends:
            world.sim.call_at(tick * TICK,
                              lambda w=world, d=down, c=client, s=size:
                              w.send(d, c, s))
    oracle, twin = worlds
    for tick, read in sorted(slices):
        for world in worlds:
            world.sim.run(until=tick * TICK, max_events=MAX_EVENTS)
        if read:
            twin.ap.settle([twin.sim.now(), math.inf])
            assert twin.state() == oracle.state()
        else:
            horizon_check(oracle, twin)
            assert twin.state(False) == oracle.state(False)
    for world in worlds:
        world.sim.run(max_events=MAX_EVENTS)
    assert not twin.ap._ingress and twin.ap._wake is None
    assert twin.state() == oracle.state()
    assert twin.sim.events_fired <= oracle.sim.events_fired


def test_arrivals_land_on_medium_events_in_both_orders():
    """The grid and the aimed sends do what the twin test relies on: on
    a busy script, pipe arrivals fire at exactly the time of a medium
    event, both before it in sequence (sent before the event was
    scheduled) and after it (sent later); the twin still matches."""
    keys = {"arrival": [], "medium": []}

    class KeyedSimulator(Simulator):
        def call_at(self, t, fn, seq=None):
            ev = super().call_at(t, fn, seq)
            if isinstance(getattr(fn, "__self__", None), Pipe):
                keys["arrival"].append((ev[0], ev[1]))
            elif fn.__module__ == "repro.wlan.medium":
                keys["medium"].append((ev[0], ev[1]))
            return ev

    oracle, twin = (World(ingress, 1, 2, 4, 0.3, 20, 1, 2,
                          simulator=KeyedSimulator if not ingress else Simulator)
                    for ingress in (False, True))
    for world in (oracle, twin):
        for k in range(400):
            world.sim.call_at(k * 3 * TICK, lambda w=world, k=k:
                              w.send(k % 3 > 0, k, SIZES[k % 3]))
        world.sim.run()
    assert twin.state() == oracle.state()
    medium_seqs = {}
    for t, seq in keys["medium"]:
        medium_seqs.setdefault(t, []).append(seq)
    orders = [seq < other for t, seq in keys["arrival"]
              for other in medium_seqs.get(t, ())]
    assert orders.count(True) >= 10 and orders.count(False) >= 10


def test_paths_put_the_delay_on_the_ap():
    """``wlan_path`` and ``multi_client_wlan`` build the forward port as
    the bare hop from a delayed AP; only the reverse keeps a pipe."""
    sim = Simulator(seed=1)
    handle = wlan_path(sim, "802.11n", extra_rtt_s=0.08)
    ap, sta = handle.stations
    assert isinstance(handle.forward, WirelessHop)
    assert handle.forward.send == ap._send_later and "send" not in vars(sta)
    assert math.isclose(ap.ingress_delay_s, 0.04)
    assert isinstance(handle.reverse.stages[-1], Pipe)
    assert "send" not in vars(wlan_path(sim, "802.11n").stations[0])
    handles = multi_client_wlan(sim, 2, "802.11n", extra_rtt_s=0.1)
    assert all(h.forward.send == h.stations[0]._send_later for h in handles)
    assert math.isclose(handles[0].stations[0].ingress_delay_s, 0.05)


def test_the_second_round_after_a_collision_is_kept():
    """A collided TXOP keeps its unconditional second round: here the
    first winner's round counts the other winner's stale 0 slots and
    finds no winner, and the second round, with the first winner's
    fresh draw alone, is the one that decides when it transmits."""
    def run(medium_class):
        sim = Simulator(seed=1, simsan=False)
        phy = PhyProfile("no-retry", phy_rate_bps=2.0 ** 24,
                         basic_rate_bps=2.0 ** 24, slot_s=TICK,
                         sifs_s=2 * TICK, difs_s=4 * TICK,
                         preamble_s=4 * TICK, ack_s=8 * TICK, retry_limit=0)
        medium = medium_class(sim, phy)
        draws = iter([0, 5])      # the station's first, the AP's second
        medium.rng.randint = lambda lo, hi: next(draws)
        ap, sta = wireless_pair(medium, aggregate=False)
        arrivals = []
        sta.connect(lambda p: arrivals.append((sim.now(), p.seq)))
        sta.send(Packet(PacketType.ACK, SIZES[0], seq=3))
        for seq in (1, 2):      # joins the round undrawn: a collision
            ap.send(Packet(PacketType.DATA, SIZES[1], seq=seq))
        sim.run()
        return arrivals, medium.collisions, ap.frames_dropped_retry

    assert run(WirelessMedium) == run(EagerMedium)
    arrivals, collisions, dropped = run(WirelessMedium)
    assert collisions == 2 and dropped == 1 and [s for _, s in arrivals] == [2]
