"""The one-event wired link against the two-event link it descends
from, packet for packet.

``tests/link_oracle.py`` holds the link as it was before each leg
became one pass (a queue object with its own drop-tail method, a
``NoLoss`` model on every lossless link, a closure per propagating
packet, and an event for every serialization finish).  Both are driven
by the same script on two simulators with the same seed; every
delivery (time, packet, hop count) and every link and queue counter
must agree after every step, and the event counts, the energy ledger
and the netsim telemetry as restated below.  The new link runs under
simsan, so its ``link_queue`` audit checks each script too.

What the new link does differently, by design, and how the script
and the comparison are restated for it:

* it fires no serialization finish, and schedules each arrival when
  it accepts the packet: its ``events_fired`` is the oracle's less the
  finishes the oracle fired, and its ``pending()`` is the oracle's
  whenever the oracle's transmitter is idle;
* a packet whose serialization starts now has started (its bytes are
  not queued), where the oracle still counts it until its
  predecessor's finish event fires.  The two agree at every instant
  the engine has finished, so a ``step`` runs the oracle's events and
  then completes that instant on both sides, and an ``at_finish``
  arrival runs after every event due at its instant (the tie itself is
  pinned in ``tests/test_link_queue.py``);
* the corrupt, jitter and reorder draws are made when a packet is
  accepted, not when it finishes: an impairment change first lets the
  transmitter drain, duplication (a draw at acceptance on both sides)
  is never on beside a probabilistic draw, and the loss, corruption
  and reordering counters are compared whenever the oracle's
  transmitter is idle, and at the end;
* ``tx_start`` and the energy ledger's transmit bill come on
  acceptance and ``idle`` is gone: the ledger's joules agree to
  rounding (the same terms, added in another order), and the stride-1
  netsim events are compared as a multiset with the times of
  ``tx_start`` and of a corruption left out; at stride 3 the kept
  events are every third of a stride-1 twin's.

Propagation delays stay below one second: the parent's corruption
sentinel (a delay of -1 s) delivered a corrupted packet early on a
link of 1 s or more, which ``TestLink`` pins as fixed.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import link_oracle
from repro.energy import EnergyLedger
from repro.netsim import link as one_event
from repro.netsim.engine import Simulator
from repro.netsim.loss import BernoulliLoss, PatternLoss
from repro.netsim.packet import Packet, PacketType
from repro.telemetry import TraceCollector

SIZES = st.integers(40, 1518)

STEPS = st.one_of(
    # simultaneous arrivals
    st.tuples(st.just("send"), st.lists(SIZES, min_size=1, max_size=4)),
    st.tuples(st.just("run"),
              st.sampled_from([0.0, 1e-5, 1e-4, 5e-4, 2e-3, 1e-2])),
    st.tuples(st.just("step"), st.integers(1, 4)),
    # an arrival exactly at the serialization finish of the first
    # packet, after it
    st.tuples(st.just("at_finish"), SIZES, SIZES),
    st.tuples(st.just("big"), st.just(0)),   # larger than the capacity
    st.tuples(st.just("rate"), st.sampled_from([2e6, 10e6, 50e6])),
    st.tuples(st.just("delay"), st.sampled_from([0.0, 5e-4, 2e-3, 1e-2])),
    st.tuples(st.just("loss"), st.sampled_from(["pattern", "bernoulli",
                                                "none", "restore"])),
    st.tuples(st.just("imp"), st.sampled_from(
        ["blackout", "clear", "duplicate", "corrupt", "jitter", "reorder"])),
)

SETUPS = st.fixed_dictionaries({
    "capacity": st.sampled_from([None, 1000, 1600, 4000, 20000]),
    "loss": st.sampled_from(["none", "pattern", "bernoulli"]),
    "stride": st.sampled_from([0, 1, 3]),      # 0: no collector
    "energy": st.booleans(),
    "rate": st.sampled_from([2e6, 10e6, 50e6]),
    "delay": st.sampled_from([0.0, 1e-3, 5e-3]),
    "seed": st.integers(0, 2 ** 16),
})


def loss_model(kind, seed):
    if kind == "pattern":
        return PatternLoss([0, 2, 3, 7, 11])
    if kind == "bernoulli":
        return BernoulliLoss(0.25, seed)
    return None


class OracleLink(link_oracle.Link):
    """The oracle's link, counting the serialization finishes it fires."""

    __slots__ = ("finishes",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.finishes = 0

    def _finish_transmission(self):
        self.finishes += 1
        super()._finish_transmission()


class World:
    """One simulator and link, driven by the shared script."""

    def __init__(self, link_class, config_class, simsan, setup):
        self.collector = (TraceCollector(sampling={"netsim": setup["stride"]})
                          if setup["stride"] else None)
        self.ledger = EnergyLedger() if setup["energy"] else None
        self.sim = Simulator(seed=setup["seed"], simsan=simsan,
                             telemetry=self.collector, energy=self.ledger)
        self.capacity = setup["capacity"]
        self.seed = setup["seed"]
        self.got = []
        self.link = link_class(self.sim, config_class(
            setup["rate"], setup["delay"], setup["capacity"],
            loss_model(setup["loss"], self.seed)),
            sink=lambda p: self.got.append((self.sim.now(), p.pkt_seq,
                                            p.hops)))
        self.saved = []
        self.sent = 0

    def packet(self, size):
        self.sent += 1
        kind = PacketType.ACK if size < 100 else PacketType.DATA
        return Packet(kind, size, seq=self.sent, pkt_seq=self.sent,
                      flow_id=self.sent % 3)

    def apply(self, step):
        op, arg, *rest = step
        sim, link = self.sim, self.link
        if op == "send":
            return [link.send(self.packet(size)) for size in arg]
        if op == "run":
            sim.run(until=sim.now() + arg)
        elif op == "at_finish":
            # Re-scheduled at t, so it runs after every event already
            # due at t: the oracle's finishes are pushed when a packet
            # starts, after this one.
            t = sim.now() + arg * 8.0 / link.config.rate_bps
            late = self.packet(rest[0])
            accepted = link.send(self.packet(arg))
            sim.call_at(t, lambda: sim.call_at(t, lambda: link.send(late)))
            return accepted
        elif op == "big":
            return link.send(self.packet((self.capacity or 1518) + 1))
        elif op == "rate":
            link.set_rate(arg)
        elif op == "delay":
            link.set_delay(arg)
        elif op == "loss":
            if arg != "restore":
                self.saved.append(link.set_loss(loss_model(arg, self.seed + 1)))
            elif self.saved:
                link.set_loss(self.saved.pop())
        else:
            imp = link.impairments(random.Random(self.seed))
            if arg == "clear":
                imp.clear()
            elif arg == "blackout":
                imp.blackout = True
            elif arg == "duplicate":
                imp.duplicate_prob = 0.5
                imp.corrupt_prob = imp.jitter_s = imp.reorder_prob = 0.0
            else:
                imp.duplicate_prob = 0.0
                if arg == "corrupt":
                    imp.corrupt_prob = 0.3
                elif arg == "jitter":
                    imp.jitter_s = 3e-3
                else:
                    imp.reorder_prob, imp.reorder_extra_s = 0.3, 4e-3
        return None

    def observe(self):
        """What must agree after every step: the clock, every delivery,
        and the counters that do not depend on when a draw is made."""
        link, queue, sim = self.link, self.link.queue, self.sim
        return (sim.now(), list(self.got), link.packets_sent,
                link.packets_delivered, link.packets_duplicated,
                link.bytes_delivered, queue.drops, queue.enqueued,
                queue.peak_bytes, *self.queued())

    def queued(self):
        """The bytes and the number of the packets not yet started."""
        queue = self.link.queue
        if isinstance(self.link, OracleLink):
            return queue.bytes_queued, len(queue)
        return queue.settle(self.sim.now()), len(queue.waiting)

    def drawn(self):
        """The counters a corrupt or reorder draw moves."""
        link = self.link
        return link.packets_lost, link.packets_corrupted, link.packets_reordered

    def energy(self):
        """The ledger's summary, its joules to rounding: a packet is
        billed when it is accepted, so its transmit and receive terms
        are added in another order."""
        summary = self.ledger.summary()
        del summary["partials"]
        return {key: pytest.approx(value, rel=1e-12, abs=0.0)
                if isinstance(value, float) else value
                for key, value in summary.items()}

    def netsim_events(self):
        """The netsim events as a multiset: an oracle ``tx_start`` is
        emitted at its start, and a corruption's time left out."""
        out = []
        for event in self.collector.sink.events():
            record = event.to_dict()
            data = record["data"]
            if record["name"] == "idle":
                continue
            if record["name"] == "tx_start" or data.get("reason") == "corrupt":
                record["t"] = None
            out.append(json.dumps(record, sort_keys=True))
        return sorted(out)


def run_both(setup, script):
    """Drive the oracle's link and the one-event link through
    ``script``; they must agree after every step and at the end."""
    old = World(OracleLink, link_oracle.LinkConfig, False, setup)
    new = World(one_event.Link, one_event.LinkConfig, True, setup)
    worlds = [old, new]
    if setup["stride"] == 3:
        worlds.append(World(one_event.Link, one_event.LinkConfig, False,
                            {**setup, "stride": 1}))
    for step in script + [("run", 1.0)]:
        if step[0] == "step":
            old.sim.run(max_events=step[1])
            for world in worlds:
                world.sim.run(until=old.sim.now())
            results = [None] * len(worlds)
        else:
            # Drain the transmitter first: no packet straddles the
            # change (a late ``at_finish`` send may restart it).
            while step[0] == "imp" and new.link._busy_until > new.sim.now():
                drained = new.link._busy_until
                for world in worlds:
                    world.sim.run(until=drained)
            results = [world.apply(step) for world in worlds]
        assert results[1:] == results[:-1], step
        assert new.observe() == old.observe(), step
        assert new.sim.events_fired == old.sim.events_fired - old.link.finishes
        if not old.link._busy:
            assert new.drawn() == old.drawn(), step
            assert new.sim.pending() == old.sim.pending(), step
    assert new.drawn() == old.drawn()
    if setup["stride"] == 1:
        assert new.netsim_events() == old.netsim_events()
    elif setup["stride"] == 3:
        kept = worlds[2].collector.sink.events()[2::3]
        assert ([e.to_dict() for e in new.collector.sink.events()]
                == [e.to_dict() for e in kept])
    if setup["energy"]:
        assert new.energy() == old.energy()
    assert new.sim.pending() == 0
    return new


@settings(max_examples=200, deadline=None)
@given(setup=SETUPS, script=st.lists(STEPS, min_size=1, max_size=40))
def test_one_pass_link_matches_the_parent(setup, script):
    run_both(setup, script)


def test_a_fixed_script_reaches_every_rewritten_path():
    """Overtaking (a lowered delay, jitter, reordering), re-timing by
    ``set_rate`` and ``set_delay`` with packets waiting, duplicates on
    an idle and a busy wire, corruption, overflow, blackout and a loss
    swap, at telemetry stride 3 with the energy ledger attached."""
    setup = {"capacity": 4000, "loss": "pattern", "stride": 3,
             "energy": True, "rate": 10e6, "delay": 5e-3, "seed": 11}
    script = [("send", [1518, 64, 1518]), ("delay", 0.0), ("step", 2),
              ("send", [1518, 600]), ("run", 2e-3), ("delay", 1e-2),
              ("at_finish", 900, 40), ("at_finish", 300, 1200),
              ("imp", "duplicate"), ("send", [1518]), ("run", 1e-2),
              ("send", [200, 1518, 1518, 1518]), ("imp", "clear"),
              ("imp", "jitter"), ("imp", "reorder"), ("send", [500] * 4),
              ("step", 3), ("send", [800] * 4), ("run", 2e-2),
              ("imp", "corrupt"), ("send", [100] * 4), ("run", 2e-2),
              ("imp", "blackout"), ("send", [64]), ("imp", "clear"),
              ("loss", "bernoulli"), ("send", [64] * 4), ("loss", "restore"),
              ("rate", 2e6), ("send", [1518, 1518]), ("step", 1),
              ("rate", 50e6), ("send", [1518] * 3), ("rate", 2e6),
              ("delay", 5e-3), ("run", 2e-3), ("delay", 0.0),
              ("big", 0)]
    new = run_both(setup, script)
    arrivals = [seq for _, seq, _ in new.got]
    assert arrivals != sorted(arrivals)          # somebody overtook
    link = new.link
    assert link.packets_duplicated and link.packets_corrupted
    assert link.packets_reordered and link.queue.drops
    assert len(new.collector.sink.events()) > 10
