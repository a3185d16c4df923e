"""The one-pass wired link against its parent, event for event.

``tests/link_oracle.py`` holds the link as it was before each leg
became one pass (a queue object with its own drop-tail method, a
``NoLoss`` model on every lossless link, a closure per propagating
packet).  Both are driven by the same script on two simulators with
the same seed; every delivery (time, packet, hop count), every link and
queue counter, the netsim telemetry at stride 1 and 3, the energy
ledger's summary, ``events_fired`` and ``pending()`` must agree after
every step.  The new link runs under simsan, so its ``link_queue``
audit checks each script too.

Propagation delays stay below one second: the parent's corruption
sentinel (a delay of -1 s) delivered a corrupted packet early on a
link of 1 s or more, which ``TestLink`` pins as fixed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import link_oracle
from repro.energy import EnergyLedger
from repro.netsim import link as one_pass
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
    # packet, scheduled before (fires first) or after it
    st.tuples(st.just("at_finish"), SIZES, SIZES, st.booleans()),
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


class World:
    """One simulator and link, driven by the shared script."""

    def __init__(self, module, simsan, setup):
        self.collector = (TraceCollector(sampling={"netsim": setup["stride"]})
                          if setup["stride"] else None)
        self.ledger = EnergyLedger() if setup["energy"] else None
        self.sim = Simulator(seed=setup["seed"], simsan=simsan,
                             telemetry=self.collector, energy=self.ledger)
        self.capacity = setup["capacity"]
        self.seed = setup["seed"]
        self.got = []
        self.link = module.Link(self.sim, module.LinkConfig(
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
        elif op == "step":
            sim.run(max_events=arg)
        elif op == "at_finish":
            size_b, before = rest
            t = sim.now() + arg * 8.0 / link.config.rate_bps
            late = self.packet(size_b)
            if before:
                sim.call_at(t, lambda: link.send(late))
            accepted = link.send(self.packet(arg))
            if not before:
                sim.call_at(t, lambda: link.send(late))
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
            elif arg == "corrupt":
                imp.corrupt_prob = 0.3
            elif arg == "jitter":
                imp.jitter_s = 3e-3
            else:
                imp.reorder_prob, imp.reorder_extra_s = 0.3, 4e-3
        return None

    def observe(self):
        link, queue, sim = self.link, self.link.queue, self.sim
        return (sim.now(), sim.events_fired, sim.pending(), list(self.got),
                link.packets_sent, link.packets_delivered, link.packets_lost,
                link.packets_duplicated, link.packets_corrupted,
                link.packets_reordered, link.bytes_delivered,
                queue.drops, queue.enqueued,
                queue.peak_bytes, queue.bytes_queued, len(queue))

    def planes(self):
        events = ([e.to_dict() for e in self.collector.sink.events()]
                  if self.collector is not None else None)
        energy = self.ledger.summary() if self.ledger is not None else None
        return events, energy


def run_both(setup, script):
    """Drive the parent's link and the one-pass link through
    ``script``; they must agree after every step and at the end."""
    old = World(link_oracle, False, setup)
    new = World(one_pass, True, setup)
    for step in script + [("run", 1.0)]:
        assert new.apply(step) == old.apply(step), step
        assert new.observe() == old.observe(), step
    assert new.planes() == old.planes()
    assert new.sim.pending() == 0
    return new


@settings(max_examples=200, deadline=None)
@given(setup=SETUPS, script=st.lists(STEPS, min_size=1, max_size=40))
def test_one_pass_link_matches_the_parent(setup, script):
    run_both(setup, script)


def test_a_fixed_script_reaches_every_rewritten_path():
    """Overtaking (a lowered delay, jitter, reordering), duplicates on
    an idle and a busy wire, corruption, overflow, blackout and a loss
    swap, at telemetry stride 3 with the energy ledger attached."""
    setup = {"capacity": 4000, "loss": "pattern", "stride": 3,
             "energy": True, "rate": 10e6, "delay": 5e-3, "seed": 11}
    script = [("send", [1518, 64, 1518]), ("delay", 0.0), ("step", 2),
              ("send", [1518, 600]), ("run", 2e-3), ("delay", 1e-2),
              ("at_finish", 900, 40, True), ("at_finish", 300, 1200, False),
              ("imp", "duplicate"), ("send", [1518]), ("run", 1e-2),
              ("send", [200, 1518, 1518, 1518]), ("imp", "clear"),
              ("imp", "jitter"), ("imp", "reorder"), ("send", [500] * 4),
              ("step", 3), ("send", [800] * 4), ("run", 2e-2),
              ("imp", "corrupt"), ("send", [100] * 4), ("run", 2e-2),
              ("imp", "blackout"), ("send", [64]), ("imp", "clear"),
              ("loss", "bernoulli"), ("send", [64] * 4), ("loss", "restore"),
              ("rate", 2e6), ("send", [1518, 1518]), ("step", 1),
              ("rate", 50e6), ("big", 0)]
    new = run_both(setup, script)
    arrivals = [seq for _, seq, _ in new.got]
    assert arrivals != sorted(arrivals)          # somebody overtook
    link = new.link
    assert link.packets_duplicated and link.packets_corrupted
    assert link.packets_reordered and link.queue.drops
    assert len(new.collector.sink.events()) > 10
