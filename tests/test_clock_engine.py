"""Unit tests for the virtual clock and event engine."""

import random

import pytest

from repro.netsim.clock import Clock
from repro.netsim.engine import Event, Simulator

NAN = float("nan")


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now() == 0.0

    def test_custom_start(self):
        assert Clock(start=5.0).now() == 5.0

    def test_advance_to(self):
        c = Clock()
        c.advance_to(1.5)
        assert c.now() == 1.5

    def test_advance_by(self):
        c = Clock()
        c.advance_by(0.25)
        c.advance_by(0.25)
        assert c.now() == pytest.approx(0.5)

    def test_rewind_rejected(self):
        c = Clock(start=2.0)
        with pytest.raises(ValueError):
            c.advance_to(1.0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance_by(-0.1)

    def test_nan_rejected(self):
        c = Clock(start=2.0)
        with pytest.raises(ValueError):
            c.advance_to(NAN)
        with pytest.raises(ValueError):
            c.advance_by(NAN)
        assert c.now() == 2.0


class TestScheduling:
    def test_call_in_fires_in_order(self, sim):
        fired = []
        sim.call_in(0.2, lambda: fired.append("b"))
        sim.call_in(0.1, lambda: fired.append("a"))
        sim.call_in(0.3, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_tie_broken_by_insertion_order(self, sim):
        fired = []
        for tag in ("first", "second", "third"):
            sim.call_at(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.call_in(0.5, lambda: times.append(sim.now()))
        sim.run()
        assert times == [pytest.approx(0.5)]

    def test_past_scheduling_rejected(self, sim):
        sim.call_in(0.1, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(0.05, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.call_in(-1.0, lambda: None)

    def test_nan_time_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.call_at(NAN, lambda: None)
        with pytest.raises(ValueError):
            sim.call_in(NAN, lambda: None)
        assert sim.pending() == 0
        assert sim.run() == 0.0

    def test_cancelled_event_skipped(self, sim):
        fired = []
        ev = sim.call_in(0.1, lambda: fired.append("x"))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_mid_run(self, sim):
        fired = []
        later = sim.call_in(0.2, lambda: fired.append("later"))
        sim.call_in(0.1, later.cancel)
        sim.run()
        assert fired == []

    def test_nested_scheduling(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.call_in(0.1, lambda: fired.append("inner"))

        sim.call_in(0.1, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now() == pytest.approx(0.2)


class TestRun:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.call_in(1.0, lambda: fired.append("early"))
        sim.call_in(3.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now() == pytest.approx(2.0)

    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=7.0)
        assert sim.now() == pytest.approx(7.0)

    def test_resume_after_until(self, sim):
        fired = []
        sim.call_in(3.0, lambda: fired.append("late"))
        sim.run(until=2.0)
        sim.run()
        assert fired == ["late"]

    def test_max_events(self, sim):
        fired = []
        for i in range(10):
            sim.call_in(0.1 * (i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_step(self, sim):
        fired = []
        sim.call_in(0.1, lambda: fired.append(1))
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [1]

    def test_events_fired_counter(self, sim):
        for i in range(5):
            sim.call_in(0.1, lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_pending_excludes_cancelled(self, sim):
        ev = sim.call_in(1.0, lambda: None)
        sim.call_in(2.0, lambda: None)
        ev.cancel()
        assert sim.pending() == 1


class _SortedListSim:
    """Reference scheduler: a list re-sorted by ``(time, seq)`` on every
    pop, sharing no code with the heap."""

    def __init__(self):
        self.t = 0.0
        self.entries = []  # [time, seq, fn, cancelled]
        self.seq = 0
        self.fired = 0

    def now(self):
        return self.t

    def call_at(self, t, fn):
        entry = [t, self.seq, fn, False]
        self.seq += 1
        self.entries.append(entry)
        return entry

    def cancel(self, entry):
        entry[3] = True

    def pending(self):
        return sum(1 for e in self.entries if not e[3])

    def step(self):
        live = sorted((e for e in self.entries if not e[3]),
                      key=lambda e: (e[0], e[1]))
        if not live:
            return False
        entry = live[0]
        self.entries.remove(entry)
        self.t = entry[0]
        self.fired += 1
        entry[2]()
        return True


class _HeapSim:
    """The same four operations on the real engine."""

    def __init__(self):
        self.sim = Simulator(seed=1)
        self.now = self.sim.now
        self.call_at = self.sim.call_at
        self.pending = self.sim.pending
        self.step = self.sim.step

    def cancel(self, event):
        event.cancel()

    @property
    def fired(self):
        return self.sim.events_fired


def _churn(sched, seed, log):
    """Schedule 3 000 tagged events on five instants; callbacks cancel
    earlier handles and re-arm new ones, as protocol timers do."""
    rng = random.Random(seed)
    times = (0.0, 0.25, 0.5, 0.5000000001, 1.0)
    handles = []

    def fire(tag):
        log.append((sched.now(), tag))
        roll = rng.random()
        if roll < 0.3 and handles:
            sched.cancel(handles[rng.randrange(len(handles))])
        if roll > 0.6 and len(handles) < 6000:
            later = [t for t in times if t >= sched.now()]
            arm(rng.choice(later), f"{tag}+")

    def arm(t, tag):
        handles.append(sched.call_at(t, lambda: fire(tag)))

    for i in range(3000):
        arm(rng.choice(times), str(i))
        if i % 7 == 0:
            sched.cancel(handles[rng.randrange(len(handles))])


class TestOrdering:
    def test_equal_times_fire_in_insertion_order_like_a_sorted_list(self):
        ref, ref_log = _SortedListSim(), []
        heap, heap_log = _HeapSim(), []
        _churn(ref, 5, ref_log)
        _churn(heap, 5, heap_log)
        assert heap.pending() == ref.pending()
        # step() one at a time, then run(max_events=...) in a batch, then
        # drain: every stop agrees with the reference.
        for _ in range(500):
            assert heap.step() is ref.step() is True
            assert heap.pending() == ref.pending()
        heap.sim.run(max_events=700)
        for _ in range(700):
            ref.step()
        assert heap.fired == ref.fired == 1200
        assert heap_log == ref_log
        assert heap.pending() == ref.pending()
        heap.sim.run()
        while ref.step():
            pass
        assert heap.step() is False
        assert heap_log == ref_log and len(ref_log) > 3000
        assert heap.fired == ref.fired == len(ref_log)
        assert heap.pending() == ref.pending() == 0
        # insertion order within an instant: times never go backward
        assert [t for t, _ in heap_log] == sorted(t for t, _ in heap_log)

    def test_heap_never_compares_events(self, sim):
        # ``seq`` is unique, so a heap entry's third element is
        # unreachable; Event must not grow an ordering again.
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(Event, name) is getattr(object, name)
        a = sim.call_at(1.0, lambda: None)
        b = sim.call_at(1.0, lambda: None)
        with pytest.raises(TypeError):
            a < b
        sim.run()
        assert sim.events_fired == 2

    def test_call_in_dispatches_through_call_at(self):
        # The seam benchmarks/perf/tracing.py relies on: a subclass
        # overriding only call_at(self, t, fn) sees every callback.
        seen = []

        class Recording(Simulator):
            def call_at(self, t, fn):
                seen.append((t, fn))
                return super().call_at(t, fn)

        sim = Recording(seed=1)
        fired = []
        first = lambda: (fired.append("a"), sim.call_in(0.5, second))
        second = lambda: fired.append("b")
        sim.call_in(1.0, first)
        sim.run()
        assert fired == ["a", "b"]
        assert seen == [(1.0, first), (1.5, second)]


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = Simulator(seed=7)
        b = Simulator(seed=7)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_fork_rng_stable(self):
        a = Simulator(seed=7).fork_rng("x")
        b = Simulator(seed=7).fork_rng("x")
        assert a.random() == b.random()

    def test_fork_rng_label_differs(self):
        s = Simulator(seed=7)
        assert s.fork_rng("x").random() != s.fork_rng("x").random()
