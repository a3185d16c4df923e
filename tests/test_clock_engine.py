"""Unit tests for the virtual clock and event engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.clock import Clock
from repro.netsim import engine
from repro.netsim.engine import Simulator

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
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_cancel_mid_run(self, sim):
        fired = []
        later = sim.call_in(0.2, lambda: fired.append("later"))
        sim.call_in(0.1, lambda: sim.cancel(later))
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

    def test_events_fired_is_exact_at_every_sanitizer_hook(self):
        sim = Simulator(seed=1, simsan=True)
        seen = []
        on_event = sim.san.on_event
        sim.san.on_event = lambda t, ev: (seen.append(sim.events_fired),
                                          on_event(t, ev))
        for i in range(5):
            sim.call_in(0.1 * i, lambda: None)
        sim.run(max_events=2)
        sim.run()
        assert seen == [0, 1, 2, 3, 4] and sim.events_fired == 5

    def test_pending_excludes_cancelled(self, sim):
        ev = sim.call_in(1.0, lambda: None)
        sim.call_in(2.0, lambda: None)
        sim.cancel(ev)
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
        self.sim.cancel(event)

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
        # ``seq`` is unique, so two heap entries compare on their time
        # or their seq and never reach the callback: callbacks whose
        # every comparison raises still fire, in (time, seq) order.
        fired = []

        class Uncomparable:
            def __call__(self):
                fired.append(self)

            def _refuse(self, other):
                raise TypeError("a callback was compared")

            __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse
            __hash__ = object.__hash__

        fns = [Uncomparable() for _ in range(30)]
        with pytest.raises(TypeError):
            fns[0] < fns[1]
        for i, fn in enumerate(fns):
            sim.call_at(float(i % 3), fn)
        a = sim.call_at(5.0, fns[0])
        sim.call_at(5.0, fns[1])
        sim.move(a, 5.0)            # re-keyed at the root, behind fns[1]
        sim.run()
        assert sim.events_fired == 32
        expected = [fns[i] for r in range(3) for i in range(r, 30, 3)]
        expected += [fns[1], fns[0]]
        assert len(fired) == len(expected)
        assert all(f is e for f, e in zip(fired, expected))

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


class _CancelAndPush(Simulator):
    """``move`` as the cancel + ``call_at`` pair it replaces: the
    reference for firing order, ``events_fired`` and ``pending()``.
    Handles are ``[event, callback]`` boxes, because the pair returns a
    new event."""

    def move(self, box, t):
        self.cancel(box[0])
        box[0] = self.call_at(t, box[1])


class _Moving(Simulator):
    """The real ``move`` behind the same boxed-handle interface."""

    def move(self, box, t):
        super().move(box[0], t)


#: Few distinct offsets, zero among them: equal-time ties everywhere.
_OFFSETS = (0.0, 0.0, 0.25, 0.5, 1.0)

_SCHEDULE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.sampled_from(_OFFSETS)),
        st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
        st.tuples(st.just("move"), st.integers(0, 1 << 16),
                  st.sampled_from(_OFFSETS)),
        # An event whose callback moves another one when it fires.
        st.tuples(st.just("mover"), st.sampled_from(_OFFSETS),
                  st.integers(0, 1 << 16), st.sampled_from(_OFFSETS)),
        st.tuples(st.just("until"), st.sampled_from(_OFFSETS)),
        st.tuples(st.just("step"), st.integers(1, 3)),
    ),
    max_size=60)


def _drive(sim, ops):
    """Apply *ops* to *sim*; returns every observation made on the way:
    firing order with times, and ``events_fired`` / ``pending()`` after
    every operation."""
    log = []
    boxes = []          # one per scheduled event, in scheduling order
    fired = set()

    def pending(k):
        return k not in fired and sim.due(boxes[k][0]) is not None

    def arm(dt, then=None):
        k = len(boxes)

        def fire():
            fired.add(k)
            log.append(("fire", k, sim.now()))
            if then is not None:
                then()

        boxes.append([sim.call_at(sim.now() + dt, fire), fire])

    def move(k, dt):
        if boxes and pending(k % len(boxes)):
            box = boxes[k % len(boxes)]
            sim.move(box, sim.due(box[0]) + dt)

    for op in ops:
        if op[0] == "at":
            arm(op[1])
        elif op[0] == "cancel" and boxes:
            sim.cancel(boxes[op[1] % len(boxes)][0])
        elif op[0] == "move":
            move(op[1], op[2])
        elif op[0] == "mover":
            arm(op[1], lambda k=op[2], dt=op[3]: move(k, dt))
        elif op[0] == "until":
            sim.run(until=sim.now() + op[1])
        elif op[0] == "step":
            sim.run(max_events=op[1])
        log.append((sim.events_fired, sim.pending(), sim.now()))
    sim.run()
    log.append((sim.events_fired, sim.pending(), sim.now()))
    return log


class TestMove:
    @settings(max_examples=300, deadline=None)
    @given(_SCHEDULE_OPS)
    def test_move_is_cancel_plus_call_at(self, ops):
        assert _drive(_Moving(seed=1), ops) == _drive(_CancelAndPush(seed=1), ops)

    def test_moved_event_fires_once_at_its_new_time(self, sim):
        fired = []
        ev = sim.call_at(1.0, lambda: fired.append(sim.now()))
        sim.move(ev, 3.0)
        assert sim.due(ev) == pytest.approx(3.0)
        assert repr(ev).endswith(", (3.0, 1)]")    # the mark move drew
        assert sim.pending() == 1
        sim.run(until=2.0)          # the stale entry surfaces here
        assert fired == [] and sim.pending() == 1
        sim.run()
        assert fired == [3.0] and sim.events_fired == 1

    def test_move_draws_one_seq_so_ties_fall_behind_earlier_arrivals(self, sim):
        fired = []
        ev = sim.call_at(1.0, lambda: fired.append("moved"))
        sim.call_at(2.0, lambda: fired.append("armed first"))
        sim.move(ev, 2.0)
        sim.call_at(2.0, lambda: fired.append("armed after the move"))
        sim.run()
        assert fired == ["armed first", "moved", "armed after the move"]

    def test_move_to_the_same_time_still_goes_behind(self, sim):
        fired = []
        ev = sim.call_at(1.0, lambda: fired.append("moved"))
        sim.call_at(1.0, lambda: fired.append("other"))
        sim.move(ev, 1.0)
        sim.run()
        assert fired == ["other", "moved"]

    def test_moved_twice_keeps_one_entry(self, sim, monkeypatch):
        pushes = []
        push = engine.heappush
        monkeypatch.setattr(engine, "heappush",
                            lambda heap, item: (pushes.append(item),
                                                push(heap, item)))
        fired = []
        ev = sim.call_at(1.0, lambda: fired.append(sim.now()))
        sim.move(ev, 2.0)
        sim.move(ev, 5.0)
        assert pushes == [ev] and sim.pending() == 1
        sim.run(until=3.0)
        sim.move(ev, 6.0)           # again, after the entry was re-keyed
        assert pushes == [ev]
        sim.run()
        assert fired == [6.0] and sim.events_fired == 1

    def test_moved_then_cancelled_never_fires(self, sim):
        fired = []
        ev = sim.call_at(1.0, lambda: fired.append("x"))
        sim.move(ev, 2.0)
        sim.cancel(ev)
        assert sim.due(ev) is None and sim.pending() == 0
        assert sim.run() == 0.0
        assert fired == [] and sim.events_fired == 0

    def test_moved_across_an_until_boundary(self, sim):
        fired = []
        ev = sim.call_at(1.0, lambda: fired.append(sim.now()))
        sim.call_at(1.5, lambda: sim.move(ev, 4.0))
        sim.move(ev, 2.5)
        assert sim.run(until=2.0) == 2.0
        assert fired == [] and sim.pending() == 1
        assert sim.due(ev) == pytest.approx(4.0)
        assert sim.run(until=3.0) == 3.0
        assert fired == []
        sim.run()
        assert fired == [4.0]

    def test_max_events_does_not_count_a_replaced_entry(self, sim):
        fired = []
        ev = sim.call_at(1.0, lambda: fired.append("moved"))
        sim.call_at(2.0, lambda: fired.append("other"))
        sim.move(ev, 3.0)
        sim.run(max_events=1)
        assert fired == ["other"] and sim.pending() == 1

    def test_earlier_time_and_nan_rejected(self, sim):
        ev = sim.call_at(2.0, lambda: None)
        with pytest.raises(ValueError):
            sim.move(ev, 1.0)
        with pytest.raises(ValueError):
            sim.move(ev, NAN)
        assert sim.due(ev) == pytest.approx(2.0) and sim.pending() == 1
        sim.run()
        assert sim.events_fired == 1

    def test_cancelled_event_cannot_be_moved(self, sim):
        ev = sim.call_at(2.0, lambda: None)
        sim.cancel(ev)
        with pytest.raises(ValueError):
            sim.move(ev, 3.0)
        assert sim.due(ev) is None and sim.pending() == 0

    def test_sanitizer_catches_an_event_fired_from_its_stale_entry(self):
        from repro.sanitize import InvariantViolation
        sim = Simulator(seed=1, simsan=True)
        ev = sim.call_at(1.0, lambda: None)
        sim.move(ev, 2.0)
        # corrupt: a run loop that fires the entry it surfaced under its
        # old key, move mark and all
        with pytest.raises(InvariantViolation, match="event_clock"):
            sim.san.on_event(1.0, ev)


class _ModelScheduler:
    """An independent model of the engine: one plain list re-sorted by
    ``(time, seq)`` after every change, handles ``[time, seq, fn,
    state]`` rewritten in place by ``move``.  No heap, no marks."""

    def __init__(self):
        self.t, self.seq, self.events_fired = 0.0, 0, 0
        self.live = []

    def now(self):
        return self.t

    def call_at(self, t, fn):
        if not t >= self.t:
            raise ValueError(t)
        handle = [t, self.seq, fn, "live"]
        self.seq += 1
        self.live.append(handle)
        self.live.sort(key=lambda h: (h[0], h[1]))
        return handle

    def call_in(self, dt, fn):
        return self.call_at(self.t + dt, fn)

    def cancel(self, handle):
        handle[3] = "cancelled"
        self.live = [h for h in self.live if h is not handle]

    def due(self, handle):
        return None if handle[3] == "cancelled" else handle[0]

    def move(self, handle, t):
        if handle[3] != "live" or not t >= handle[0]:
            raise ValueError(t)
        handle[0], handle[1] = t, self.seq
        self.seq += 1
        self.live.sort(key=lambda h: (h[0], h[1]))

    def pending(self):
        return len(self.live)

    def run(self, until=None, max_events=None):
        n = 0
        while (self.live and (until is None or self.live[0][0] <= until)
               and (max_events is None or n < max_events)):
            handle = self.live.pop(0)
            handle[3] = "fired"
            self.t = handle[0]
            self.events_fired += 1
            n += 1
            handle[2]()
        if until is not None and self.t < until:
            self.t = until
        return self.t

    def step(self):
        fired = self.events_fired
        self.run(max_events=1)
        return self.events_fired > fired


#: Few distinct offsets, zero among them: equal-time ties everywhere.
#: A move by a negative offset must be refused by both schedulers.
_MODEL_DTS = (0.0, 0.0, 0.25, 1.0)
_MODEL_ACTION = st.one_of(
    st.tuples(st.just("at"), st.sampled_from(_MODEL_DTS), st.none()),
    st.tuples(st.just("in"), st.sampled_from(_MODEL_DTS), st.none()),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
    st.tuples(st.just("move"), st.integers(0, 1 << 16),
              st.sampled_from(_MODEL_DTS + (-0.25,))))
_MODEL_SCRIPT = st.lists(st.one_of(
    _MODEL_ACTION, _MODEL_ACTION,
    # An event whose callback schedules, cancels or moves when it fires.
    st.tuples(st.sampled_from(("at", "in")), st.sampled_from(_MODEL_DTS),
              _MODEL_ACTION),
    # One op in four runs the queue, so ties pile up between runs.
    st.one_of(st.tuples(st.just("until"), st.sampled_from(_MODEL_DTS)),
              st.tuples(st.just("max_events"), st.integers(0, 3)),
              st.tuples(st.sampled_from(("step", "run"))))), max_size=60)


class _Player:
    """Plays a script on one scheduler and reports what it observes."""

    def __init__(self, sched):
        self.sched = sched
        self.handles = []       # one per scheduled callback, in order
        self.fired = set()
        self.trace = []         # (callback index, time), firing order

    def act(self, op):
        sched, handles = self.sched, self.handles
        if op[0] in ("at", "in"):
            k, then = len(handles), op[2]

            def fire():
                self.fired.add(k)
                self.trace.append((k, sched.now()))
                if then is not None:
                    self.act(then)

            handles.append(sched.call_at(sched.now() + op[1], fire)
                           if op[0] == "at" else sched.call_in(op[1], fire))
        elif op[0] == "cancel" and handles:
            sched.cancel(handles[op[1] % len(handles)])
        elif op[0] == "move" and handles:
            k = op[1] % len(handles)
            due = sched.due(handles[k])
            if k not in self.fired and due is not None:
                try:
                    sched.move(handles[k], due + op[2])
                except ValueError:
                    self.trace.append((k, "refused"))
        elif op[0] == "until":
            return sched.run(until=sched.now() + op[1])
        elif op[0] == "max_events":
            return sched.run(max_events=op[1])
        elif op[0] == "step":
            return sched.step()
        elif op[0] == "run":
            return sched.run()

    def observe(self, op):
        sched = self.sched
        returned = self.act(op)
        return (returned, list(self.trace), sched.events_fired,
                sched.pending(), sched.now(),
                [sched.due(h) for h in self.handles])


class TestEngineModel:
    @settings(max_examples=300, deadline=None)
    @given(_MODEL_SCRIPT)
    def test_engine_matches_a_sorted_list_model(self, script):
        real, model = _Player(Simulator(seed=1)), _Player(_ModelScheduler())
        for op in script + [("run",)]:
            assert real.observe(op) == model.observe(op), op
        assert real.sched.pending() == model.sched.pending() == 0
