"""Event queue and simulation driver.

The pending set is a binary heap (:mod:`heapq`) of
``(time, seq, event)`` tuples.  Three properties matter:

* **Determinism** -- ties in firing time are broken by insertion order
  (``seq``, a monotonically increasing sequence number), never by
  callback identity, so a given seed always replays the same
  trajectory.
* **Ordering runs in C** -- tuples compare element by element and
  ``seq`` is unique, so a comparison is always decided by ``time`` or
  ``seq`` (two floats, or two ints) and never reaches the third
  element.  :class:`Event` therefore defines no ordering at all, and a
  push or pop costs no Python-level call however deep the heap is.
  A NaN time would compare false against everything and silently break
  the heap invariant, which is why :meth:`Simulator.call_at` rejects it.
* **Cancellation** -- protocol timers (RTO, delayed-ACK, TACK period)
  are rescheduled constantly; events carry a state and the queue skips
  dead entries lazily instead of paying for removal.  A deadline that
  only recedes (the RTO) is not even re-pushed: :meth:`Simulator.move`.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Optional

from repro import sanitize
from repro.netsim.clock import Clock

#: ``Event._state``, what the run loop does with the heap entry it
#: surfaces: fire it (falsy), drop it, or replace it with the event's
#: current key (the entry is the one from before ``Simulator.move``).
_LIVE, _CANCELLED, _MOVED = range(3)


class Event:
    """A scheduled callback: the handle :meth:`Simulator.call_at` and
    :meth:`Simulator.call_in` return, to :meth:`cancel` or to hand to
    :meth:`Simulator.move`.

    It rides as the third element of its one ``(time, seq, event)``
    heap entry and is never compared (``seq`` is unique, see the module
    docstring), so it deliberately has no ``__lt__``.  ``time`` and
    ``seq`` are the key it fires under, which after a move is not yet
    the key of the entry; a holder reads ``time`` to decide whether
    re-arming would move the event at all.
    """

    __slots__ = ("time", "seq", "fn", "_state")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self._state = _LIVE

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    def cancel(self) -> None:
        """Mark the event dead; the queue drops it when it surfaces."""
        self._state = _CANCELLED

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.9f}, seq={self.seq}, {state})"


class Simulator:
    """Discrete-event simulation driver.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide :class:`random.Random`.  All
        stochastic components (loss models, backoff draws, workload
        jitter) must draw from :attr:`rng` or from generators forked via
        :meth:`fork_rng` so runs are reproducible.
    simsan:
        Runtime invariant checking (see :mod:`repro.sanitize`):
        ``True``/``False`` force it, ``None`` (default) follows the
        ``REPRO_SIMSAN`` environment variable.
    telemetry:
        Optional :class:`repro.telemetry.TraceCollector` capturing
        structured events from instrumented components.
    diagnosis:
        Optional :class:`repro.diagnose.FlowDoctor` reducing the same
        event stream into per-flow bottleneck reports.
    profiler:
        Optional :class:`repro.profile.Profiler` accounting host wall
        time per handler class and subsystem.
    energy:
        Optional :class:`repro.energy.EnergyLedger` folding per-packet
        airtime and radio power states into per-flow joule accounts.

    Construction order: every plane is given here, before any link or
    endpoint exists.  Components resolve what is attached once, at
    build time — cached references, sampling strides, profiled method
    spans — which is what keeps a detached plane at one ``is not None``
    test per site; a plane attached later would be seen by nothing.

    ``telemetry`` and ``diagnosis`` consume the event vocabulary, so
    they subscribe to :attr:`probes` (:mod:`repro.telemetry.bus`, left
    ``None`` with neither attached); the sanitizer, profiler and energy
    ledger consume packet/record objects and stay direct hooks.
    """

    def __init__(self, seed: int = 1, simsan: Optional[bool] = None,
                 telemetry=None, profiler=None, energy=None, diagnosis=None):
        self.clock = Clock()
        #: Current simulated time in seconds: ``sim.now()`` is the
        #: clock's own bound method, one call deep, because every
        #: handler reads the time at least once.
        self.now: Callable[[], float] = self.clock.now
        self.rng = random.Random(seed)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self.san = (sanitize.SimSanitizer(self)
                    if sanitize.resolve(simsan) else None)
        self.probes = None
        self.telemetry = telemetry.attach(self) if telemetry is not None else None
        self.diagnosis = diagnosis.attach(self) if diagnosis is not None else None
        self.energy = energy.attach(self) if energy is not None else None
        self.profiler = profiler
        if profiler is not None:
            profiler.attach(self)

    def enable_sanitizer(self) -> "sanitize.SimSanitizer":
        """Attach (or return the already-attached) invariant sanitizer
        (same construction-order rule as the constructor's planes)."""
        if self.san is None:
            self.san = sanitize.SimSanitizer(self)
        return self.san

    # ------------------------------------------------------------------
    # counters and randomness
    # ------------------------------------------------------------------
    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far (profiling aid)."""
        return self._events_fired

    def fork_rng(self, label: str) -> random.Random:
        """Derive an independent, reproducible RNG for a component.

        Components that consume randomness at different rates would
        otherwise perturb each other through the shared stream.
        """
        return random.Random(f"{self.rng.random()}-{label}")

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, t: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run at absolute time ``t``."""
        # The clock's slot, read in place: every packet schedules here.
        if not t >= self.clock._now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule in the past: {t} < {self.now()}"
            )
        seq = next(self._seq)
        ev = Event(t, seq, fn)
        heapq.heappush(self._queue, (t, seq, ev))
        return ev

    def call_in(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.now() + delay, fn)

    def move(self, ev: Event, t: float) -> None:
        """Move the pending event ``ev`` to time ``t``, not earlier
        than the time it is due.

        The outcome is that of ``ev.cancel()`` followed by
        ``call_at(t, ev.fn)``, with the handle kept and nothing pushed:
        ``ev`` takes the key ``(t, next seq)`` that pair would have
        pushed -- one sequence number drawn, so equal-time ties against
        every other event fall exactly as they would have -- and its
        heap entry stays under the old key.  The old key is not above
        the new one, so the entry surfaces before anything that must
        fire after ``ev`` does, and :meth:`run` replaces it there.  An
        earlier ``t`` would surface too late, which is why it is
        rejected; ``ev`` must not have fired (its holder drops the
        handle when it does).
        """
        if not t >= ev.time:  # also rejects NaN
            raise ValueError(
                f"cannot move an event earlier: {t} < {ev.time}"
            )
        if ev._state == _CANCELLED:
            raise ValueError(f"cannot move a cancelled event: {ev!r}")
        ev.time = t
        ev.seq = next(self._seq)
        ev._state = _MOVED

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``False`` when the queue is empty (simulation is over).
        """
        fired = self._events_fired
        self.run(max_events=1)
        return self._events_fired > fired

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have fired.

        Returns the clock value when the run stops.  When ``until`` is
        given the clock is advanced to exactly ``until`` even if the
        last event fired earlier, mirroring how a wall-clock testbed
        measurement window behaves.
        """
        fired = 0
        queue = self._queue
        heappop = heapq.heappop
        clock = self.clock
        prof = self.profiler  # hoisted: attach happens before run()
        while queue:
            t, _, ev = queue[0]
            if ev._state:
                if ev._state == _MOVED:
                    ev._state = _LIVE
                    heapq.heapreplace(queue, (ev.time, ev.seq, ev))
                else:
                    heappop(queue)
                continue
            if until is not None and t > until:
                break
            if max_events is not None and fired >= max_events:
                break
            heappop(queue)
            if self.san is not None:
                self.san.on_event(t, ev)
            # Clock.advance_to in place, rewind check included.
            if not t >= clock._now:
                raise ValueError(f"clock cannot rewind: {t} < {clock._now}")
            clock._now = t
            self._events_fired += 1
            fired += 1
            if prof is not None:
                prof.event_begin(ev.fn, len(queue))
                try:
                    ev.fn()
                finally:
                    prof.event_end()
            else:
                ev.fn()
        if until is not None and self.now() < until:
            clock.advance_to(until)
        return self.now()

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _, _, ev in self._queue if ev._state != _CANCELLED)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now():.6f}, "
            f"pending={len(self._queue)}, fired={self._events_fired})"
        )
