"""Event queue and simulation driver.

The pending set is a binary heap (:mod:`heapq`) of entries
``[time, seq, fn, mark]``, one exact ``list`` per scheduled callback,
and the entry is the handle :meth:`Simulator.call_at` returns.  Three
properties matter:

* **Determinism** -- ties in firing time are broken by insertion order
  (``seq``, a monotonically increasing sequence number), never by
  callback identity, so a given seed always replays the same
  trajectory.
* **Ordering runs in C** -- lists compare element by element and
  ``seq`` is unique, so a comparison is always decided by ``time`` or
  ``seq`` (two floats, or two ints) and never reaches ``fn``; a push
  or pop costs no Python-level call however deep the heap is.  A NaN
  time would compare false against everything and silently break the
  heap invariant, which is why :meth:`Simulator.call_at` rejects it.
* **Cancellation** -- protocol timers (RTO, delayed-ACK, TACK period)
  are rescheduled constantly; ``mark`` is ``None`` while the event is
  live, and the queue skips an entry whose mark is set instead of
  paying for removal: :data:`_CANCELLED` once the event is cancelled,
  or the ``(time, seq)`` it is due under once :meth:`Simulator.move`
  moved a receding deadline (the RTO) later without a push.  An entry
  that fired holds no callback (``fn`` is cleared before it runs), so
  a closure holding its own entry is no lasting reference cycle.

Holders go through the simulator (:meth:`~Simulator.cancel`,
:meth:`~Simulator.due`, :meth:`~Simulator.move`); only per-packet code
reads an entry in place.
"""

from __future__ import annotations

import itertools
import random
import sys
from heapq import heappop, heappush, heapreplace
from typing import Callable, Optional

from repro import sanitize
from repro.netsim.clock import Clock

#: The mark of a cancelled entry: the run loop drops it when it surfaces.
_CANCELLED = "cancelled"
_INF = float("inf")


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
        #: clock's own bound method, one call deep; the per-packet
        #: handlers read ``sim.clock._now`` in place instead.
        self.now: Callable[[], float] = self.clock.now
        self.rng = random.Random(seed)
        self._queue: list[list] = []
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
        """Number of callbacks executed so far: counted in a local by
        :meth:`run` and stored when it returns, and before every
        sanitizer hook."""
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
    def call_at(self, t: float, fn: Callable[[], None],
                seq: Optional[int] = None) -> list:
        """Schedule ``fn`` to run at absolute time ``t``; returns the
        event's heap entry, its handle; ``seq``, drawn earlier, keeps
        the entry's ties as if pushed then (a station's ingress wake)."""
        # The clock's slot, read in place: every packet schedules here.
        if not t >= self.clock._now:  # also rejects NaN
            raise ValueError(
                f"cannot schedule in the past: {t} < {self.now()}"
            )
        ev = [t, next(self._seq) if seq is None else seq, fn, None]
        heappush(self._queue, ev)
        return ev

    def call_in(self, delay: float, fn: Callable[[], None]) -> list:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.clock._now + delay, fn)

    @staticmethod
    def cancel(ev: list) -> None:
        """Mark ``ev`` dead; the queue drops it when it surfaces."""
        ev[3] = _CANCELLED

    @staticmethod
    def due(ev: list) -> Optional[float]:
        """When ``ev`` is due (or fired); ``None`` once it is cancelled."""
        mark = ev[3]
        if mark is None:
            return ev[0]
        return None if mark is _CANCELLED else mark[0]

    def move(self, ev: list, t: float) -> None:
        """Move the pending event ``ev`` to time ``t``, not earlier
        than the time it is due.

        The outcome is that of ``cancel(ev)`` followed by
        ``call_at(t, fn)``, with the handle kept and nothing pushed:
        ``ev`` takes the key ``(t, next seq)`` that pair would have
        pushed -- one sequence number drawn, so equal-time ties against
        every other event fall exactly as they would have -- as its
        mark, and its heap entry stays under the old key.  The old key
        is not above the new one, so the entry surfaces before anything
        that must fire after ``ev`` does, and :meth:`run` re-keys it
        there.  An earlier ``t`` would surface too late, which is why
        it is rejected; ``ev`` must not have fired (its holder drops
        the handle when it does).
        """
        mark = ev[3]
        if mark is _CANCELLED:
            raise ValueError(f"cannot move a cancelled event: {ev!r}")
        due = ev[0] if mark is None else mark[0]
        if not t >= due:  # also rejects NaN
            raise ValueError(f"cannot move an event earlier: {t} < {due}")
        ev[3] = (t, next(self._seq))

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
        queue, clock = self._queue, self.clock
        # One test per event for both bounds, one for every plane: all
        # attach before run() (see the class docstring).
        limit = _INF if until is None else until
        fired = self._events_fired
        cap = sys.maxsize if max_events is None else fired + max_events
        san, prof = self.san, self.profiler
        hooked = san is not None or prof is not None
        try:
            while queue:
                ev = queue[0]
                t, _, fn, mark = ev
                if mark is not None:
                    if mark is _CANCELLED:
                        heappop(queue)
                    else:   # moved: re-key the entry at the root
                        ev[0], ev[1] = mark
                        ev[3] = None
                        heapreplace(queue, ev)
                    continue
                if t > limit or fired >= cap:
                    break
                heappop(queue)
                if hooked:
                    self._events_fired = fired
                    if san is not None:
                        san.on_event(t, ev)
                ev[2] = None    # a fired entry holds no callback
                # Clock.advance_to in place, rewind check included.
                if not t >= clock._now:
                    raise ValueError(f"clock cannot rewind: {t} < {clock._now}")
                clock._now = t
                fired += 1
                if hooked and prof is not None:
                    prof.event_begin(fn, len(queue))
                    try:
                        fn()
                    finally:
                        prof.event_end()
                else:
                    fn()
        finally:
            self._events_fired = fired
        if until is not None and clock._now < until:
            clock.advance_to(until)
        return clock._now

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for ev in self._queue if ev[3] is not _CANCELLED)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now():.6f}, "
            f"pending={len(self._queue)}, fired={self._events_fired})"
        )
