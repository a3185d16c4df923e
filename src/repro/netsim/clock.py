"""Virtual clock shared by every component of a simulation."""


class Clock:
    """Monotonic virtual clock measured in seconds.

    Only the simulator advances the clock.  Cold paths read it through
    :meth:`now`, the engine and the per-packet handlers its ``_now``
    slot in place.  Keeping the clock separate from the event queue
    lets protocol modules be unit-tested with a hand-driven clock.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        """Return the current simulated time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t``.

        Raises :class:`ValueError` if ``t`` is in the past or NaN; the
        simulator never rewinds time and neither may tests.
        """
        if not t >= self._now:
            raise ValueError(f"clock cannot rewind: {t} < {self._now}")
        self._now = t

    def advance_by(self, dt: float) -> None:
        """Move the clock forward by ``dt`` seconds (``dt >= 0``)."""
        if not dt >= 0:  # also rejects NaN
            raise ValueError(f"negative clock step: {dt}")
        self._now += dt

    def __repr__(self) -> str:
        return f"Clock(now={self._now:.9f})"
