"""Time-windowed running extrema.

BBR's bandwidth filter, TACK's ``bw`` estimate (paper S5.4:
"windowed max-filtered value of the delivery rates"), and both RTT_min
filters (S5.2) are windowed extrema.  The implementation keeps a
monotonic deque of (time, value) candidates — O(1) amortized updates.
"""

from __future__ import annotations

import collections
import operator
from typing import Optional


class _WindowedExtremum:
    """Shared monotonic-deque machinery; subclasses fix the ordering.
    ``value`` is the current extremum (``None``: no sample in window),
    kept by every change, for readers that need no expiry."""

    def __init__(self, window: float):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._samples: collections.deque[tuple[float, float]] = collections.deque()
        self.value: Optional[float] = None

    @staticmethod
    def _better(a: float, b: float) -> bool:
        raise NotImplementedError

    def update(self, value: float, now: float) -> None:
        """Insert a sample taken at time ``now``."""
        samples, better = self._samples, self._better
        # Evict candidates dominated by the new value.
        while samples and not better(samples[-1][1], value):
            samples.pop()
        samples.append((now, value))
        horizon = now - self.window
        while samples[0][0] < horizon:      # never empties: the new one stays
            samples.popleft()
        self.value = samples[0][1]

    def _expire(self, now: float) -> None:
        samples = self._samples
        horizon = now - self.window
        while samples and samples[0][0] < horizon:
            samples.popleft()
        self.value = samples[0][1] if samples else None

    def get(self, now: Optional[float] = None) -> Optional[float]:
        """Current extremum, or ``None`` when no sample is in window.

        Passing ``now`` expires stale candidates first.
        """
        if now is not None:
            self._expire(now)
        return self.value

    def reset(self) -> None:
        self._samples.clear()
        self.value = None


class WindowedMaxFilter(_WindowedExtremum):
    """Maximum over the trailing ``window`` seconds."""

    _better = staticmethod(operator.gt)


class WindowedMinFilter(_WindowedExtremum):
    """Minimum over the trailing ``window`` seconds."""

    _better = staticmethod(operator.lt)
