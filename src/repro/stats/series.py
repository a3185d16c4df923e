"""Append-only time series with windowed reductions."""

from __future__ import annotations

import bisect
from typing import Optional

from repro.stats.percentile import percentile


class TimeSeries:
    """(time, value) samples, appended in time order."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def add(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(f"time went backwards: {t} < {self.times[-1]}")
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def window(self, start: float, end: float) -> list[float]:
        """Values with start <= t <= end."""
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_right(self.times, end)
        return self.values[i:j]

    def mean(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        vals = self.window(
            start if start is not None else float("-inf"),
            end if end is not None else float("inf"),
        )
        if not vals:
            raise ValueError(f"no samples in window for series {self.name!r}")
        return sum(vals) / len(vals)

    def pct(self, p: float, start: Optional[float] = None,
            end: Optional[float] = None) -> float:
        vals = self.window(
            start if start is not None else float("-inf"),
            end if end is not None else float("inf"),
        )
        return percentile(vals, p)

    def last(self, default: float = 0.0) -> float:
        return self.values[-1] if self.values else default
