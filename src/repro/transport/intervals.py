"""Half-open integer interval set.

The receiver's reassembly buffer, the SACK scoreboard, and the TACK
"acked list"/"unacked list" all need the same algebra: insert byte
ranges, coalesce, and enumerate present ranges or gaps.  Implemented as
a sorted list of disjoint ``[start, end)`` pairs located with
:mod:`bisect`, plus a running count of the integers present so that
:meth:`IntervalSet.covered` does not depend on the number of holes.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator


class IntervalSet:
    """Set of non-negative integers stored as disjoint half-open ranges."""

    __slots__ = ("_starts", "_ends", "_covered")

    def __init__(self, ranges: Iterable[tuple[int, int]] = ()):
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._covered = 0
        for start, end in ranges:
            self.add(start, end)

    # ------------------------------------------------------------------
    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``; returns the number of *new* integers
        added (0 when fully overlapping existing ranges)."""
        if end <= start:
            return 0
        ends = self._ends
        if not ends or start >= ends[-1]:
            # At or beyond the tail (every in-order arrival): extend
            # the last range or append a new one, nothing to search.
            if ends and start == ends[-1]:
                ends[-1] = end
            else:
                self._starts.append(start)
                ends.append(end)
            self._covered += end - start
            return end - start
        i = bisect.bisect_left(ends, start)
        # Ranges [i, j) overlap or touch the new range.
        j = i
        new_start, new_end = start, end
        overlap = 0
        while j < len(self._starts) and self._starts[j] <= end:
            overlap += min(self._ends[j], end) - max(self._starts[j], start)
            new_start = min(new_start, self._starts[j])
            new_end = max(new_end, self._ends[j])
            j += 1
        added = (end - start) - max(0, overlap)
        self._starts[i:j] = [new_start]
        self._ends[i:j] = [new_end]
        self._covered += added
        return added

    def add_and_drain(self, start: int, end: int, floor: int,
                      drain: bool) -> tuple[int, int, int]:
        """``add(max(start, floor), end)``, ``ready = first_missing(floor)``
        and, with ``drain``, ``remove_below(ready)`` in one call; returns
        ``(added, ready, covered())``.  Twin test:
        test_add_and_drain_matches_add_first_missing_remove_below."""
        if start < floor:
            start = floor
        starts, ends = self._starts, self._ends
        if end <= start:
            added = 0
        elif not ends or start >= ends[-1]:     # add's tail case
            if ends and start == ends[-1]:
                ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
            added = end - start
            self._covered += added
        else:
            added = self.add(start, end)
        if not starts or starts[0] > floor:     # nothing ready
            return added, floor, self._covered
        ready = self.first_missing(floor)
        if drain:
            self.remove_below(ready)
        return added, ready, self._covered

    def remove_below(self, bound: int) -> None:
        """Delete every integer < ``bound`` (used when the app consumes
        in-order data)."""
        starts, ends = self._starts, self._ends
        k = bisect.bisect_right(ends, bound)  # ranges wholly below bound
        if k:
            self._covered -= sum(ends[:k]) - sum(starts[:k])
            del starts[:k]
            del ends[:k]
        if starts and starts[0] < bound:
            self._covered -= bound - starts[0]
            starts[0] = bound

    # ------------------------------------------------------------------
    def __contains__(self, value: int) -> bool:
        i = bisect.bisect_right(self._starts, value) - 1
        return i >= 0 and value < self._ends[i]

    def contains_range(self, start: int, end: int) -> bool:
        """True when every integer in ``[start, end)`` is present."""
        if end <= start:
            return True
        i = bisect.bisect_right(self._starts, start) - 1
        return i >= 0 and self._ends[i] >= end

    def covered(self) -> int:
        """Total number of integers present."""
        return self._covered

    def ranges(self) -> list[tuple[int, int]]:
        """Disjoint present ranges, ascending."""
        return list(zip(self._starts, self._ends))

    def last_ranges(self, count: int, above: int) -> list[tuple[int, int]]:
        """The ``count`` highest ranges that reach past ``above``
        (``end > above``), ascending."""
        n = len(self._ends)
        lo = max(bisect.bisect_right(self._ends, above), n - count)
        return list(zip(self._starts[lo:], self._ends[lo:]))

    def gaps(self, upto: int, start: int = 0) -> list[tuple[int, int]]:
        """Missing ranges within ``[start, upto)``, ascending."""
        starts, ends = self._starts, self._ends
        result = []
        i = bisect.bisect_right(starts, start)
        prev = max(start, ends[i - 1]) if i else start
        while i < len(starts) and starts[i] < upto:
            result.append((prev, starts[i]))
            prev = ends[i]
            i += 1
        if prev < upto:
            result.append((prev, upto))
        return result

    def first_missing(self, from_value: int = 0) -> int:
        """Smallest integer >= ``from_value`` not in the set."""
        i = bisect.bisect_right(self._starts, from_value) - 1
        if i >= 0 and from_value < self._ends[i]:
            return self._ends[i]
        return from_value

    def max_end(self) -> int:
        """One past the largest present integer (0 when empty)."""
        return self._ends[-1] if self._ends else 0

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.ranges())

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __repr__(self) -> str:
        return f"IntervalSet({self.ranges()!r})"
