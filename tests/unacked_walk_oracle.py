"""The receiver's unacked-list walk as it stood in
``TransportReceiver.build_feedback`` before the receiver started reusing
the walk for an unchanged reassembly buffer, kept verbatim as the oracle
for ``tests/test_receiver.py::TestUnackedWalkOracle``: every build walks
every gap from the cumulative ACK up, stamps the first-seen time of new
gaps and forgets the gaps that closed.
"""

from __future__ import annotations

from repro.transport.intervals import IntervalSet


def unacked_walk(intervals: IntervalSet, gap_first_seen: dict[int, float],
                 cum_ack: int, now: float, max_unacked_blocks: int,
                 min_gap_age_s: float) -> list[tuple[int, int]]:
    """The unacked blocks of one build; updates *gap_first_seen*."""
    unacked: list[tuple[int, int]] = []
    if max_unacked_blocks > 0:
        # Gaps from cum_ack up: everything below it was consumed
        # (removed from the interval set), not lost.  A settling
        # allowance (paper S7) suppresses gaps younger than
        # ``min_gap_age_s`` so mild reordering is not read as loss.
        current: set[int] = set()
        for gap in intervals.gaps(intervals.max_end(),
                                  start=cum_ack):
            current.add(gap[0])
            first_seen = gap_first_seen.setdefault(gap[0], now)
            if now - first_seen < min_gap_age_s:
                continue
            if len(unacked) < max_unacked_blocks:
                unacked.append(gap)
        for key in [k for k in gap_first_seen if k not in current]:
            del gap_first_seen[key]
    return unacked
