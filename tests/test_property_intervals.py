"""Property-based tests for the IntervalSet (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.intervals import IntervalSet

ranges_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 30)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    min_size=0,
    max_size=30,
)


def brute_force_set(ranges):
    present = set()
    for start, end in ranges:
        present.update(range(start, end))
    return present


@given(ranges_strategy)
def test_membership_matches_brute_force(ranges):
    s = IntervalSet(ranges)
    expected = brute_force_set(ranges)
    for value in range(0, 240):
        assert (value in s) == (value in expected)


@given(ranges_strategy)
def test_covered_matches_brute_force(ranges):
    s = IntervalSet(ranges)
    assert s.covered() == len(brute_force_set(ranges))


@given(ranges_strategy)
def test_ranges_disjoint_and_sorted(ranges):
    s = IntervalSet(ranges)
    rs = s.ranges()
    for (s1, e1), (s2, e2) in zip(rs, rs[1:]):
        assert e1 < s2  # disjoint, not even touching
    for start, end in rs:
        assert start < end


@given(ranges_strategy)
def test_add_returns_new_count(ranges):
    s = IntervalSet()
    total = set()
    for start, end in ranges:
        before = len(total)
        total.update(range(start, end))
        assert s.add(start, end) == len(total) - before


@given(ranges_strategy, st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 30)), max_size=12))
def test_tail_adds_match_brute_force(ranges, tail_adds):
    """Ranges starting exactly at the last end (extend the tail) or
    beyond it (append) skip the search; return value, ``ranges()`` and
    ``covered()`` must not tell."""
    s = IntervalSet(ranges)
    expected = brute_force_set(ranges)
    for gap, length in tail_adds:
        start = s.max_end() + gap
        before = len(expected)
        expected.update(range(start, start + length))
        assert s.add(start, start + length) == len(expected) - before
        assert brute_force_set(s.ranges()) == expected
        assert s.covered() == len(expected)
        rs = s.ranges()
        assert rs[-1][1] == start + length
        assert all(e1 < s2 for (_, e1), (s2, _) in zip(rs, rs[1:]))


@given(ranges_strategy, st.integers(0, 240))
def test_first_missing_matches_brute_force(ranges, probe):
    s = IntervalSet(ranges)
    expected = brute_force_set(ranges)
    value = probe
    while value in expected:
        value += 1
    assert s.first_missing(probe) == value


@given(ranges_strategy, st.integers(0, 240), st.integers(0, 240))
def test_gaps_complement_ranges(ranges, upto, start):
    s = IntervalSet(ranges)
    expected = brute_force_set(ranges)
    for lo in (0, start):
        gaps = s.gaps(upto, lo) if lo else s.gaps(upto)
        assert all(a < b for a, b in gaps)
        assert gaps == sorted(gaps)
        gap_values = set()
        for a, b in gaps:
            gap_values.update(range(a, b))
        assert gap_values == set(range(lo, upto)) - expected


@given(ranges_strategy, st.integers(0, 240))
def test_remove_below_drops_exactly(ranges, bound):
    s = IntervalSet(ranges)
    expected = {v for v in brute_force_set(ranges) if v >= bound}
    s.remove_below(bound)
    assert brute_force_set(s.ranges()) == expected


@given(ranges_strategy)
@settings(max_examples=50)
def test_idempotent_re_add(ranges):
    s = IntervalSet(ranges)
    snapshot = s.ranges()
    for start, end in ranges:
        assert s.add(start, end) == 0
    assert s.ranges() == snapshot


# An op is ("add", start, end) -- empty and inverted ranges included --
# or ("remove_below", bound); bounds land below, inside, between and
# above the ranges.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 200), st.integers(-5, 30)).map(
            lambda t: (t[0], t[1], t[1] + t[2])),
        st.tuples(st.just("remove_below"), st.integers(0, 240)),
    ),
    max_size=40,
)


@given(ops_strategy)
def test_covered_counter_tracks_every_mutation(ops):
    s = IntervalSet()
    expected = set()
    for op in ops:
        if op[0] == "add":
            s.add(op[1], op[2])
            expected.update(range(op[1], op[2]))
        else:
            s.remove_below(op[1])
            expected = {v for v in expected if v >= op[1]}
        assert s.covered() == sum(e - b for b, e in s.ranges())
        assert brute_force_set(s.ranges()) == expected


@given(ranges_strategy, st.integers(0, 6), st.integers(0, 240))
def test_last_ranges_is_the_filtered_tail(ranges, count, above):
    s = IntervalSet(ranges)
    reaching = [r for r in s.ranges() if r[1] > above]
    assert s.last_ranges(count, above) == reaching[max(0, len(reaching) - count):]
