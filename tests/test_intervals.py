"""Unit tests for the IntervalSet used by reassembly and block lists."""

from repro.transport.intervals import IntervalSet


class TestAdd:
    def test_single_range(self):
        s = IntervalSet()
        assert s.add(0, 10) == 10
        assert s.ranges() == [(0, 10)]

    def test_disjoint_ranges_sorted(self):
        s = IntervalSet()
        s.add(20, 30)
        s.add(0, 10)
        assert s.ranges() == [(0, 10), (20, 30)]

    def test_merge_adjacent(self):
        s = IntervalSet([(0, 10)])
        s.add(10, 20)
        assert s.ranges() == [(0, 20)]

    def test_merge_overlapping(self):
        s = IntervalSet([(0, 10), (20, 30)])
        added = s.add(5, 25)
        assert s.ranges() == [(0, 30)]
        assert added == 10  # only [10,20) was new

    def test_duplicate_adds_nothing(self):
        s = IntervalSet([(0, 10)])
        assert s.add(2, 8) == 0
        assert s.ranges() == [(0, 10)]

    def test_empty_range_ignored(self):
        s = IntervalSet()
        assert s.add(5, 5) == 0
        assert not s

    def test_bridge_many(self):
        s = IntervalSet([(0, 1), (2, 3), (4, 5), (6, 7)])
        s.add(1, 6)
        assert s.ranges() == [(0, 7)]


class TestQueries:
    def test_contains(self):
        s = IntervalSet([(10, 20)])
        assert 10 in s
        assert 19 in s
        assert 20 not in s
        assert 9 not in s

    def test_contains_range(self):
        s = IntervalSet([(0, 100)])
        assert s.contains_range(0, 100)
        assert s.contains_range(50, 60)
        assert not s.contains_range(50, 101)
        assert s.contains_range(5, 5)  # empty range trivially present

    def test_covered(self):
        s = IntervalSet([(0, 10), (20, 25)])
        assert s.covered() == 15

    def test_first_missing(self):
        s = IntervalSet([(0, 10), (20, 30)])
        assert s.first_missing(0) == 10
        assert s.first_missing(10) == 10
        assert s.first_missing(25) == 30
        assert s.first_missing(50) == 50

    def test_max_end(self):
        assert IntervalSet().max_end() == 0
        assert IntervalSet([(5, 9)]).max_end() == 9

    def test_gaps(self):
        s = IntervalSet([(10, 20), (30, 40)])
        assert s.gaps(40) == [(0, 10), (20, 30)]
        assert s.gaps(50) == [(0, 10), (20, 30), (40, 50)]
        assert s.gaps(15) == [(0, 10)]

    def test_gaps_from_a_start(self):
        s = IntervalSet([(10, 20), (30, 40)])
        assert s.gaps(40, start=15) == [(20, 30)]
        assert s.gaps(50, start=25) == [(25, 30), (40, 50)]
        assert s.gaps(20, start=10) == []      # fully covered
        assert s.gaps(10, start=30) == []      # empty window

    def test_gaps_empty_set(self):
        assert IntervalSet().gaps(10) == [(0, 10)]


class TestRemoveBelow:
    def test_removes_whole_ranges(self):
        s = IntervalSet([(0, 10), (20, 30)])
        s.remove_below(15)
        assert s.ranges() == [(20, 30)]

    def test_truncates_partial(self):
        s = IntervalSet([(0, 10)])
        s.remove_below(4)
        assert s.ranges() == [(4, 10)]

    def test_noop_below_everything(self):
        s = IntervalSet([(5, 10)])
        s.remove_below(2)
        assert s.ranges() == [(5, 10)]


class TestReassemblyScenario:
    def test_out_of_order_delivery(self):
        """Simulate segments arriving out of order and check the
        cumulative point the receiver would advertise."""
        s = IntervalSet()
        mss = 1500
        arrival_order = [0, 2, 1, 5, 3, 4]
        cum_points = []
        for idx in arrival_order:
            s.add(idx * mss, (idx + 1) * mss)
            cum_points.append(s.first_missing(0))
        assert cum_points == [1500, 1500, 4500, 4500, 6000, 9000]
