"""Tests for repro.core.intervals."""

import pytest

from repro.core.intervals import IntervalKind, IntervalSet
from repro.errors import IntervalError


class TestConstruction:
    def test_from_lengths(self):
        ivs = IntervalSet([3, 5, 8])
        assert len(ivs) == 3
        assert ivs.total_cycles == 16

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(IntervalError):
            IntervalSet([3, 0, 8])

    def test_rejects_mismatched_kinds(self):
        with pytest.raises(IntervalError):
            IntervalSet([3, 5], kinds=[0])

    def test_rejects_unknown_kind_value(self):
        with pytest.raises(IntervalError):
            IntervalSet([3], kinds=[9])

    def test_empty(self):
        assert len(IntervalSet.empty()) == 0
        assert IntervalSet.empty().total_cycles == 0


class TestFromAccessTimes:
    def test_simple_gaps(self):
        ivs = IntervalSet.from_access_times([10, 15, 25])
        assert list(ivs.lengths) == [5, 10]
        assert all(k == IntervalKind.NORMAL for k in ivs.kinds)

    def test_zero_gaps_dropped(self):
        ivs = IntervalSet.from_access_times([10, 10, 15])
        assert list(ivs.lengths) == [5]

    def test_cold_interval_prepended(self):
        ivs = IntervalSet.from_access_times([10, 15], start=0)
        assert list(ivs.lengths) == [10, 5]
        assert ivs.kinds[0] == IntervalKind.COLD

    def test_dead_tail_appended(self):
        ivs = IntervalSet.from_access_times([10, 15], end=40)
        assert list(ivs.lengths) == [5, 25]
        assert ivs.kinds[-1] == IntervalKind.DEAD

    def test_unsorted_times_rejected(self):
        with pytest.raises(IntervalError):
            IntervalSet.from_access_times([10, 5])

    def test_start_after_first_access_rejected(self):
        with pytest.raises(IntervalError):
            IntervalSet.from_access_times([10], start=20)

    def test_end_before_last_access_rejected(self):
        with pytest.raises(IntervalError):
            IntervalSet.from_access_times([10], end=5)

    def test_empty_frame_whole_timeline_cold(self):
        ivs = IntervalSet.from_access_times([], start=0, end=100)
        assert list(ivs.lengths) == [100]
        assert ivs.kinds[0] == IntervalKind.COLD


class TestViewsAndStats:
    def test_of_kind_and_live_only(self):
        ivs = IntervalSet([1, 2, 3], kinds=[0, 1, 2])
        assert list(ivs.live_only().lengths) == [1]
        assert list(ivs.of_kind(IntervalKind.DEAD).lengths) == [2]

    def test_as_normal_erases_kinds(self):
        ivs = IntervalSet([1, 2], kinds=[1, 2]).as_normal()
        assert all(k == IntervalKind.NORMAL for k in ivs.kinds)

    def test_count_by_class_half_open_semantics(self):
        # Classes are (0, a], (a, b], (b, inf): a boundary value belongs
        # to the lower class, as in the paper's Theorem 1 regions.
        ivs = IntervalSet([6, 7, 1057, 1058]).reduced()
        mass = ivs.cycle_mass_by_class([6, 1057])
        assert mass == pytest.approx([6 / 2128, 1064 / 2128, 1058 / 2128])

    def test_cycle_mass_by_class_sums_to_one(self, rng):
        ivs = IntervalSet(rng.integers(1, 10**6, size=1000)).reduced()
        mass = ivs.cycle_mass_by_class([6, 1057, 10000])
        assert sum(mass) == pytest.approx(1.0)

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(IntervalError):
            IntervalSet([5]).reduced().cycle_mass_by_class([10, 5])

    def test_statistics(self):
        population = IntervalSet([2, 4, 6], kinds=[0, 0, 1]).reduced()
        assert len(population) == 3
        assert population.total_cycles == 12
        assert len(population.of_kind(IntervalKind.DEAD)) == 1

    def test_equality(self):
        assert IntervalSet([1, 2]) == IntervalSet([1, 2])
        assert IntervalSet([1, 2]) != IntervalSet([1, 3])

