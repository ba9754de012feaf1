"""Tests for repro.core.intervals, and for building one frame's intervals
from its access times with the scalar interval collector."""

import pytest

from repro.core.intervals import TAIL, IntervalKind, IntervalPopulation
from repro.errors import IntervalError, SimulationError
from repro.prefetch.analysis import _CacheAnnotator


def _rows(population):
    """``(length, kind, count)`` of every population row."""
    return list(
        zip(
            population.lengths.tolist(),
            population.kinds.tolist(),
            population.counts.tolist(),
        )
    )


def _frame(times, end=None):
    """One frame's population: the first access fills it, the rest hit."""
    collector = _CacheAnnotator(n_frames=1, floor=6)
    for index, time in enumerate(times):
        collector.observe(0, 0, time, index > 0, False)
    return collector.population(times[-1] if end is None else end)


class TestConstruction:
    def test_from_lengths(self):
        ivs = IntervalPopulation.of([3, 5, 8])
        assert len(ivs) == 3
        assert ivs.total_cycles == 16

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(IntervalError):
            IntervalPopulation.of([3, 0, 8])

    def test_rejects_non_flat_lengths(self):
        with pytest.raises(IntervalError):
            IntervalPopulation.of([[3, 5]])

    def test_rejects_mismatched_kinds(self):
        with pytest.raises(IntervalError):
            IntervalPopulation.of([3, 5], kinds=[0])

    def test_rejects_unknown_kind_value(self):
        with pytest.raises(IntervalError):
            IntervalPopulation.of([3], kinds=[9])

    @pytest.mark.parametrize(
        "columns",
        [
            {"kinds": [4]},  # would fold as length 3, NORMAL
            {"kinds": [-1]},  # would fold as length -1
            {"tail": [3]},  # would set the stride bit
            {"nextline": [2]},  # would set the kind bits
        ],
    )
    def test_fold_rejects_out_of_range_classes(self, columns):
        with pytest.raises(IntervalError):
            IntervalPopulation.of([2], **columns)

    def test_empty(self):
        assert len(IntervalPopulation.of([])) == 0
        assert IntervalPopulation.of([]).total_cycles == 0


class TestFromAccessTimes:
    def test_simple_gaps(self):
        ivs = _frame([10, 15, 25]).of_kind(IntervalKind.NORMAL)
        assert _rows(ivs) == [(5, 0, 1), (10, 0, 1)]

    def test_zero_gaps_dropped(self):
        ivs = _frame([10, 10, 15]).of_kind(IntervalKind.NORMAL)
        assert _rows(ivs) == [(5, 0, 1)]

    def test_cold_interval_prepended(self):
        ivs = _frame([10, 15])
        assert _rows(ivs) == [
            (5, IntervalKind.NORMAL, 1),
            (10, IntervalKind.COLD, 1),
        ]

    def test_dead_tail_appended(self):
        ivs = _frame([10, 15], end=40).of_kind(IntervalKind.DEAD)
        assert _rows(ivs) == [(25, IntervalKind.DEAD, 1)]
        assert ivs.classes[0] & TAIL

    def test_unsorted_times_rejected(self):
        with pytest.raises(SimulationError):
            _frame([10, 5])

    def test_end_before_last_access_rejected(self):
        with pytest.raises(SimulationError):
            _frame([10], end=5)

    def test_empty_frame_whole_timeline_cold(self):
        ivs = _CacheAnnotator(n_frames=1, floor=6).population(100)
        assert _rows(ivs) == [(100, IntervalKind.COLD, 1)]


class TestViewsAndStats:
    def test_of_kind_and_live_only(self):
        ivs = IntervalPopulation.of([1, 2, 3], kinds=[0, 1, 2])
        assert list(ivs.of_kind(IntervalKind.NORMAL).lengths) == [1]
        assert list(ivs.of_kind(IntervalKind.DEAD).lengths) == [2]

    def test_as_normal_erases_kinds(self):
        ivs = IntervalPopulation.of([1, 2], kinds=[1, 2]).as_normal()
        assert all(k == IntervalKind.NORMAL for k in ivs.kinds)

    def test_count_by_class_half_open_semantics(self):
        # Classes are (0, a], (a, b], (b, inf): a boundary value belongs
        # to the lower class, as in the paper's Theorem 1 regions.
        ivs = IntervalPopulation.of([6, 7, 1057, 1058])
        mass = ivs.cycle_mass_by_class([6, 1057])
        assert mass == pytest.approx([6 / 2128, 1064 / 2128, 1058 / 2128])

    def test_cycle_mass_by_class_sums_to_one(self, rng):
        ivs = IntervalPopulation.of(rng.integers(1, 10**6, size=1000))
        mass = ivs.cycle_mass_by_class([6, 1057, 10000])
        assert sum(mass) == pytest.approx(1.0)

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(IntervalError):
            IntervalPopulation.of([5]).cycle_mass_by_class([10, 5])

    def test_statistics(self):
        population = IntervalPopulation.of([2, 4, 6], kinds=[0, 0, 1])
        assert len(population) == 3
        assert population.total_cycles == 12
        assert len(population.of_kind(IntervalKind.DEAD)) == 1

    def test_equality(self):
        assert IntervalPopulation.of([1, 2]) == IntervalPopulation.of([1, 2])
        assert IntervalPopulation.of([1, 2]) != IntervalPopulation.of([1, 3])
