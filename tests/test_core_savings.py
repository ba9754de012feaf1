"""Tests for repro.core.savings — the Figure 5 accumulation."""

import pytest

from repro.core.intervals import IntervalPopulation
from repro.core.modes import Mode
from repro.core.policy import AlwaysActive, DecaySleep, OptDrowsy, OptHybrid
from repro.core.savings import ModeBreakdown, evaluate_policy
from repro.errors import IntervalError


@pytest.fixture()
def intervals(rng):
    return IntervalPopulation.of(rng.integers(1, 10**6, size=5000))


class TestEvaluatePolicy:
    def test_always_active_saves_nothing(self, model70, intervals):
        report = evaluate_policy(AlwaysActive(model70), intervals)
        assert report.saving_fraction == pytest.approx(0.0)
        assert report.total_energy == pytest.approx(report.baseline_energy)

    def test_baseline_is_total_cycles(self, model70, intervals):
        report = evaluate_policy(OptHybrid(model70), intervals)
        assert report.baseline_energy == pytest.approx(
            model70.p_active * intervals.total_cycles
        )

    def test_hybrid_dominates_drowsy(self, model70, intervals):
        hybrid = evaluate_policy(OptHybrid(model70), intervals)
        drowsy = evaluate_policy(OptDrowsy(model70), intervals)
        assert hybrid.saving_fraction >= drowsy.saving_fraction

    def test_saving_plus_remaining_is_one(self, model70, intervals):
        report = evaluate_policy(OptHybrid(model70), intervals)
        remaining = report.total_energy / report.baseline_energy
        assert report.saving_fraction + remaining == pytest.approx(1.0)

    def test_breakdown_partitions_population(self, model70, intervals):
        report = evaluate_policy(OptHybrid(model70), intervals)
        total_count = sum(b.interval_count for b in report.breakdown.values())
        total_cycles = sum(b.cycles for b in report.breakdown.values())
        total_energy = sum(b.energy for b in report.breakdown.values())
        assert total_count == len(intervals)
        assert total_cycles == intervals.total_cycles
        assert total_energy == pytest.approx(report.policy_energy)

    def test_overhead_energy_from_counter(self, model70, intervals):
        free = evaluate_policy(
            DecaySleep(model70, 10_000, counter_overhead=0.0), intervals
        )
        taxed = evaluate_policy(
            DecaySleep(model70, 10_000, counter_overhead=0.01), intervals
        )
        expected = 0.01 * intervals.total_cycles
        assert taxed.overhead_energy == pytest.approx(expected)
        assert taxed.saving_fraction < free.saving_fraction

    def test_empty_population_rejected(self, model70):
        with pytest.raises(IntervalError):
            evaluate_policy(OptHybrid(model70), IntervalPopulation.of([]))

    def test_cycles_in_accessor(self, model70):
        intervals = IntervalPopulation.of([3, 100, 50_000])
        report = evaluate_policy(OptHybrid(model70), intervals)
        assert report.breakdown[Mode.ACTIVE].cycles == 3
        assert report.breakdown[Mode.DROWSY].cycles == 100
        assert report.breakdown[Mode.SLEEP].cycles == 50_000

    def test_describe_mentions_policy(self, model70, intervals):
        report = evaluate_policy(OptHybrid(model70), intervals)
        assert "OPT-Hybrid" in report.describe()


class TestCycleShare:
    def test_shares_are_fractions_that_partition_the_population(
        self, model70, intervals
    ):
        report = evaluate_policy(OptHybrid(model70), intervals)
        shares = {
            mode: entry.cycle_share for mode, entry in report.breakdown.items()
        }
        assert all(0.0 <= share <= 1.0 for share in shares.values())
        assert sum(shares.values()) == pytest.approx(1.0)
        for mode, entry in report.breakdown.items():
            assert entry.cycle_share == pytest.approx(
                entry.cycles / intervals.total_cycles
            )

    def test_share_of_known_split(self, model70):
        # 3 active + 100 drowsy + 50 000 sleep cycles under OPT-Hybrid.
        intervals = IntervalPopulation.of([3, 100, 50_000])
        report = evaluate_policy(OptHybrid(model70), intervals)
        total = 50_103
        assert report.breakdown[Mode.ACTIVE].cycle_share == pytest.approx(3 / total)
        assert report.breakdown[Mode.SLEEP].cycle_share == pytest.approx(
            50_000 / total
        )

    def test_unfilled_total_yields_zero(self):
        entry = ModeBreakdown(
            mode=Mode.ACTIVE, interval_count=0, cycles=10, energy=0.0
        )
        assert entry.cycle_share == 0.0


class TestKnownValues:
    """Hand-computed miniature populations."""

    def test_single_long_interval(self, model70):
        intervals = IntervalPopulation.of([100_000])
        report = evaluate_policy(OptHybrid(model70), intervals)
        expected = 1.0 - model70.energy(Mode.SLEEP, 100_000) / 100_000.0
        assert report.saving_fraction == pytest.approx(expected)

    def test_single_short_interval_saves_nothing(self, model70):
        report = evaluate_policy(OptHybrid(model70), IntervalPopulation.of([5]))
        assert report.saving_fraction == pytest.approx(0.0)

    def test_drowsy_only_population_approaches_two_thirds(self, model70):
        # Very long drowsy intervals asymptote to 1 - drowsy_ratio.
        intervals = IntervalPopulation.of([1_000_000])
        report = evaluate_policy(OptDrowsy(model70), intervals)
        assert report.saving_fraction == pytest.approx(
            1.0 - model70.node.drowsy_ratio, abs=1e-4
        )
