"""Tests for repro.core.policy — the paper's management schemes."""

import numpy as np
import pytest

from repro.core.inflection import InflectionPoints
from repro.core.intervals import IntervalKind
from repro.core.modes import Mode
from repro.core.policy import (
    ACTIVE,
    CODE_MODES,
    DROWSY,
    SLEEP,
    AlwaysActive,
    DecaySleep,
    OptDrowsy,
    OptHybrid,
    OptSleep,
    standard_policies,
)
from repro.errors import PolicyError

LENGTHS = np.array([1, 6, 7, 500, 1057, 1058, 9_999, 10_001, 10_100, 200_000])


class TestAlwaysActive:
    def test_everything_active(self, model70):
        assert np.all(AlwaysActive(model70).modes(LENGTHS) == ACTIVE)

    def test_energies_equal_baseline(self, model70):
        policy = AlwaysActive(model70)
        np.testing.assert_allclose(
            policy.energies(LENGTHS), model70.energy(Mode.ACTIVE, LENGTHS)
        )


class TestOptDrowsy:
    def test_drowsy_beyond_active_point(self, model70):
        codes = OptDrowsy(model70).modes(LENGTHS)
        assert list(codes[:2]) == [ACTIVE, ACTIVE]
        assert np.all(codes[2:] == DROWSY)

    def test_never_sleeps(self, model70):
        assert not np.any(OptDrowsy(model70).modes(LENGTHS) == SLEEP)


class TestOptSleep:
    def test_default_threshold_is_inflection_point(self, model70):
        policy = OptSleep(model70)
        assert policy.threshold == pytest.approx(policy.points.drowsy_sleep)

    def test_threshold_split(self, model70):
        codes = OptSleep(model70, threshold=10_000).modes(LENGTHS)
        assert np.all(codes[LENGTHS <= 10_000] == ACTIVE)
        assert np.all(codes[LENGTHS > 10_000] == SLEEP)

    def test_rejects_infeasible_threshold(self, model70):
        with pytest.raises(PolicyError):
            OptSleep(model70, threshold=10)

    def test_name_formats_thousands(self, model70):
        assert OptSleep(model70, threshold=10_000).name == "OPT-Sleep(10K)"


class TestDecaySleep:
    def test_requires_room_beyond_decay_interval(self, model70):
        policy = DecaySleep(model70, decay_interval=10_000)
        codes = policy.modes(np.array([10_001, 10_036, 10_037, 50_000]))
        assert list(codes) == [ACTIVE, ACTIVE, SLEEP, SLEEP]

    def test_energy_charges_full_power_wait(self, model70):
        policy = DecaySleep(model70, decay_interval=10_000, counter_overhead=0.0)
        lengths = np.array([50_000])
        expected = model70.energy(Mode.SLEEP, 50_000, 10_000)
        assert policy.energies(lengths)[0] == pytest.approx(expected)

    def test_decay_never_beats_opt_sleep(self, model70):
        decay = DecaySleep(model70, 10_000, counter_overhead=0.0)
        opt = OptSleep(model70, threshold=10_000)
        lengths = np.array([10_037, 20_000, 10**6])
        assert np.all(decay.energies(lengths) >= opt.energies(lengths))

    def test_counter_overhead_recorded(self, model70):
        policy = DecaySleep(model70, 10_000, counter_overhead=0.01)
        assert policy.overhead_power_fraction == pytest.approx(0.01)

    def test_invalid_parameters(self, model70):
        with pytest.raises(PolicyError):
            DecaySleep(model70, decay_interval=0)
        with pytest.raises(PolicyError):
            DecaySleep(model70, 10_000, counter_overhead=-0.1)

    def test_name(self, model70):
        assert DecaySleep(model70, 10_000).name == "Sleep(10K)"


class TestOptHybrid:
    def test_three_regions(self, model70):
        codes = OptHybrid(model70).modes(LENGTHS)
        b = model70.node.refetch_energy_cycles  # noqa: F841 (readability)
        expected = [
            ACTIVE, ACTIVE, DROWSY, DROWSY, DROWSY,
            SLEEP, SLEEP, SLEEP, SLEEP, SLEEP,
        ]
        assert list(codes) == expected

    def test_raised_threshold_extends_drowsy_region(self, model70):
        policy = OptHybrid(model70, sleep_threshold=10_000)
        codes = policy.modes(LENGTHS)
        assert codes[LENGTHS.tolist().index(9_999)] == DROWSY
        assert codes[LENGTHS.tolist().index(10_001)] == SLEEP

    def test_threshold_below_inflection_rejected(self, model70):
        with pytest.raises(PolicyError):
            OptHybrid(model70, sleep_threshold=500)

    def test_infeasible_drowsy_sleep_point_rejected(self, model70, monkeypatch):
        # solve_sleep_drowsy_point already refuses such nodes; the policy
        # re-checks so a sleep region below the transition time can never
        # be priced, whatever supplied the inflection points.
        import repro.core.policy as policy_module

        below = model70.sleep_min_length - 1
        monkeypatch.setattr(
            policy_module,
            "inflection_points",
            lambda model: InflectionPoints(active_drowsy=6, drowsy_sleep=below),
        )
        with pytest.raises(PolicyError, match="sleep transition time"):
            OptHybrid(model70)
        OptHybrid(model70, sleep_threshold=model70.sleep_min_length)

    def test_hybrid_energy_never_above_components(self, model70, rng):
        lengths = rng.integers(1, 10**6, size=2000)
        hybrid = OptHybrid(model70).energies(lengths)
        drowsy = OptDrowsy(model70).energies(lengths)
        sleep = OptSleep(model70).energies(lengths)
        assert np.all(hybrid <= drowsy + 1e-9)
        assert np.all(hybrid <= sleep + 1e-9)


class TestDeadAwarePricing:
    def test_dead_sleep_skips_refetch(self, model70):
        policy = OptHybrid(model70)
        lengths = np.array([50_000, 50_000])
        kinds = np.array([IntervalKind.NORMAL, IntervalKind.DEAD], dtype=np.uint8)
        energies = policy.energies(lengths, kinds, dead_aware=True)
        assert energies[0] - energies[1] == pytest.approx(model70.refetch_energy)

    def test_cold_sleep_also_skips_entry_ramp(self, model70):
        policy = OptHybrid(model70)
        lengths = np.array([50_000, 50_000])
        kinds = np.array([IntervalKind.DEAD, IntervalKind.COLD], dtype=np.uint8)
        energies = policy.energies(lengths, kinds, dead_aware=True)
        assert energies[1] < energies[0]

    def test_default_is_uniform(self, model70):
        policy = OptHybrid(model70)
        lengths = np.array([50_000, 50_000])
        kinds = np.array([IntervalKind.NORMAL, IntervalKind.DEAD], dtype=np.uint8)
        energies = policy.energies(lengths, kinds, dead_aware=False)
        assert energies[0] == pytest.approx(energies[1])


class TestSafety:
    def test_scalar_mode_for(self, model70):
        policy = OptHybrid(model70)
        codes = policy.modes(np.array([3, 100, 5000], dtype=np.int64))
        assert [CODE_MODES[int(code)] for code in codes] == [
            Mode.ACTIVE,
            Mode.DROWSY,
            Mode.SLEEP,
        ]

    def test_standard_policies_order(self, model70):
        names = [p.name for p in standard_policies(model70)]
        assert names == ["OPT-Drowsy", "Sleep(10K)", "OPT-Sleep(10K)", "OPT-Hybrid"]
