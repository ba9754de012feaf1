"""Tests for repro.core.energy — Equations 1 and 2."""

import numpy as np
import pytest

from repro.core.energy import ModeEnergyModel, P_ACTIVE, TransitionDurations
from repro.core.intervals import IntervalPopulation
from repro.core.modes import Mode
from repro.core.policy import OptDrowsy
from repro.core.savings import evaluate_policy
from repro.errors import ConfigurationError, PolicyError


class TestTransitionDurations:
    def test_paper_defaults(self, durations):
        assert (durations.s1, durations.s3, durations.s4) == (30, 3, 4)
        assert (durations.d1, durations.d3) == (3, 3)

    def test_overheads(self, durations):
        assert durations.sleep_overhead == 37
        assert durations.drowsy_overhead == 6

    def test_rejects_negative_duration(self):
        with pytest.raises(ConfigurationError):
            TransitionDurations(s1=-1)

    def test_rejects_non_integer_duration(self):
        with pytest.raises(ConfigurationError):
            TransitionDurations(s1=2.5)

    def test_rejects_zero_drowsy_transition(self):
        with pytest.raises(ConfigurationError):
            TransitionDurations(d1=0, d3=0)


class TestModeEnergyModel:
    def test_active_energy_is_linear(self, model70):
        assert model70.energy(Mode.ACTIVE, 100) == pytest.approx(100 * P_ACTIVE)
        assert model70.energy(Mode.ACTIVE, 1) == pytest.approx(P_ACTIVE)

    def test_drowsy_energy_matches_equation2(self, model70):
        # E_D = ramp(d1) + p_d * d2 + ramp(d3), with trapezoidal ramps.
        length = 1000
        d = model70.durations
        ramp = 0.5 * (model70.p_active + model70.p_drowsy)
        expected = (
            ramp * d.d1
            + model70.p_drowsy * (length - d.d1 - d.d3)
            + ramp * d.d3
        )
        assert model70.energy(Mode.DROWSY, length) == pytest.approx(expected)

    def test_sleep_energy_matches_equation1(self, model70):
        length = 5000
        d = model70.durations
        ramp = 0.5 * (model70.p_active + model70.p_sleep)
        expected = (
            ramp * d.s1
            + model70.p_sleep * (length - d.sleep_overhead)
            + ramp * d.s3
            + model70.p_active * d.s4
            + model70.refetch_energy
        )
        assert model70.energy(Mode.SLEEP, length) == pytest.approx(expected)

    def test_sleep_includes_refetch_energy(self, node70):
        with_refetch = ModeEnergyModel(node70)
        without = ModeEnergyModel(node70.with_refetch_energy(0.0))
        delta = with_refetch.energy(Mode.SLEEP, 1000) - without.energy(
            Mode.SLEEP, 1000
        )
        assert delta == pytest.approx(node70.refetch_energy_cycles)

    def test_drowsy_cheaper_than_active_beyond_overhead(self, model70):
        lengths = np.array([7, 50, 1057, 100000])
        assert np.all(
            model70.energy(Mode.DROWSY, lengths) < model70.energy(Mode.ACTIVE, lengths)
        )

    def test_sleep_cheaper_than_drowsy_only_beyond_inflection(self, model70):
        assert model70.energy(Mode.SLEEP, 2000) < model70.energy(Mode.DROWSY, 2000)
        assert model70.energy(Mode.SLEEP, 500) > model70.energy(Mode.DROWSY, 500)

    def test_feasibility_bounds(self, model70):
        # Each mode prices from its transition time up, never below it.
        for mode, floor in ((Mode.DROWSY, 6), (Mode.SLEEP, 37), (Mode.ACTIVE, 1)):
            model70.energy(mode, floor)
            model70.energy(mode, np.array([floor, 10 * floor]))
            with pytest.raises(PolicyError, match="transition time|positive"):
                model70.energy(mode, floor - 1)
            with pytest.raises(PolicyError, match="transition time|positive"):
                model70.energy(mode, np.array([10 * floor, floor - 1]))

    def test_infeasible_drowsy_raises(self, model70):
        with pytest.raises(PolicyError, match="drowsy mode"):
            model70.energy(Mode.DROWSY, 5)

    def test_infeasible_sleep_raises(self, model70):
        with pytest.raises(PolicyError, match="sleep mode"):
            model70.energy(Mode.SLEEP, 36)

    def test_nonpositive_length_raises(self, model70):
        with pytest.raises(PolicyError, match="positive"):
            model70.energy(Mode.ACTIVE, 0)
        with pytest.raises(PolicyError, match="positive"):
            model70.energy(Mode.DROWSY, -3)
        with pytest.raises(PolicyError, match="positive"):
            model70.energy(Mode.ACTIVE, np.array([5, 0]))

    def test_decay_sleep_charges_full_power_wait(self, model70):
        length, wait = 20_000, 10_000
        expected = model70.p_active * wait + model70.energy(Mode.SLEEP, length - wait)
        assert model70.energy(Mode.SLEEP, length, wait) == expected
        lengths = np.array([length, 2 * length])
        np.testing.assert_array_equal(
            model70.energy(Mode.SLEEP, lengths, wait),
            [model70.energy(Mode.SLEEP, int(v), wait) for v in lengths],
        )

    def test_decay_sleep_needs_room_after_wait(self, model70):
        model70.energy(Mode.SLEEP, 10_037, 10_000)
        with pytest.raises(PolicyError, match="transition time"):
            model70.energy(Mode.SLEEP, 10_036, 10_000)
        with pytest.raises(PolicyError, match="transition time"):
            model70.energy(Mode.SLEEP, np.array([50_000, 10_020]), 10_000)

    def test_decay_sleep_rejects_negative_wait(self, model70):
        with pytest.raises(PolicyError, match="non-negative"):
            model70.energy(Mode.SLEEP, 1000, -1)

    def test_energy_dispatch(self, model70):
        # Every mode prices from the constants affine() reports.
        for mode in Mode:
            slope, intercept = model70.affine(mode)
            assert model70.energy(mode, 5000) == slope * 5000 + intercept

    def test_saving_is_baseline_minus_mode(self, model70):
        # What evaluate_policy saves on an interval is its active energy
        # less its energy in the assigned mode.
        length = 4000
        report = evaluate_policy(OptDrowsy(model70), IntervalPopulation.of([length]))
        assert report.baseline_energy - report.policy_energy == pytest.approx(
            model70.energy(Mode.ACTIVE, length) - model70.energy(Mode.DROWSY, length)
        )

    def test_vectorized_matches_scalar(self, model70):
        lengths = np.array([50, 1057, 5000, 100000], dtype=np.int64)
        for mode in Mode:
            vector = model70.energy(mode, lengths)
            assert vector.dtype == np.float64
            np.testing.assert_array_equal(
                vector, [model70.energy(mode, int(v)) for v in lengths]
            )
        assert model70.energy(Mode.SLEEP, lengths[:0]).shape == (0,)

    def test_step_ramps_cost_more(self, node70):
        trapezoid = ModeEnergyModel(node70, trapezoidal_ramps=True)
        step = ModeEnergyModel(node70, trapezoidal_ramps=False)
        assert step.energy(Mode.DROWSY, 1000) > trapezoid.energy(Mode.DROWSY, 1000)
        assert step.energy(Mode.SLEEP, 5000) > trapezoid.energy(Mode.SLEEP, 5000)

    def test_mode_powers_follow_node_ratios(self, node70, model70):
        assert model70.p_drowsy == pytest.approx(node70.drowsy_ratio)
        assert model70.p_sleep == pytest.approx(node70.sleep_ratio)
