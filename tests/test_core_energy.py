"""Tests for repro.core.energy — Equations 1 and 2."""

import numpy as np
import pytest

from repro.core.energy import ModeEnergyModel, P_ACTIVE, TransitionDurations
from repro.core.modes import Mode
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
        assert model70.active_energy(100) == pytest.approx(100 * P_ACTIVE)
        assert model70.active_energy(1) == pytest.approx(P_ACTIVE)

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
        assert model70.drowsy_energy(length) == pytest.approx(expected)

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
        assert model70.sleep_energy(length) == pytest.approx(expected)

    def test_sleep_includes_refetch_energy(self, node70):
        with_refetch = ModeEnergyModel(node70)
        without = ModeEnergyModel(node70.with_refetch_energy(0.0))
        delta = with_refetch.sleep_energy(1000) - without.sleep_energy(1000)
        assert delta == pytest.approx(node70.refetch_energy_cycles)

    def test_drowsy_cheaper_than_active_beyond_overhead(self, model70):
        for length in (7, 50, 1057, 100000):
            assert model70.drowsy_energy(length) < model70.active_energy(length)

    def test_sleep_cheaper_than_drowsy_only_beyond_inflection(self, model70):
        assert model70.sleep_energy(2000) < model70.drowsy_energy(2000)
        assert model70.sleep_energy(500) > model70.drowsy_energy(500)

    def test_feasibility_bounds(self, model70):
        assert model70.feasible(Mode.DROWSY, 6)
        assert not model70.feasible(Mode.DROWSY, 5)
        assert model70.feasible(Mode.SLEEP, 37)
        assert not model70.feasible(Mode.SLEEP, 36)
        assert model70.feasible(Mode.ACTIVE, 1)

    def test_infeasible_drowsy_raises(self, model70):
        with pytest.raises(PolicyError):
            model70.drowsy_energy(5)

    def test_infeasible_sleep_raises(self, model70):
        with pytest.raises(PolicyError):
            model70.sleep_energy(36)

    def test_nonpositive_length_raises(self, model70):
        with pytest.raises(PolicyError):
            model70.active_energy(0)
        with pytest.raises(PolicyError):
            model70.energy(Mode.DROWSY, -3)

    def test_decay_sleep_charges_full_power_wait(self, model70):
        length, wait = 20_000, 10_000
        expected = model70.p_active * wait + model70.sleep_energy(length - wait)
        assert model70.decay_sleep_energy(length, wait) == pytest.approx(expected)

    def test_decay_sleep_needs_room_after_wait(self, model70):
        with pytest.raises(PolicyError):
            model70.decay_sleep_energy(10_020, 10_000)

    def test_decay_sleep_rejects_negative_wait(self, model70):
        with pytest.raises(PolicyError):
            model70.decay_sleep_energy(1000, -1)

    def test_energy_dispatch(self, model70):
        assert model70.energy(Mode.ACTIVE, 100) == model70.active_energy(100)
        assert model70.energy(Mode.DROWSY, 100) == model70.drowsy_energy(100)
        assert model70.energy(Mode.SLEEP, 5000) == model70.sleep_energy(5000)

    def test_saving_is_baseline_minus_mode(self, model70):
        length = 4000
        assert model70.saving(Mode.DROWSY, length) == pytest.approx(
            model70.active_energy(length) - model70.drowsy_energy(length)
        )

    def test_vectorized_matches_scalar(self, model70):
        lengths = np.array([50, 1057, 5000, 100000], dtype=np.int64)
        np.testing.assert_allclose(
            model70.drowsy_energy_array(lengths),
            [model70.drowsy_energy(int(v)) for v in lengths],
        )
        np.testing.assert_allclose(
            model70.sleep_energy_array(lengths),
            [model70.sleep_energy(int(v)) for v in lengths],
        )
        np.testing.assert_allclose(
            model70.active_energy_array(lengths),
            [model70.active_energy(int(v)) for v in lengths],
        )

    def test_step_ramps_cost_more(self, node70):
        trapezoid = ModeEnergyModel(node70, trapezoidal_ramps=True)
        step = ModeEnergyModel(node70, trapezoidal_ramps=False)
        assert step.drowsy_energy(1000) > trapezoid.drowsy_energy(1000)
        assert step.sleep_energy(5000) > trapezoid.sleep_energy(5000)

    def test_mode_powers_follow_node_ratios(self, node70, model70):
        assert model70.p_drowsy == pytest.approx(node70.drowsy_ratio)
        assert model70.p_sleep == pytest.approx(node70.sleep_ratio)
