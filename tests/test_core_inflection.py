"""Tests for repro.core.inflection — Equation 3 and Table 1."""

import dataclasses
import math

import pytest

from repro.core.energy import ModeEnergyModel, TransitionDurations
from repro.core.inflection import (
    InflectionPoints,
    inflection_points,
    inflection_points_for_node,
    solve_sleep_drowsy_point,
    solve_sleep_drowsy_point_bisect,
)
from repro.core.modes import Mode
from repro.core.policy import CODE_MODES, OptHybrid
from repro.errors import PowerModelError
from repro.power.technology import PAPER_INFLECTION_POINTS


class TestTable1:
    """The headline Table 1 reproduction: must be exact."""

    @pytest.mark.parametrize("feature_nm,expected", sorted(PAPER_INFLECTION_POINTS.items()))
    def test_drowsy_sleep_points_match_paper(self, nodes, feature_nm, expected):
        points = inflection_points_for_node(nodes[feature_nm])
        assert points.drowsy_sleep_cycles == expected

    @pytest.mark.parametrize("feature_nm", sorted(PAPER_INFLECTION_POINTS))
    def test_active_drowsy_is_six_cycles_everywhere(self, nodes, feature_nm):
        points = inflection_points_for_node(nodes[feature_nm])
        assert points.active_drowsy == 6

    def test_points_decrease_with_technology_scaling(self, nodes):
        values = [
            inflection_points_for_node(nodes[nm]).drowsy_sleep
            for nm in (70, 100, 130, 180)
        ]
        assert values == sorted(values)


class TestSolver:
    def test_closed_form_agrees_with_bisection(self, model70):
        analytic = solve_sleep_drowsy_point(model70)
        numeric = solve_sleep_drowsy_point_bisect(model70)
        assert analytic == pytest.approx(numeric, abs=1e-4)

    def test_energies_equal_at_the_point(self, model70):
        b = solve_sleep_drowsy_point(model70)
        assert model70.energy(Mode.SLEEP, b) == pytest.approx(
            model70.energy(Mode.DROWSY, b)
        )

    def test_sleep_wins_above_drowsy_wins_below(self, model70):
        b = solve_sleep_drowsy_point(model70)
        for length, sleep_wins in ((b + 10, True), (b - 10, False)):
            sleep = model70.energy(Mode.SLEEP, length)
            assert (sleep < model70.energy(Mode.DROWSY, length)) is sleep_wins

    def test_no_crossing_without_leakage_gap(self, node70):
        degenerate = dataclasses.replace(
            node70, drowsy_ratio=0.01, sleep_ratio=0.009
        ).with_refetch_energy(1e9)
        model = ModeEnergyModel(degenerate)
        with pytest.raises(PowerModelError):
            solve_sleep_drowsy_point_bisect(model, hi=1e6)

    def test_point_grows_with_refetch_energy(self, node70):
        lo = ModeEnergyModel(node70.with_refetch_energy(100.0))
        hi = ModeEnergyModel(node70.with_refetch_energy(1000.0))
        assert solve_sleep_drowsy_point(hi) > solve_sleep_drowsy_point(lo)


class TestClassification:
    def test_classify_regions(self, model70):
        # Theorem 1's regions: (0, a] active, (a, b] drowsy, (b, inf) sleep.
        codes = OptHybrid(model70).modes([1, 6, 7, 1057, 1058, 10**7])
        assert [CODE_MODES[int(code)] for code in codes] == [
            Mode.ACTIVE,
            Mode.ACTIVE,
            Mode.DROWSY,
            Mode.DROWSY,
            Mode.SLEEP,
            Mode.SLEEP,
        ]

    def test_lemma1_sanity(self, model70):
        # Lemma 1: the active-drowsy point lies below the sleep-drowsy one.
        points = inflection_points(model70)
        assert points.active_drowsy < points.drowsy_sleep
        assert math.isfinite(points.drowsy_sleep)

    def test_rounding_to_cycles(self):
        points = InflectionPoints(active_drowsy=6, drowsy_sleep=1056.7)
        assert points.drowsy_sleep_cycles == 1057


class TestCustomDurations:
    def test_longer_sleep_exit_raises_the_point(self, node70):
        base = inflection_points(ModeEnergyModel(node70))
        slow = inflection_points(
            ModeEnergyModel(node70, durations=TransitionDurations(s1=60))
        )
        assert slow.drowsy_sleep > base.drowsy_sleep

    def test_longer_drowsy_ramps_move_active_point(self, node70):
        points = inflection_points(
            ModeEnergyModel(node70, durations=TransitionDurations(d1=5, d3=5))
        )
        assert points.active_drowsy == 10
