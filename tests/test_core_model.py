"""Tests for repro.core.model — the Figure 6 state-machine model."""

import pytest

from repro.core.energy import ModeEnergyModel
from repro.core.intervals import IntervalPopulation
from repro.core.model import StateMachineModel, Transition
from repro.core.modes import Mode
from repro.core.policy import TRIO_SCHEMES
from repro.core.savings import trio_savings
from repro.errors import ConfigurationError, PolicyError
from repro.power.technology import paper_nodes


@pytest.fixture()
def machine(model70):
    return StateMachineModel.from_energy_model(model70)


class TestConstruction:
    def test_state_powers_match_energy_model(self, machine, model70):
        assert machine.state_power[Mode.ACTIVE] == pytest.approx(model70.p_active)
        assert machine.state_power[Mode.DROWSY] == pytest.approx(model70.p_drowsy)
        assert machine.state_power[Mode.SLEEP] == pytest.approx(model70.p_sleep)

    def test_four_edges(self, machine):
        assert len(machine.transitions) == 4

    def test_edge_durations_from_paper(self, machine):
        assert machine.transition(Mode.ACTIVE, Mode.SLEEP).duration == 30
        assert machine.transition(Mode.SLEEP, Mode.ACTIVE).duration == 3
        assert machine.transition(Mode.ACTIVE, Mode.DROWSY).duration == 3
        assert machine.transition(Mode.DROWSY, Mode.ACTIVE).duration == 3
        assert machine.ready_cycles == 4

    def test_missing_state_power_rejected(self):
        with pytest.raises(ConfigurationError):
            StateMachineModel(
                state_power={Mode.ACTIVE: 1.0},
                transitions={},
                refetch_energy=0.0,
            )

    def test_negative_transition_rejected(self):
        with pytest.raises(ConfigurationError):
            Transition(Mode.ACTIVE, Mode.SLEEP, duration=-1)

    def test_unknown_edge_raises(self, machine):
        with pytest.raises(PolicyError):
            machine.transition(Mode.DROWSY, Mode.SLEEP)


def walk_and_closed_form(node, trapezoidal_ramps, mode, length):
    """``(cycle walk, Equations 1-2)`` energies of one interval."""
    model = ModeEnergyModel(node, trapezoidal_ramps=trapezoidal_ramps)
    machine = StateMachineModel.from_energy_model(model)
    return machine.simulate_interval(mode, length), model.energy(mode, length)


class TestEquationAgreement:
    """The cycle walk rejects the intervals Equations 1 and 2 cannot price."""

    def test_too_short_interval_rejected(self, machine):
        with pytest.raises(PolicyError):
            machine.simulate_interval(Mode.SLEEP, 36)
        with pytest.raises(PolicyError):
            machine.simulate_interval(Mode.DROWSY, 5)
        with pytest.raises(PolicyError):
            machine.simulate_interval(Mode.ACTIVE, 0)


class TestDiscreteSimulation:
    """Cycle-by-cycle integration must agree with the closed forms under
    both ramp shapes: trapezoidal (the paper's) and step (the ramp
    ablation's)."""

    @pytest.mark.parametrize(
        "length, mode",
        [
            (length, mode)
            for length in (100, 2000, 50_000)
            for mode in (Mode.ACTIVE, Mode.DROWSY, Mode.SLEEP)
        ]
        # The paper's points: both sides of the inflection points.
        + [(length, Mode.DROWSY) for length in (50, 1057, 5000, 123_456)]
        + [(length, Mode.SLEEP) for length in (40, 1057, 5000, 123_456)]
        + [(777, Mode.ACTIVE)],
    )
    def test_simulated_interval_matches_closed_form(self, node70, mode, length):
        walk, closed = walk_and_closed_form(node70, True, mode, length)
        # The walk sums one float per cycle: its rounding grows with length.
        assert walk == pytest.approx(closed, rel=1e-12 * max(1, length / 50_000))

    @pytest.mark.parametrize("mode", [Mode.ACTIVE, Mode.DROWSY, Mode.SLEEP])
    @pytest.mark.parametrize("length", [100, 2000, 50_000])
    def test_step_ramp_walk_matches_closed_form(self, node70, mode, length):
        walk, closed = walk_and_closed_form(node70, False, mode, length)
        assert walk == pytest.approx(closed, rel=1e-12)


class TestTechnologySweep:
    """Table 2's ordering findings, priced the way ``run all`` prices them."""

    @staticmethod
    def sweep(feature_nms, intervals):
        models = [ModeEnergyModel(paper_nodes()[nm]) for nm in feature_nms]
        grid = trio_savings(models, intervals)
        return [dict(zip(TRIO_SCHEMES, grid[:, j])) for j in range(len(models))]

    def test_sweep_produces_table2_structure(self):
        intervals = IntervalPopulation.of([5, 500, 5_000, 500_000] * 10)
        rows = self.sweep((70, 180), intervals)
        assert len(rows) == 2
        for savings in rows:
            assert set(savings) == {"OPT-Drowsy", "OPT-Sleep", "OPT-Hybrid"}
            assert savings["OPT-Hybrid"] >= savings["OPT-Drowsy"] - 1e-9
            assert savings["OPT-Hybrid"] >= savings["OPT-Sleep"] - 1e-9

    def test_drowsy_beats_sleep_at_180nm(self):
        # The paper's Table 2 finding: at 180nm the inflection point is so
        # high that drowsy mode leads.
        intervals = IntervalPopulation.of([500, 5_000, 50_000] * 20)
        (savings,) = self.sweep((180,), intervals)
        assert savings["OPT-Drowsy"] > savings["OPT-Sleep"]

    def test_sleep_beats_drowsy_at_70nm(self):
        intervals = IntervalPopulation.of([500, 5_000, 50_000] * 20)
        (savings,) = self.sweep((70,), intervals)
        assert savings["OPT-Sleep"] > savings["OPT-Drowsy"]
