"""Tests for repro.core.envelope — Figure 10 and the Theorem 1 oracle."""

import numpy as np
import pytest

from conftest import assignment_cost
from repro.core.envelope import envelope_array, envelope_modes, envelope_series
from repro.core.modes import Mode
from repro.core.policy import CODE_MODES, OptHybrid
from repro.errors import PolicyError


def priceable_modes(model, length):
    """The modes ``model.energy`` prices an interval of ``length`` in."""
    modes = []
    for mode in Mode:
        try:
            model.energy(mode, length)
        except PolicyError:
            continue
        modes.append(mode)
    return modes


class TestEnvelope:
    def test_priceable_modes_grow_with_length(self, model70):
        assert priceable_modes(model70, 3) == [Mode.ACTIVE]
        assert priceable_modes(model70, 20) == [Mode.ACTIVE, Mode.DROWSY]
        assert Mode.SLEEP in priceable_modes(model70, 37)
        assert Mode.SLEEP in priceable_modes(model70, 100_000)

    def test_envelope_below_active_beyond_a(self, model70):
        lengths = np.array([7, 100, 1057, 100_000])
        assert np.all(
            envelope_array(model70, lengths) < model70.energy(Mode.ACTIVE, lengths)
        )

    def test_envelope_mode_regions(self, model70):
        codes = envelope_modes(model70, np.array([3, 100, 5000]))
        assert [CODE_MODES[int(code)] for code in codes] == [
            Mode.ACTIVE,
            Mode.DROWSY,
            Mode.SLEEP,
        ]

    def test_vectorized_matches_scalar(self, model70, rng):
        lengths = rng.integers(1, 10**6, size=500)
        vector = envelope_array(model70, lengths)
        scalar = [
            min(model70.energy(mode, int(v)) for mode in priceable_modes(model70, int(v)))
            for v in lengths
        ]
        np.testing.assert_array_equal(vector, scalar)

    def test_envelope_monotone_within_regions(self, model70):
        # Figure 10: piecewise-linear, increasing within each region.
        for lo, hi in ((7, 1057), (1100, 10**6)):
            grid = np.linspace(lo, hi, 50)
            values = envelope_array(model70, grid)
            assert np.all(np.diff(values) > 0)

    def test_mode_powers_descend(self, model70):
        assert model70.p_active > model70.p_drowsy > model70.p_sleep > 0

    def test_series_marks_infeasible_as_nan(self, model70):
        series = envelope_series(model70, max_length=100, n_points=20)
        first_length, _, drowsy, sleep = series[0]
        assert first_length == 1.0
        assert np.isnan(drowsy) and np.isnan(sleep)

    def test_lemma1(self):
        from repro.experiments import figure10

        assert "Lemma 1 (a < b) holds: True" in figure10.run().notes

    def test_policy_attains_envelope(self, model70, rng):
        # Theorem 1: above a, the region policy prices every interval at
        # the envelope.
        lengths = rng.integers(7, 10**6, size=500)
        np.testing.assert_allclose(
            OptHybrid(model70).energies(lengths),
            envelope_array(model70, lengths),
            rtol=1e-12,
        )


class TestOracle:
    def test_oracle_matches_hybrid_policy(self, model70, rng):
        # Theorem 1: the inflection-point region policy IS the per-interval
        # argmin (boundary points excluded: ties break consistently).
        lengths = rng.integers(1, 10**6, size=5000)
        lengths = lengths[(lengths != 6) & (lengths != 1057)]
        assert np.array_equal(
            envelope_modes(model70, lengths), OptHybrid(model70).modes(lengths)
        )

    def test_envelope_is_minimal_over_random_assignments(self, model70, rng):
        lengths = rng.integers(1, 10**6, size=300)
        best = float(envelope_array(model70, lengths).sum())
        optimal_codes = envelope_modes(model70, lengths)
        assert assignment_cost(model70, lengths, optimal_codes) == pytest.approx(
            best, rel=1e-12
        )
        for trial in range(20):
            codes = optimal_codes.copy()
            # Perturb a random subset to any feasible alternative.
            idx = rng.integers(0, len(lengths), size=30)
            for i in idx:
                feasible = [0]
                if lengths[i] >= model70.drowsy_min_length:
                    feasible.append(1)
                if lengths[i] >= model70.sleep_min_length:
                    feasible.append(2)
                codes[i] = rng.choice(feasible)
            assert assignment_cost(model70, lengths, codes) >= best - 1e-9

    def test_envelope_assignment_is_optimal(self, model70, rng):
        lengths = rng.integers(1, 10**6, size=200)
        codes = envelope_modes(model70, lengths)
        best = float(envelope_array(model70, lengths).sum())
        assert assignment_cost(model70, lengths, codes) <= best + 1e-9
        # Forcing a long interval active is suboptimal.
        worst = codes.copy()
        worst[int(np.argmax(lengths))] = 0
        assert assignment_cost(model70, lengths, worst) > best + 1e-9

    def test_infeasible_assignment_rejected(self, model70):
        with pytest.raises(PolicyError):
            model70.energy(Mode.SLEEP, np.array([5]))
        with pytest.raises(PolicyError):
            envelope_array(model70, np.array([10, 0]))
