"""Property-based tests (hypothesis) for the core limit analysis.

These pin the paper's structural claims over the whole parameter space,
not just the calibrated operating points:

* Lemma 1 (``a < b``) for any physically-valid parameterization;
* Theorem 1: the region policy is per-interval optimal;
* the envelope is a pointwise lower bound that no assignment beats;
* savings are monotone in the obvious knobs (re-fetch energy, mode
  residuals).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assignment_cost
from repro.core.energy import ModeEnergyModel, TransitionDurations
from repro.core.envelope import envelope_array, envelope_modes
from repro.core.inflection import inflection_points, solve_sleep_drowsy_point
from repro.core.intervals import IntervalPopulation
from repro.core.modes import Mode
from repro.core.policy import OptHybrid
from repro.core.savings import evaluate_policy
from repro.errors import PowerModelError
from repro.power.technology import TechnologyNode


def make_node(drowsy_ratio, sleep_ratio, refetch):
    return TechnologyNode(
        feature_nm=70,
        vdd=0.9,
        vth=0.19,
        vdd_drowsy=0.45,
        drowsy_ratio=drowsy_ratio,
        sleep_ratio=sleep_ratio,
        refetch_energy_cycles=refetch,
    )


node_strategy = st.builds(
    make_node,
    drowsy_ratio=st.floats(0.05, 0.9),
    sleep_ratio=st.floats(0.0, 0.04),
    refetch=st.floats(0.0, 10_000.0),
).filter(lambda node: node.sleep_ratio < node.drowsy_ratio)

# Lemma 1's proof rests on the physical assumption that ramping to the
# retention voltage is faster than ramping fully off (d1 < s1, d3 < s3);
# the strategy enforces exactly those preconditions and nothing more.
durations_strategy = st.builds(
    TransitionDurations,
    s1=st.integers(2, 100),
    s3=st.integers(2, 20),
    s4=st.integers(0, 20),
    d1=st.integers(1, 10),
    d3=st.integers(1, 10),
).filter(lambda d: d.d1 < d.s1 and d.d3 < d.s3)


def envelope_total(model, lengths):
    return float(envelope_array(model, lengths).sum())


def try_model(node, durations):
    """Build a model whose inflection point exists, or skip the case."""
    model = ModeEnergyModel(node, durations=durations)
    try:
        solve_sleep_drowsy_point(model)
    except PowerModelError:
        assume(False)
    return model


class TestLemma1:
    @given(node=node_strategy, durations=durations_strategy)
    @settings(max_examples=200, deadline=None)
    def test_active_drowsy_below_sleep_drowsy(self, node, durations):
        model = try_model(node, durations)
        points = inflection_points(model)
        assert points.active_drowsy < points.drowsy_sleep


class TestTheorem1:
    @given(
        node=node_strategy,
        lengths=st.lists(st.integers(1, 10**7), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_region_policy_attains_the_envelope(self, node, lengths):
        model = try_model(node, TransitionDurations())
        lengths = np.array(lengths, dtype=np.int64)
        # At exactly L = a the paper mandates active mode for access
        # latency even though drowsy breaks even on energy (see
        # repro.core.envelope); the optimality claim is for L != a.
        lengths = lengths[lengths != model.drowsy_min_length]
        assume(lengths.size > 0)
        policy = OptHybrid(model)
        assert float(policy.energies(lengths).sum()) <= envelope_total(
            model, lengths
        ) + 1e-6

    @given(
        lengths=st.lists(st.integers(1, 10**7), min_size=1, max_size=50),
        flips=st.lists(st.integers(0, 2), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_assignment_beats_the_oracle(self, model70, lengths, flips):
        lengths = np.array(lengths, dtype=np.int64)
        codes = envelope_modes(model70, lengths)
        for i, flip in enumerate(flips[: len(lengths)]):
            if flip == 1 and lengths[i] >= model70.drowsy_min_length:
                codes[i] = 1
            elif flip == 2 and lengths[i] >= model70.sleep_min_length:
                codes[i] = 2
            elif flip == 0:
                codes[i] = 0
        assert assignment_cost(model70, lengths, codes) >= envelope_total(
            model70, lengths
        ) - 1e-9


class TestEnergyInvariants:
    @given(node=node_strategy, length=st.integers(7, 10**7))
    @settings(max_examples=200, deadline=None)
    def test_drowsy_always_beats_active_beyond_a(self, node, length):
        model = ModeEnergyModel(node)
        assert model.energy(Mode.DROWSY, length) < model.energy(Mode.ACTIVE, length)

    @given(node=node_strategy, length=st.integers(1, 10**7))
    @settings(max_examples=200, deadline=None)
    def test_envelope_never_exceeds_active(self, node, length):
        model = ModeEnergyModel(node)
        (envelope,) = envelope_array(model, [length])
        assert envelope <= model.energy(Mode.ACTIVE, length) + 1e-9

    @given(
        refetch_lo=st.floats(0.0, 1_000.0),
        refetch_hi=st.floats(0.0, 1_000.0),
        lengths=st.lists(st.integers(1, 10**6), min_size=5, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_savings_monotone_in_refetch_energy(
        self, node70, refetch_lo, refetch_hi, lengths
    ):
        assume(refetch_lo < refetch_hi)
        intervals = IntervalPopulation.of(np.array(lengths, dtype=np.int64))
        cheap = ModeEnergyModel(node70.with_refetch_energy(refetch_lo))
        costly = ModeEnergyModel(node70.with_refetch_energy(refetch_hi))
        saving_cheap = evaluate_policy(OptHybrid(cheap), intervals).saving_fraction
        saving_costly = evaluate_policy(OptHybrid(costly), intervals).saving_fraction
        assert saving_cheap >= saving_costly - 1e-9


class TestIntervalPopulationProperties:
    @given(lengths=st.lists(st.integers(1, 10**6), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_mass_by_class_partitions(self, lengths):
        ivs = IntervalPopulation.of(np.array(lengths, dtype=np.int64))
        mass = ivs.cycle_mass_by_class([6, 1057, 10_000])
        assert sum(mass) == pytest.approx(1.0)
