"""Prefix pricing against the per-interval scalar oracle.

``evaluate_policy`` prices a population from cumulative sums over its
rows, read at each policy's length cuts.  The oracle here prices every
interval on its own — ``policy.energies(lengths, kinds, dead_aware)`` summed over the
whole raw population, exactly as the Figure 5 loop is written, with a
prefetch policy bound to the per-interval flags — and the two must
agree: interval counts and cycles per mode exactly, energies and saving
fractions within a relative 1e-12.
"""

import math

import numpy as np
import pytest
from conftest import RawIntervals
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import ModeEnergyModel
from repro.core.intervals import NEXTLINE, TAIL, IntervalPopulation
from repro.core.modes import Mode
from repro.core.policy import (
    CODE_MODES,
    TRIO_SCHEMES,
    DecaySleep,
    OptDrowsy,
    OptHybrid,
    OptSleep,
    trio_policies,
)
from repro.core.savings import evaluate_policy, trio_savings
from repro.errors import IntervalError, PolicyError
from repro.power.technology import paper_nodes
from repro.prefetch.schemes import PrefetchGuidedPolicy

MODELS = {nm: ModeEnergyModel(node) for nm, node in paper_nodes().items()}
REL = 1e-12


def oracle(policy, intervals, dead_aware, prefetchable=None):
    """Per-interval Figure 5 accumulation: (per-mode stats, saving)."""
    lengths, kinds = intervals.lengths, intervals.kinds
    energies = policy.energies(lengths, kinds, prefetchable, dead_aware=dead_aware)
    codes = policy.modes(lengths, prefetchable)
    stats = {}
    for code, mode in CODE_MODES.items():
        mask = codes == code
        if np.any(mask):
            stats[mode] = (
                int(mask.sum()),
                int(lengths[mask].sum()),
                float(energies[mask].sum()),
            )
    baseline = float(policy.model.energy(Mode.ACTIVE, lengths).sum())
    total = float(energies.sum()) + policy.overhead_power_fraction * float(
        lengths.sum()
    )
    return stats, 1.0 - total / baseline


def assert_matches_oracle(policy, intervals, population, dead_aware, prefetchable):
    report = evaluate_policy(policy, population, dead_aware=dead_aware)
    stats, saving = oracle(policy, intervals, dead_aware, prefetchable)
    assert set(report.breakdown) == set(stats)
    for mode, (count, cycles, energy) in stats.items():
        entry = report.breakdown[mode]
        assert entry.interval_count == count
        assert entry.cycles == cycles
        assert entry.energy == pytest.approx(energy, rel=REL)
    assert report.saving_fraction == pytest.approx(saving, rel=REL, abs=REL)


# Lengths come from a small pool so populations repeat lengths, as real
# ones do (0.5 M intervals over ~10 k distinct lengths).
length_pool = st.lists(
    st.integers(1, 400_000), min_size=1, max_size=12, unique=True
)


#: Valid (next-line, stride, tail) flag combinations: the two prefetch
#: flags are disjoint.
FLAG_CHOICES = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]


@st.composite
def populations(draw):
    """(raw intervals, per-interval prefetchable mask, reduced population)."""
    pool = draw(length_pool)
    n = draw(st.integers(1, 120))
    picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    kinds = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    flags = np.array(
        draw(st.lists(st.sampled_from(FLAG_CHOICES), min_size=n, max_size=n)),
        dtype=bool,
    ).reshape(n, 3)
    intervals = RawIntervals(
        np.array(picks, dtype=np.int64), np.array(kinds, dtype=np.uint8), *flags.T
    )
    return intervals, intervals.prefetchable, intervals.population()


models = st.sampled_from(sorted(MODELS)).map(MODELS.get)


@st.composite
def policies(draw):
    model = draw(models)
    b = OptHybrid(model).sleep_threshold
    choice = draw(st.integers(0, 6))
    if choice == 0:
        return OptDrowsy(model)
    if choice == 1:
        threshold = draw(
            st.none() | st.floats(model.sleep_min_length, 200_000.0)
        )
        return OptSleep(model, threshold)
    if choice == 2:
        return DecaySleep(
            model,
            decay_interval=draw(st.floats(1.0, 50_000.0)),
            counter_overhead=draw(st.floats(0.0, 0.05)),
        )
    if choice == 3:
        return OptHybrid(model, draw(st.floats(b, 10 * b)))
    if choice == 4:
        return PrefetchGuidedPolicy(model, math.inf)  # Prefetch-A
    if choice == 5:
        return PrefetchGuidedPolicy(model, model.drowsy_min_length)  # Prefetch-B
    threshold = draw(st.floats(model.drowsy_min_length, 300_000.0))
    return PrefetchGuidedPolicy(model, threshold)  # Prefetch-T(threshold)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dead_aware=st.booleans())
def test_spectrum_pricing_matches_scalar_oracle(data, dead_aware):
    intervals, prefetchable, population = data.draw(populations())
    policy = data.draw(policies())
    assert_matches_oracle(policy, intervals, population, dead_aware, prefetchable)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stalls_match_per_interval_count(data):
    intervals, prefetchable, population = data.draw(populations())
    policy = data.draw(policies())
    if not isinstance(policy, PrefetchGuidedPolicy):
        return
    stalls = policy.price(population).wakeup_stall_cycles
    assert stalls == policy.wakeup_stall_cycles(intervals.lengths, prefetchable)
    assert stalls == policy.wakeup_stall_cycles(
        population.lengths, population.prefetchable, population.counts
    )


class TestTrioSavings:
    def test_grid_matches_oracle_on_every_node(self, rng):
        lengths = rng.integers(1, 300_000, size=20_000).astype(np.int64)
        intervals = RawIntervals(
            lengths, np.zeros(lengths.size, dtype=np.uint8),
            *np.zeros((3, lengths.size), dtype=bool),
        )
        models = list(MODELS.values())
        grid = trio_savings(models, intervals.population())
        assert grid.shape == (len(TRIO_SCHEMES), len(models))
        for column, model in enumerate(models):
            for row, policy in enumerate(trio_policies(model)):
                _, saving = oracle(policy, intervals, dead_aware=False)
                assert grid[row, column] == pytest.approx(saving, rel=REL, abs=REL)


class TestLengthSpectrum:
    """The population's rows: each distinct (length, class) once, counted."""

    def test_rows_are_distinct_classes_with_counts(self):
        population = IntervalPopulation.of(
            [5, 9, 5, 5, 9],
            kinds=[0, 0, 1, 0, 0],
            nextline=np.array([1, 0, 0, 0, 0], dtype=bool),
            tail=np.array([0, 0, 0, 1, 0], dtype=bool),
        )
        assert population.lengths.tolist() == [5, 5, 5, 9]
        assert population.classes.tolist() == [TAIL, NEXTLINE, 1 << 3, 0]
        assert population.kinds.tolist() == [0, 0, 1, 0]
        assert population.prefetchable.tolist() == [True, True, False, False]
        assert population.counts.tolist() == [1, 1, 1, 2]
        assert population.total_cycles == 33

    def test_built_once_per_population_and_mask(self):
        # The pricing view is built on first use, reused, and never
        # pickled: a copy rebuilds its own.
        import pickle

        population = IntervalPopulation.of(
            [3, 3, 7], tail=np.array([True, False, False])
        )
        view = population.pricing_view()
        assert population.pricing_view() is view
        copy = pickle.loads(pickle.dumps(population))
        assert copy == population
        assert copy.pricing_view() is not view

    def test_misaligned_prefetch_policy_raises(self, model70):
        policy = PrefetchGuidedPolicy(model70, model70.drowsy_min_length)
        with pytest.raises(PolicyError):
            policy.energies(np.array([10, 20]), prefetchable=np.array([True]))

    def test_empty_spectrum(self, model70):
        population = IntervalPopulation.of(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
        )
        assert population.counts.size == 0
        assert (len(population), population.total_cycles) == (0, 0)
        with pytest.raises(IntervalError, match="zero intervals"):
            evaluate_policy(OptHybrid(model70), population)
