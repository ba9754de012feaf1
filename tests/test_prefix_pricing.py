"""Prefix pricing against the per-interval oracle, on every policy ``run all`` prices.

``evaluate_policy`` reads each policy's length cuts off the cumulative
count and cycle columns of a population's pricing view.  Here every
policy the paper report prices — Table 2's trio on every node, the four
Figure 8 schemes, OPT-Sleep(θ) and OPT-Hybrid(θ) over the Figure 7 grid,
the ablations' dead-aware, step-ramp, decay-counter and raised-threshold
variants, and Prefetch-T over the future-work thresholds — is priced on
the 12 scale-0.05 populations (six benchmarks, two caches) and on
hypothesis populations whose lengths sit exactly on every cut.  The
oracle prices every raw interval with :meth:`Policy.energies`: per-mode
counts, cycles and prefetchable counts must match exactly, energies and
savings within a relative 1e-12, and the wake-up stalls must equal the
per-interval and count-weighted per-row stalls.
"""

import math

import numpy as np
import pytest
from conftest import run_recorded
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import ModeEnergyModel
from repro.core.intervals import IntervalKind, IntervalPopulation
from repro.core.modes import Mode
from repro.core.policy import (
    CODE_MODES,
    DecaySleep,
    OptDrowsy,
    OptHybrid,
    OptSleep,
    Policy,
    trio_policies,
)
from repro.core.savings import evaluate_policy
from repro.errors import PolicyError
from repro.experiments import figure7, futurework
from repro.power.technology import paper_nodes
from repro.prefetch.analysis import AnnotatingSimulator
from repro.prefetch.schemes import PrefetchGuidedPolicy
from repro.workloads.benchmarks import BENCHMARK_NAMES, make_benchmark

REL = 1e-12
NODES = paper_nodes()
MODEL70 = ModeEnergyModel(NODES[70])
STEP70 = ModeEnergyModel(NODES[70], trapezoidal_ramps=False)
#: The decay-counter ablation's overheads.
COUNTER_OVERHEADS = (0.0, 0.002, 0.01, 0.05)
#: The inflection ablation's raised sleep thresholds, as multiples of b.
B_FACTORS = (1.0, 1.25, 1.5, 2.0, 4.0)


def report_policies():
    """Every policy the paper report prices, at the parameters it uses."""
    policies = [
        policy
        for node in NODES.values()
        for policy in trio_policies(ModeEnergyModel(node))
    ]
    for model in (MODEL70, STEP70):
        b = model_b(model)
        policies += [
            OptDrowsy(model),
            OptSleep(model, 10_000),
            OptHybrid(model),
            *(DecaySleep(model, 10_000, overhead) for overhead in COUNTER_OVERHEADS),
            *(OptHybrid(model, b * factor) for factor in B_FACTORS),
        ]
        for threshold in figure7.DEFAULT_THRESHOLDS:
            threshold = max(float(threshold), b)
            policies += [OptSleep(model, threshold), OptHybrid(model, threshold)]
        # Prefetch-B (a), Prefetch-T(x) and Prefetch-A (inf).
        policies += [
            PrefetchGuidedPolicy(model, threshold)
            for threshold in futurework.DEFAULT_THRESHOLDS
        ]
    return policies


def model_b(model):
    return OptHybrid(model).sleep_threshold


def oracle(policy, lengths, kinds, prefetchable, dead_aware):
    """Per-interval Figure 5 accumulation: (per-mode stats, saving)."""
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
                int((mask & prefetchable).sum()),
            )
    baseline = float(policy.model.energy(Mode.ACTIVE, lengths).sum())
    total = float(energies.sum()) + policy.overhead_power_fraction * float(
        lengths.sum()
    )
    return stats, 1.0 - total / baseline


def assert_priced_like_oracle(
    policy, population, lengths, kinds, prefetchable, dead_aware
):
    report = evaluate_policy(policy, population, dead_aware=dead_aware)
    stats, saving = oracle(policy, lengths, kinds, prefetchable, dead_aware)
    assert set(report.breakdown) == set(stats), policy.name
    for mode, (count, cycles, energy, covered) in stats.items():
        entry = report.breakdown[mode]
        assert entry.interval_count == count, (policy.name, mode)
        assert entry.cycles == cycles, (policy.name, mode)
        assert entry.prefetchable_count == covered, (policy.name, mode)
        assert entry.energy == pytest.approx(energy, rel=REL), (policy.name, mode)
    assert report.saving_fraction == pytest.approx(saving, rel=REL, abs=REL)
    if isinstance(policy, PrefetchGuidedPolicy):
        stalls = policy.price(population, dead_aware=dead_aware).wakeup_stall_cycles
        assert stalls == policy.wakeup_stall_cycles(lengths, prefetchable)
        assert stalls == policy.wakeup_stall_cycles(
            population.lengths, population.prefetchable, population.counts
        )


# ----------------------------------------------------------------------
# The paper's populations
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=BENCHMARK_NAMES)
def annotated(request):
    """One benchmark's result and raw annotated intervals at scale 0.05."""
    return run_recorded(
        AnnotatingSimulator(), make_benchmark(request.param, scale=0.05).chunks()
    )


@pytest.mark.parametrize("cache", ["l1i", "l1d"])
def test_report_policies_match_oracle(annotated, cache):
    result, raw = annotated
    intervals = raw[cache]
    lengths = intervals.lengths
    prefetchable = intervals.prefetchable
    population = result.annotated_for(cache)
    normal = population.as_normal()
    zeros = np.zeros_like(intervals.kinds)
    for policy in report_policies():
        assert_priced_like_oracle(
            policy, normal, lengths, zeros, prefetchable, dead_aware=False
        )
    # The dead-interval ablation prices the kinds, dead-aware, under both
    # ramp models.
    for model in (MODEL70, STEP70):
        for policy in (OptHybrid(model), DecaySleep(model, 10_000)):
            assert_priced_like_oracle(
                policy,
                population,
                lengths,
                intervals.kinds,
                prefetchable,
                dead_aware=True,
            )


# ----------------------------------------------------------------------
# Lengths on every cut
# ----------------------------------------------------------------------
def cut_lengths(model, theta, decay):
    """Lengths at and beside every cut of the policies built on them."""
    a = model.drowsy_min_length
    b = model_b(model)
    sleep_min = model.sleep_min_length
    points = {
        a, a + 1, math.floor(b), math.ceil(b),
        math.floor(theta), math.ceil(theta), math.floor(theta) + 1,
        math.floor(decay) + sleep_min - 1, math.ceil(decay) + sleep_min,
        sleep_min - 1, sleep_min, 1,
    }
    return sorted(length for length in points if length >= 1)


@st.composite
def cut_cases(draw):
    model = draw(st.sampled_from([MODEL70, STEP70, ModeEnergyModel(NODES[180])]))
    b = model_b(model)
    top = math.ceil(2 * b) + 200_000
    theta = draw(
        st.sampled_from([b, max(b, 10_000.0)])
        | st.integers(math.ceil(b), top).map(float)
        | st.floats(b, top)
    )
    decay = draw(st.sampled_from([10_000.0, 1.0]) | st.floats(1.0, 50_000.0))
    pool = cut_lengths(model, theta, decay)
    n = draw(st.integers(1, 80))
    lengths = np.array(
        draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=np.int64
    )
    kinds = np.array(
        draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.uint8
    )
    flags = draw(
        st.lists(
            st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
            min_size=n, max_size=n,
        )
    )
    flags = np.array(flags, dtype=bool).reshape(n, 3)
    policies = [
        OptDrowsy(model),
        OptSleep(model, theta),
        OptHybrid(model, theta),
        DecaySleep(model, decay, draw(st.sampled_from(COUNTER_OVERHEADS))),
        PrefetchGuidedPolicy(model, math.inf),  # Prefetch-A
        PrefetchGuidedPolicy(model, model.drowsy_min_length),  # Prefetch-B
        PrefetchGuidedPolicy(model, theta),  # Prefetch-T(theta)
    ]
    population = IntervalPopulation.of(
        lengths, kinds, flags[:, 0], flags[:, 1], flags[:, 2]
    )
    return policies, population, lengths, kinds, flags.any(axis=1)


@settings(max_examples=200, deadline=None)
@given(case=cut_cases(), dead_aware=st.booleans())
def test_lengths_on_every_cut_match_oracle(case, dead_aware):
    policies, population, lengths, kinds, prefetchable = case
    for policy in policies:
        assert_priced_like_oracle(
            policy, population, lengths, kinds, prefetchable, dead_aware
        )


# ----------------------------------------------------------------------
# Infeasible assignments
# ----------------------------------------------------------------------
class EagerSleep(Policy):
    """Sleeps everything longer than 5 cycles: below the 37-cycle floor."""

    def cuts(self, prefetchable):
        return ((Mode.SLEEP, 5, False),)


class TestInfeasibleBands:
    def test_band_below_the_floor_raises_like_the_oracle(self):
        policy = EagerSleep(MODEL70)
        lengths = np.array([6, 100, 100], dtype=np.int64)
        with pytest.raises(PolicyError, match="transition time"):
            policy.energies(lengths)
        with pytest.raises(PolicyError, match="transition time"):
            evaluate_policy(policy, IntervalPopulation.of(lengths))

    def test_band_above_the_floor_prices(self):
        policy = EagerSleep(MODEL70)
        lengths = np.array([37, 100, 100], dtype=np.int64)
        zeros = np.zeros(3, dtype=np.uint8)
        assert_priced_like_oracle(
            policy,
            IntervalPopulation.of(lengths),
            lengths,
            zeros,
            np.zeros(3, dtype=bool),
            dead_aware=False,
        )

    def test_only_the_offending_class_raises(self):
        # A cold row of 6 cycles is slept; the normal rows are long.
        policy = EagerSleep(MODEL70)
        population = IntervalPopulation.of(
            [6, 100], kinds=[IntervalKind.COLD, IntervalKind.NORMAL]
        )
        with pytest.raises(PolicyError):
            evaluate_policy(policy, population)
        assert evaluate_policy(policy, population.of_kind(IntervalKind.NORMAL))
