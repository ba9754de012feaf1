"""Tests for the Prefetch-A..B trade-off (§5.2 future work)."""

import math

import numpy as np
import pytest
from conftest import RawIntervals

from repro.core.modes import Mode
from repro.core.policy import ACTIVE, DROWSY, SLEEP
from repro.core.savings import evaluate_policy
from repro.errors import PolicyError
from repro.prefetch.schemes import PrefetchGuidedPolicy


@pytest.fixture()
def annotated():
    lengths = [3, 50, 50, 2000, 2000, 80_000, 80_000]
    nl = [False, True, False, True, False, True, False]
    return RawIntervals(
        np.array(lengths, dtype=np.int64),
        np.zeros(7, dtype=np.uint8),
        np.array(nl, dtype=bool),
        np.zeros(7, dtype=bool),
        np.zeros(7, dtype=bool),
    )


def frontier(model, population, thresholds):
    """(saving fraction, stall overhead) per NP drowsy threshold."""
    reports = [PrefetchGuidedPolicy(model, t).price(population) for t in thresholds]
    return (
        [r.savings.saving_fraction for r in reports],
        [r.stall_overhead for r in reports],
    )


class TestEndpoints:
    def test_threshold_a_reproduces_prefetch_b(self, model70, annotated):
        policy = PrefetchGuidedPolicy(model70, model70.drowsy_min_length)
        assert policy.name == "Prefetch-B"
        lengths, flags = annotated.lengths, annotated.prefetchable
        # Every feasible non-prefetchable interval goes drowsy and stalls.
        assert policy.modes(lengths, flags).tolist() == [
            ACTIVE, DROWSY, DROWSY, SLEEP, DROWSY, SLEEP, DROWSY,
        ]
        assert policy.wakeup_stall_cycles(lengths, flags) == (
            3 * model70.durations.d3
        )

    def test_infinite_threshold_reproduces_prefetch_a(self, model70, annotated):
        policy = PrefetchGuidedPolicy(model70, math.inf)
        assert policy.name == "Prefetch-A"
        lengths, flags = annotated.lengths, annotated.prefetchable
        # Non-prefetchable intervals stay active, so nothing stalls.
        assert policy.modes(lengths, flags).tolist() == [
            ACTIVE, DROWSY, ACTIVE, SLEEP, ACTIVE, SLEEP, ACTIVE,
        ]
        assert policy.wakeup_stall_cycles(lengths, flags) == 0


class TestFrontier:
    def test_savings_and_stalls_both_monotone(self, model70, annotated):
        savings, stalls = frontier(
            model70, annotated.population(), [6, 100, 2000, 50_000, math.inf]
        )
        assert savings == sorted(savings, reverse=True)
        assert stalls == sorted(stalls, reverse=True)
        assert stalls[-1] == 0.0

    def test_intermediate_point_is_strictly_between(self, model70, annotated):
        savings, _ = frontier(model70, annotated.population(), [6, 2000, math.inf])
        b_point, mid, a_point = savings
        assert a_point < mid < b_point

    def test_matches_scheme_evaluations(self, model70, annotated):
        population = annotated.population()
        lengths, flags = annotated.lengths, annotated.prefetchable
        for threshold in (6, 2000, math.inf):
            policy = PrefetchGuidedPolicy(model70, threshold)
            report = policy.price(population)
            energies = policy.energies(lengths, prefetchable=flags)
            baseline = float(model70.energy(Mode.ACTIVE, lengths).sum())
            assert report.savings.saving_fraction == pytest.approx(
                1.0 - float(energies.sum()) / baseline
            )
            stalls = policy.wakeup_stall_cycles(lengths, flags)
            assert report.wakeup_stall_cycles == stalls
            assert report.stall_overhead == stalls / int(lengths.sum())


class TestValidation:
    def test_threshold_below_a_rejected(self, model70, annotated):
        with pytest.raises(PolicyError):
            PrefetchGuidedPolicy(model70, np_threshold=3)

    def test_mask_alignment_enforced(self, model70):
        policy = PrefetchGuidedPolicy(model70, np_threshold=100)
        with pytest.raises(PolicyError):
            policy.modes(np.array([10, 20]), np.array([True]))

    def test_name(self, model70, annotated):
        policy = PrefetchGuidedPolicy(model70, np_threshold=2000)
        assert policy.name == "Prefetch-T(2000)"

    def test_evaluable_through_standard_machinery(self, model70, annotated):
        policy = PrefetchGuidedPolicy(model70, np_threshold=2000)
        report = evaluate_policy(policy, annotated.population())
        assert 0.0 < report.saving_fraction < 1.0
