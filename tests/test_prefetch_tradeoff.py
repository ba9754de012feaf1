"""Tests for the Prefetch-A..B trade-off (§5.2 future work)."""

import math

import numpy as np
import pytest
from conftest import RawIntervals

from repro.core.savings import evaluate_policy
from repro.errors import PolicyError
from repro.prefetch.schemes import (
    PrefetchGuidedPolicy,
    PrefetchTradeoff,
    evaluate_prefetch_scheme,
    prefetch_tradeoff_curve,
)


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


class TestEndpoints:
    def test_threshold_a_reproduces_prefetch_b(self, model70, annotated):
        flags = annotated.prefetchable
        tradeoff = PrefetchTradeoff(model70, np_threshold=6).with_flags(flags)
        b_policy = PrefetchGuidedPolicy(model70, power_first=True).with_flags(flags)
        lengths = annotated.lengths
        assert np.array_equal(tradeoff.modes(lengths), b_policy.modes(lengths))
        assert tradeoff.wakeup_stall_cycles(lengths) == b_policy.wakeup_stall_cycles(
            lengths
        )

    def test_infinite_threshold_reproduces_prefetch_a(self, model70, annotated):
        flags = annotated.prefetchable
        tradeoff = PrefetchTradeoff(model70, np_threshold=math.inf).with_flags(flags)
        a_policy = PrefetchGuidedPolicy(model70, power_first=False).with_flags(flags)
        lengths = annotated.lengths
        assert np.array_equal(tradeoff.modes(lengths), a_policy.modes(lengths))
        assert tradeoff.wakeup_stall_cycles(lengths) == 0


class TestFrontier:
    def test_savings_and_stalls_both_monotone(self, model70, annotated):
        curve = prefetch_tradeoff_curve(
            annotated.population(), model70, [6, 100, 2000, 50_000, math.inf]
        )
        savings = [p.saving_fraction for p in curve]
        stalls = [p.stall_overhead for p in curve]
        assert savings == sorted(savings, reverse=True)
        assert stalls == sorted(stalls, reverse=True)
        assert stalls[-1] == 0.0

    def test_intermediate_point_is_strictly_between(self, model70, annotated):
        curve = prefetch_tradeoff_curve(
            annotated.population(), model70, [6, 2000, math.inf]
        )
        b_point, mid, a_point = curve
        assert a_point.saving_fraction < mid.saving_fraction < b_point.saving_fraction

    def test_matches_scheme_evaluations(self, model70, annotated):
        population = annotated.population()
        curve = prefetch_tradeoff_curve(population, model70, [6, math.inf])
        b_report = evaluate_prefetch_scheme(population, model70, power_first=True)
        a_report = evaluate_prefetch_scheme(population, model70, power_first=False)
        assert curve[0].saving_fraction == pytest.approx(
            b_report.savings.saving_fraction
        )
        assert curve[1].saving_fraction == pytest.approx(
            a_report.savings.saving_fraction
        )


class TestValidation:
    def test_threshold_below_a_rejected(self, model70, annotated):
        with pytest.raises(PolicyError):
            PrefetchTradeoff(model70, np_threshold=3)

    def test_mask_alignment_enforced(self, model70):
        policy = PrefetchTradeoff(model70, np_threshold=100)
        with pytest.raises(PolicyError):
            policy.with_flags(np.array([True])).modes(np.array([10, 20]))

    def test_name(self, model70, annotated):
        policy = PrefetchTradeoff(model70, np_threshold=2000)
        assert policy.name == "Prefetch-T(2000)"

    def test_evaluable_through_standard_machinery(self, model70, annotated):
        policy = PrefetchTradeoff(model70, np_threshold=2000)
        report = evaluate_policy(policy, annotated.population())
        assert 0.0 < report.saving_fraction < 1.0
