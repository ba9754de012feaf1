"""Tests for repro.prefetch — predictors, annotation, A/B schemes."""

import math

import numpy as np
import pytest
from conftest import RawIntervals, run_recorded

from repro.core.intervals import IntervalPopulation
from repro.cpu.trace import TraceChunk
from repro.errors import IntervalError, PolicyError, SimulationError
from repro.prefetch.analysis import AnnotatingSimulator
from repro.prefetch.schemes import (
    PrefetchGuidedPolicy,
    prefetchability_breakdown,
    prefetchability_summary,
)
from repro.prefetch.stride import StridePredictor
from repro.workloads import make_gzip


class TestStridePredictor:
    def test_needs_two_confirmations(self):
        predictor = StridePredictor()
        hits = [predictor.access(0x40, addr) for addr in (0, 8, 16, 24, 32)]
        # First access trains; stride seen once at 8, twice at 16; the
        # accesses at 24 and 32 are then predicted.
        assert hits == [False, False, False, True, True]

    def test_stride_change_resets_confidence(self):
        predictor = StridePredictor()
        for addr in (0, 8, 16, 24):
            predictor.access(0x40, addr)
        assert predictor.access(0x40, 100) is False  # breaks the stride
        assert predictor.access(0x40, 108) is False  # stride seen once
        assert predictor.access(0x40, 116) is False  # seen twice; predicts next
        assert predictor.access(0x40, 124) is True

    def test_per_pc_isolation(self):
        predictor = StridePredictor()
        for i in range(3):
            predictor.access(0x40, i * 8)
            predictor.access(0x44, i * 1000)
        # Interleaving does not disturb either PC's confirmed stride.
        assert predictor.access(0x40, 24) is True
        assert predictor.access(0x44, 3000) is True
        assert predictor.access(0x44, 3008) is False

    def test_capacity_evicts_lru(self):
        predictor = StridePredictor(capacity=2)
        predictor.access(1, 0)
        predictor.access(2, 0)
        predictor.access(3, 0)  # evicts pc=1
        assert len(predictor) == 2
        # pc=1 is relearned from scratch: no stride, so nothing predicted.
        assert [predictor.access(1, addr) for addr in (8, 16, 24)] == [
            False, False, False,
        ]
        assert len(predictor) == 2

    def test_accuracy_tracking(self):
        # Of the two confident predictions, the one that misses the
        # address reports no stride access.
        predictor = StridePredictor()
        hits = [predictor.access(0x40, addr) for addr in (0, 8, 16, 24, 999)]
        assert hits == [False, False, False, True, False]


class TestAnnotatedIntervals:
    def _make(self, lengths, nl, st, tail=None):
        n = len(lengths)
        return IntervalPopulation.of(
            lengths,
            nextline=np.array(nl, dtype=bool),
            stride=np.array(st, dtype=bool),
            tail=np.array(tail if tail is not None else [False] * n, dtype=bool),
        )

    def test_flag_alignment_enforced(self):
        with pytest.raises(IntervalError):
            self._make([10, 20], [True], [False, False])

    def test_nl_stride_disjointness_enforced(self):
        with pytest.raises(IntervalError):
            self._make([10], [True], [True])

    def test_prefetchability_fraction(self):
        population = self._make([10, 20, 30, 40], [True, False, False, False],
                                [False, True, False, False])
        assert population.prefetchability == pytest.approx(0.5)


class TestAnnotatingSimulator:
    def test_flags_align_with_intervals(self):
        annotated, raw = run_recorded(
            AnnotatingSimulator(), make_gzip(scale=0.05).chunks()
        )
        for cache, view in raw.items():
            assert view.nextline.shape == view.lengths.shape
            assert not np.any(view.nextline & view.stride)
            population = annotated.annotated_for(cache)
            assert not np.any(population.nextline & population.stride)

    def test_sequential_code_is_nextline_prefetchable(self):
        # A straight-line loop: every line's re-fetch follows its
        # predecessor's fetch, so long intervals are NL-covered.
        body = np.arange(1024, dtype=np.int64) * 4  # 4KB straight-line loop
        trace = TraceChunk(np.tile(body, 50))
        _, raw = run_recorded(AnnotatingSimulator(), trace)
        view = raw["l1i"]
        eligible = (view.lengths > 6) & ~view.tail
        assert float(view.nextline[eligible].mean()) > 0.9

    def test_strided_loads_are_stride_prefetchable(self):
        # One static load striding by 256B (skips lines, defeating NL).
        n = 2000
        pcs = np.tile(np.arange(16, dtype=np.int64) * 4, n // 16)
        addrs = np.full(n, -1, dtype=np.int64)
        addrs[pcs == 0] = np.arange((pcs == 0).sum(), dtype=np.int64) * 256
        trace = TraceChunk(pcs, addrs)
        annotated = AnnotatingSimulator().run(trace)
        view = annotated.l1d
        flagged = int(view.counts[view.stride].sum())
        assert flagged > 50

    def test_wide_block_span_matches_the_scalar_replay(self):
        # Data blocks 2^55 apart do not pack beside the event index, so
        # the batched annotator renumbers them: adjacent blocks must stay
        # adjacent (11 after 10) and no others may become so (40 after 12).
        rng = np.random.default_rng(3)
        far = 1 << 55
        blocks = rng.choice(
            np.array([10, 11, 12, 40, far + 7, far + 8, far + 30]), size=3000
        )
        pcs = 0x1000 + 4 * (np.arange(3000, dtype=np.int64) % 64)
        trace = TraceChunk(pcs, blocks * 64)
        scalar, scalar_raw = run_recorded(AnnotatingSimulator(kernel="scalar"), trace)
        batched, batched_raw = run_recorded(
            AnnotatingSimulator(kernel="batched"), trace
        )
        batched_raw["l1d"].assert_same(scalar_raw["l1d"], "l1d")
        assert batched.l1d == scalar.l1d
        assert batched.l1d.nextline.any()

    def test_single_use(self):
        simulator = AnnotatingSimulator()
        simulator.run(TraceChunk(np.zeros(10, dtype=np.int64)))
        with pytest.raises(SimulationError):
            simulator.run(TraceChunk(np.zeros(10, dtype=np.int64)))

    def test_tail_flags_cover_unclosed_intervals(self):
        _, raw = run_recorded(
            AnnotatingSimulator(), TraceChunk(np.zeros(10, dtype=np.int64))
        )
        # Every frame's final interval is a tail; exactly n_frames of them.
        assert int(raw["l1i"].tail.sum()) == 1024
        assert int(raw["l1d"].tail.sum()) == 1024


class TestPrefetchSchemes:
    def _annotated(self, model):
        lengths = [3, 100, 100, 5000, 5000, 100_000]
        nl = [False, True, False, True, False, False]
        st = [False, False, False, False, False, False]
        tail = [False, False, False, False, False, True]
        return RawIntervals(
            np.array(lengths, dtype=np.int64), np.zeros(6, dtype=np.uint8),
            np.array(nl), np.array(st), np.array(tail),
        )

    @staticmethod
    def _schemes(model):
        """Prefetch-A and Prefetch-B."""
        return (
            PrefetchGuidedPolicy(model, math.inf),
            PrefetchGuidedPolicy(model, model.drowsy_min_length),
        )

    def test_prefetch_a_keeps_np_active(self, model70):
        annotated = self._annotated(model70)
        policy, _ = self._schemes(model70)
        codes = policy.modes(annotated.lengths, annotated.prefetchable)
        # NP intervals (index 2 and 4) stay active; P intervals get modes.
        assert list(codes) == [0, 1, 0, 2, 0, 2]

    def test_prefetch_b_drowsies_np(self, model70):
        annotated = self._annotated(model70)
        _, policy = self._schemes(model70)
        codes = policy.modes(annotated.lengths, annotated.prefetchable)
        assert list(codes) == [0, 1, 1, 2, 1, 2]

    def test_b_saves_at_least_a(self, model70):
        population = self._annotated(model70).population()
        a, b = (policy.price(population) for policy in self._schemes(model70))
        assert b.savings.saving_fraction >= a.savings.saving_fraction

    def test_a_has_no_wakeup_stalls(self, model70):
        population = self._annotated(model70).population()
        a, b = (policy.price(population) for policy in self._schemes(model70))
        assert a.wakeup_stall_cycles == 0
        assert b.wakeup_stall_cycles == 2 * model70.durations.d3
        assert b.stall_overhead > 0

    def test_mask_alignment_enforced(self, model70):
        _, policy = self._schemes(model70)
        with pytest.raises(PolicyError):
            policy.modes(np.array([10, 20]), np.array([True]))
        with pytest.raises(PolicyError):
            policy.modes(np.array([10, 20]))  # no flags at all

    def test_breakdown_ranges(self, model70):
        population = self._annotated(model70).population()
        rows = prefetchability_breakdown(population, model70)
        assert len(rows) == 3
        assert rows[0].total == 1           # the length-3 interval
        assert rows[1].total == 2           # the two 100-cycle intervals
        assert rows[2].total == 3           # 5000, 5000, 100000
        assert sum(r.nextline for r in rows) == 2

    def test_summary_fractions(self, model70):
        population = self._annotated(model70).population()
        summary = prefetchability_summary(population)
        assert summary["nextline"] == pytest.approx(2 / 6)
        assert summary["stride"] == pytest.approx(0.0)
