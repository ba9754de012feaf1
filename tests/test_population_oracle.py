"""Reduced interval populations against the raw intervals they came from.

A simulation job returns each cache's
:class:`~repro.core.intervals.IntervalPopulation` — (length, class,
count) rows — that the simulator folded chunk by chunk into an
:class:`~repro.core.intervals.IntervalRows`; the raw intervals exist only
as the columns of each fold, which these tests record.  For all six paper
benchmarks at scale 0.05 and both caches, every count, statistic,
length spectrum and Figure 9 number read off the reduction must equal the
per-interval computation on the raw columns exactly, and every policy
price must agree with per-interval pricing within 1e-12 relative.
Folding in any chunk split must equal reducing the concatenation at once.
"""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import run_recorded
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import intervals as intervals_module
from repro.core.inflection import solve_sleep_drowsy_point
from repro.core.intervals import (
    CLASS_BITS,
    CLASS_MASK,
    IntervalKind,
    IntervalPopulation,
    IntervalRows,
)
from repro.core.modes import Mode
from repro.errors import IntervalError
from repro.core.policy import CODE_MODES, OptHybrid, trio_policies
from repro.core.savings import evaluate_policy
from repro.engine import ExecutionEngine, ResultStore, SimulationJob, execute_job
from repro.prefetch.analysis import AnnotatingSimulator
from repro.prefetch.schemes import (
    PrefetchGuidedPolicy,
    prefetchability_breakdown,
    prefetchability_summary,
)
from repro.workloads.benchmarks import BENCHMARK_NAMES, make_benchmark

SCALE = 0.05
REL = 1e-12
BOUNDARIES = [6, 100, 1057, 10_000, 100_000]
CACHES = ("l1i", "l1d")


@pytest.fixture(scope="module", params=BENCHMARK_NAMES)
def pair(request):
    """(job result, simulator result, {cache: the intervals it folded})."""
    name = request.param
    reduced = execute_job(SimulationJob(name, scale=SCALE))
    simulated, raw = run_recorded(
        AnnotatingSimulator(), make_benchmark(name, scale=SCALE).chunks()
    )
    return reduced, simulated, raw


def views(pair, cache):
    """(population, lengths, kinds, raw flags) — as stored, and as_normal."""
    reduced, _, raw = pair
    population = reduced.annotated_for(cache)
    annotated = raw[cache]
    lengths = annotated.lengths
    kinds = annotated.kinds
    yield population, lengths, kinds, annotated
    yield population.as_normal(), lengths, np.zeros_like(kinds), annotated


def spectrum(lengths, kinds, flags, counts=None):
    """Distinct ``(length, kind, flag)`` keys, ascending, with counts."""
    keys = (np.asarray(lengths, dtype=np.int64) << 3) | (
        np.asarray(kinds, dtype=np.int64) << 1
    ) | np.asarray(flags, dtype=np.int64)
    if counts is None:
        return np.unique(keys, return_counts=True)
    distinct, inverse = np.unique(keys, return_inverse=True)
    return distinct, np.bincount(inverse, weights=counts).astype(np.int64)


def assert_same_spectrum(got, expected):
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("cache", CACHES)
class TestReducedAgainstRaw:
    def test_result_scalars_carry_over(self, pair, cache):
        reduced, simulated, _ = pair
        for field in ("cycles", "instructions", "stall_cycles", "stats"):
            assert getattr(reduced.result, field) == getattr(
                simulated.result, field
            )
        intervals = getattr(reduced.result, f"{cache}_intervals")
        assert intervals is reduced.annotated_for(cache)

    def test_counts_and_statistics_exact(self, pair, cache):
        for population, lengths, kinds, _ in views(pair, cache):
            assert len(population) == len(lengths)
            assert population.total_cycles == int(lengths.sum())
            edges = [0] + BOUNDARIES + [np.inf]
            masks = [
                (lengths > lo) & (lengths <= hi) for lo, hi in zip(edges, edges[1:])
            ]
            total = float(lengths.sum())
            assert population.cycle_mass_by_class(BOUNDARIES) == [
                float(lengths[mask].sum()) / total for mask in masks
            ]
            for kind in IntervalKind:
                subset = population.of_kind(kind)
                assert len(subset) == int((kinds == kind).sum())
                assert subset.total_cycles == int(lengths[kinds == kind].sum())

    def test_spectra_exact(self, pair, cache):
        # The rows collapse to the raw intervals' exact length spectrum
        # per kind, and per (kind, prefetchable) class.
        for population, lengths, kinds, annotated in views(pair, cache):
            rows = (population.lengths, population.kinds)
            for flags, row_flags in (
                (np.zeros_like(kinds), np.zeros_like(population.kinds)),
                (annotated.prefetchable, population.prefetchable),
            ):
                assert_same_spectrum(
                    spectrum(*rows, row_flags, population.counts),
                    spectrum(lengths, kinds, flags),
                )

    def test_figure9_exact(self, pair, cache, model70):
        a = model70.durations.drowsy_overhead
        b = solve_sleep_drowsy_point(model70)
        for population, lengths, _, annotated in views(pair, cache):
            ranges = [lengths <= a, (lengths > a) & (lengths <= b), lengths > b]
            rows = prefetchability_breakdown(population, model70)
            assert [(r.total, r.nextline, r.stride) for r in rows] == [
                (
                    int(mask.sum()),
                    int((annotated.nextline & mask).sum()),
                    int((annotated.stride & mask).sum()),
                )
                for mask in ranges
            ]
            n = len(lengths)
            nextline = float(annotated.nextline.sum()) / n
            stride = float(annotated.stride.sum()) / n
            assert prefetchability_summary(population) == {
                "nextline": nextline,
                "stride": stride,
                "total": nextline + stride,
            }
            assert population.prefetchability == (
                float(annotated.prefetchable.sum()) / n
            )

    def test_pricing_matches_per_interval(self, pair, cache, model70):
        stored, normal = views(pair, cache)
        policies = [
            *trio_policies(model70),
            PrefetchGuidedPolicy(model70, math.inf),  # Prefetch-A
            PrefetchGuidedPolicy(model70, model70.drowsy_min_length),  # Prefetch-B
            PrefetchGuidedPolicy(model70, np_threshold=2000),
        ]
        for policy in policies:
            assert_priced_like_raw(policy, *normal, dead_aware=False)
        assert_priced_like_raw(OptHybrid(model70), *stored, dead_aware=True)


def assert_priced_like_raw(policy, population, lengths, kinds, annotated, dead_aware):
    """Spectrum pricing of ``population`` against per-interval pricing."""
    report = evaluate_policy(policy, population, dead_aware=dead_aware)
    flags = annotated.prefetchable
    if isinstance(policy, PrefetchGuidedPolicy):
        stalls = policy.price(population, dead_aware=dead_aware).wakeup_stall_cycles
        assert stalls == policy.wakeup_stall_cycles(lengths, flags)
    energies = policy.energies(lengths, kinds, flags, dead_aware=dead_aware)
    codes = policy.modes(lengths, flags)
    for code, mode in CODE_MODES.items():
        mask = codes == code
        entry = report.breakdown.get(mode)
        if not mask.any():
            assert entry is None
            continue
        assert entry.interval_count == int(mask.sum())
        assert entry.cycles == int(lengths[mask].sum())
        assert entry.energy == pytest.approx(float(energies[mask].sum()), rel=REL)
    baseline = float(policy.model.energy(Mode.ACTIVE, lengths).sum())
    saving = 1.0 - (
        float(energies.sum()) + policy.overhead_power_fraction * float(lengths.sum())
    ) / baseline
    assert report.saving_fraction == pytest.approx(saving, rel=REL, abs=REL)


class TestWeightedStatistics:
    """The weighted rows expand back to the array they reduce."""

    @staticmethod
    def assert_matches_numpy(lengths, kinds=None):
        lengths = np.asarray(lengths, dtype=np.int64)
        population = IntervalPopulation.of(lengths, kinds)
        assert len(population) == len(lengths)
        assert population.total_cycles == int(lengths.sum())
        expanded = np.repeat(population.lengths, population.counts)
        assert np.array_equal(expanded, np.sort(lengths))

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(1, 10**7), st.integers(1, 40), st.integers(0, 2)),
            min_size=1,
            max_size=25,
        )
    )
    def test_random_rows(self, rows):
        lengths = np.repeat([r[0] for r in rows], [r[1] for r in rows])
        kinds = np.repeat([r[2] for r in rows], [r[1] for r in rows])
        self.assert_matches_numpy(lengths, kinds)

    def test_single_row(self):
        self.assert_matches_numpy([7, 7, 7])
        assert IntervalPopulation.of([7, 7, 7]).lengths.size == 1

    def test_all_equal_lengths_across_classes(self):
        self.assert_matches_numpy([5, 5, 5, 5], kinds=[0, 1, 2, 0])
        assert IntervalPopulation.of([5, 5, 5, 5], kinds=[0, 1, 2, 0]).lengths.size == 3

    def test_empty(self):
        population = IntervalPopulation.of([])
        assert (len(population), population.total_cycles) == (0, 0)


def _fold_columns(draw, n):
    """Random per-interval columns: lengths with repeats, kinds, and flags
    that never set next-line and stride together."""
    pool = draw(st.lists(st.integers(1, 10**7), min_size=1, max_size=8))
    lengths = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    kinds = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    flags = draw(
        st.lists(
            st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)]),
            min_size=n,
            max_size=n,
        )
    )
    flags = np.array(flags, dtype=bool).reshape(n, 3)
    return (
        np.array(lengths, dtype=np.int64),
        np.array(kinds, dtype=np.uint8),
        flags[:, 0],
        flags[:, 1],
        flags[:, 2],
    )


@st.composite
def split_columns(draw):
    n = draw(st.integers(0, 200))
    columns = _fold_columns(draw, n)
    cuts = draw(st.lists(st.integers(0, n), max_size=6))
    return columns, sorted(set(cuts) | {0, n})


class TestFoldedRows:
    """Folding chunk by chunk equals reducing the concatenation at once."""

    @settings(max_examples=100, deadline=None)
    @given(case=split_columns(), buffer=st.sampled_from([1, 5, 1 << 18]))
    def test_random_chunk_splits(self, case, buffer):
        columns, cuts = case
        with pytest.MonkeyPatch.context() as patch:
            # Small buffers merge into the rows between folds.
            patch.setattr(intervals_module, "_FOLD_BUFFER", buffer)
            rows = IntervalRows()
            for lo, hi in zip(cuts, cuts[1:]):
                rows.fold(*(column[lo:hi] for column in columns))
            folded = rows.population()
        assert folded == IntervalPopulation.of(*columns)
        lengths, kinds, nextline, stride, tail = columns
        keys = (
            (lengths << CLASS_BITS)
            | (kinds.astype(np.int64) << 3)
            | (nextline.astype(np.int64) << 2)
            | (stride.astype(np.int64) << 1)
            | tail.astype(np.int64)
        )
        distinct, counts = np.unique(keys, return_counts=True)
        assert np.array_equal(folded.lengths, distinct >> CLASS_BITS)
        assert np.array_equal(folded.classes, distinct & CLASS_MASK)
        assert np.array_equal(folded.counts, counts)
        # The dtypes a stored result pickles with.
        assert (folded.lengths.dtype, folded.classes.dtype, folded.counts.dtype) == (
            np.int64, np.uint8, np.int64,
        )

    def test_a_chunk_is_checked_before_it_folds(self):
        rows = IntervalRows()
        rows.fold([4, 9], kinds=[0, 1])
        for columns, message in (
            (([4, 0],), "positive"),
            (([4, 9], [0]), "kinds misaligned"),
            (([4, 9], None, [True, False], [True, False]), "overlap"),
            (([4, 9], None, None, None, [True]), "tail flags misaligned"),
        ):
            with pytest.raises(IntervalError, match=message):
                rows.fold(*columns)
        # A rejected chunk leaves the rows as they were.
        assert rows.population() == IntervalPopulation.of([4, 9], kinds=[0, 1])


class TestJobMemory:
    """A job's memory follows its chunks and distinct rows, not its trace."""

    @staticmethod
    def traced_peak_mb(scale):
        """(traced peak in MB, interval count) of one gzip job."""
        tracemalloc.start()
        try:
            annotated = execute_job(SimulationJob("gzip", scale=scale))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20, len(annotated.l1i) + len(annotated.l1d)

    def test_peak_does_not_follow_the_interval_count(self, monkeypatch):
        # The batched kernels fold as they go; the scalar oracle keeps
        # every interval by design.
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        execute_job(SimulationJob("gzip", scale=0.01))  # one-time set-up
        small, small_count = self.traced_peak_mb(0.25)
        large, large_count = self.traced_peak_mb(1.0)
        assert large_count > 3 * small_count
        # CPython 3.11, numpy 2.x: holding one entry per interval grew
        # the peak by about 19 MB (11.3 -> 30.7 MB); folding, by about
        # 5 MB (9.1 -> 13.7 MB).
        assert large - small < 10.0, (small, large)


def _arrays(value, seen=None):
    """Every numpy array reachable from ``value``."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item, seen)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _arrays(item, seen)
    elif hasattr(value, "__dict__"):
        yield from _arrays(vars(value), seen)


class TestStoredEntry:
    def test_stored_entry_holds_no_per_interval_array(self, tmp_path):
        job = SimulationJob("gzip", scale=SCALE)
        ExecutionEngine(jobs=1, store=ResultStore(tmp_path)).run_one(job)
        stored = ResultStore(tmp_path).get(job.key())
        assert stored.result.l1i_intervals is stored.l1i
        assert stored.result.l1d_intervals is stored.l1d
        intervals = min(len(stored.l1i), len(stored.l1d))
        arrays = list(_arrays(stored))
        assert arrays
        assert max(array.size for array in arrays) < intervals
        # The gate built views before the write; none were pickled.
        assert stored.l1i._views == {} and stored.l1d._views == {}
