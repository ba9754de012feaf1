"""Property-based tests for the simulation substrate.

A reference-model check for the set-associative cache (a naive dict/list
LRU model must agree access for access), plus conservation invariants of
the scalar interval collector and timing model under random stimulus.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.core.intervals import IntervalKind
from repro.cpu.pipeline import (
    CPI_FP_BITS,
    IssueClock,
    PipelineConfig,
    cpi_fixed_point,
)
from repro.cpu.trace import TraceChunk
from repro.prefetch.analysis import _CacheAnnotator, annotate_workload_trace


class ReferenceLruCache:
    """A deliberately naive LRU cache model: one OrderedDict per set."""

    def __init__(self, n_sets: int, assoc: int) -> None:
        self.n_sets = n_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(n_sets)]

    def access(self, block: int) -> bool:
        bucket = self.sets[block % self.n_sets]
        hit = block in bucket
        if hit:
            bucket.move_to_end(block)
        else:
            if len(bucket) >= self.assoc:
                bucket.popitem(last=False)
            bucket[block] = True
        return hit


@st.composite
def access_sequences(draw):
    n = draw(st.integers(1, 300))
    blocks = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
    return blocks


class TestCacheAgainstReferenceModel:
    @given(blocks=access_sequences())
    @settings(max_examples=150, deadline=None)
    def test_hit_miss_stream_matches_reference(self, blocks):
        # 8 sets x 2 ways of 64B lines.
        cache = SetAssociativeCache(CacheConfig("x", 1024, 64, 2, 1))
        reference = ReferenceLruCache(n_sets=8, assoc=2)
        for time, block in enumerate(blocks):
            assert cache.access_block(block, time) == reference.access(block)

    @given(blocks=access_sequences(), assoc=st.sampled_from([1, 2, 4]))
    @settings(max_examples=50, deadline=None)
    def test_statistics_are_consistent(self, blocks, assoc):
        cache = SetAssociativeCache(CacheConfig("x", 64 * 16, 64, assoc, 1))
        for time, block in enumerate(blocks):
            cache.access_block(block, time)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses == len(blocks)
        assert stats.compulsory_misses == len(set(blocks))
        assert stats.evictions <= stats.misses


class TestTrackerConservation:
    """Conservation under the scalar path's interval collector."""

    @given(
        events=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(1, 50)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_total_cycles_equals_frames_times_span(self, events):
        collector = _CacheAnnotator(n_frames=4, floor=6)
        time = 0
        for frame, is_fill, delta in events:
            time += delta
            # A "hit" on an empty frame closes its COLD interval like a
            # fill; the cache guarantees fills first anyway.
            collector.observe(frame, frame, time, not is_fill, False)
        end = time + 10
        assert collector.population(end).total_cycles == 4 * end

    @given(
        times=st.lists(st.integers(1, 10_000), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_frame_kinds_structure(self, times):
        times = sorted(set(times))
        collector = _CacheAnnotator(n_frames=1, floor=6)
        for index, t in enumerate(times):
            collector.observe(0, 0, t, index > 0, False)
        population = collector.population(times[-1] + 5)
        counts = {
            IntervalKind(kind): int(population.counts[population.kinds == kind].sum())
            for kind in IntervalKind
        }
        # One cold lead-in, one dead tail, and a NORMAL gap per re-access.
        assert counts == {
            IntervalKind.NORMAL: len(times) - 1,
            IntervalKind.DEAD: 1,
            IntervalKind.COLD: 1,
        }
        assert list(collector._kinds) == [IntervalKind.COLD] + [
            IntervalKind.NORMAL
        ] * (len(times) - 1)


class TestTimingProperties:
    @given(
        n=st.integers(1, 2000),
        cpi=st.floats(0.25, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    @example(n=25, cpi=0.28)
    def test_base_cpi_rate_is_respected(self, n, cpi):
        # The clock charges the fixed-point CPI, whose closed form
        # ``IssueClock.issue`` documents; the quantization itself is at
        # most half a unit of 2**-CPI_FP_BITS cycles.
        cpi_fp = cpi_fixed_point(cpi)
        assert abs(cpi_fp - cpi * 2**CPI_FP_BITS) <= 0.5
        clock = IssueClock(PipelineConfig(base_cpi=cpi, stall_on_miss=False))
        for _ in range(n):
            clock.issue()
        assert clock.cycle == (n * cpi_fp) >> CPI_FP_BITS

    @given(pcs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_simulation_conserves_counts(self, pcs):
        chunk = TraceChunk(np.array(pcs, dtype=np.int64) * 4)
        result = annotate_workload_trace(chunk).result
        assert result.instructions == len(pcs)
        assert result.cycles >= 1
        stats = result.stats.level("L1I")
        assert stats.hits + stats.misses == stats.accesses
        # Interval populations always tile the full cache timeline.
        assert result.l1i_intervals.total_cycles == 1024 * result.cycles
        assert result.l1d_intervals.total_cycles == 1024 * result.cycles
