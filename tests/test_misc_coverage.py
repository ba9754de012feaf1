"""Remaining-surface tests: stats counters, trace edges, describe paths."""

import numpy as np
import pytest

from repro.cache.stats import CacheStats, HierarchyStats
from repro.cpu.trace import TraceChunk
from repro.workloads import BENCHMARK_NAMES, Phase, Visit, Workload, make_benchmark


class TestCacheStats:
    def test_rates_with_zero_accesses(self):
        empty = CacheStats()
        assert empty.miss_rate == 0.0

    def test_as_dict_keys(self):
        stats = CacheStats(name="x", accesses=4, hits=3, misses=1)
        assert stats.miss_rate == pytest.approx(0.25)

    def test_hierarchy_stats_creates_levels_on_demand(self):
        stats = HierarchyStats()
        stats.level("L1I").accesses += 1
        assert stats.level("L1I").accesses == 1
        assert "L1I" in stats.describe()


class TestTraceEdges:
    def test_empty_chunk(self):
        chunk = TraceChunk(np.empty(0, dtype=np.int64))
        assert len(chunk) == 0

    def test_slice_out_of_range_is_empty(self):
        chunk = TraceChunk([0, 4])
        assert len(chunk.slice(5, 9)) == 0


class TestScheduleHelpers:
    def test_super_schedule_builds_working_workload(self):
        # A two-level schedule: each group's visits repeat before the next.
        phases = [Phase("a", 0, 32, block_instructions=0),
                  Phase("b", 0x1000, 32, block_instructions=0)]
        schedule = [Visit(0, 64)] * 2 + [Visit(1, 64)] * 2
        workload = Workload("w", phases, schedule, rounds=2)
        assert workload.total_instructions == 2 * 4 * 64


class TestBenchmarkDescriptions:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_describe_runs_for_every_benchmark(self, name):
        text = make_benchmark(name, scale=0.05).describe()
        assert f"workload {name}" in text

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_benchmark_has_a_small_body_region(self, name):
        # The (6, 1057] drowsy band needs at least one small-body region.
        workload = make_benchmark(name, scale=0.05)
        assert any(p.body_instructions <= 1280 for p in workload.phases)
