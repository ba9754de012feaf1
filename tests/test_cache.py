"""Tests for repro.cache — configs, replacement, the cache, interval closing."""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import (
    CacheConfig,
    paper_l1d_config,
    paper_l1i_config,
    paper_l2_config,
)
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.replacement import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    make_replacement_policy,
)
from repro.core.intervals import IntervalKind
from repro.cpu.pipeline import PipelineConfig
from repro.cpu.trace import TraceChunk
from repro.errors import ConfigurationError, SimulationError
from repro.prefetch.analysis import _CacheAnnotator, annotate_workload_trace


class TestCacheConfig:
    def test_paper_geometries(self):
        l1i, l1d, l2 = paper_l1i_config(), paper_l1d_config(), paper_l2_config()
        assert (l1i.n_lines, l1i.n_sets, l1i.hit_latency) == (1024, 512, 1)
        assert (l1d.n_lines, l1d.n_sets, l1d.hit_latency) == (1024, 512, 3)
        assert (l2.n_lines, l2.n_sets, l2.hit_latency) == (32768, 32768, 7)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("x", 60_000, 64, 2, 1)
        with pytest.raises(ConfigurationError):
            CacheConfig("x", 65_536, 60, 2, 1)

    def test_line_larger_than_cache_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig("x", 64, 128, 1, 1)

    def test_address_mapping(self):
        # 64B lines; 512 sets of 2 ways: bytes 0..63 are block 0, and
        # blocks 0, 512 and 1024 share set 0 while 513 sits in set 1.
        cache = SetAssociativeCache(paper_l1i_config())
        assert cache.access(0, 0) is False
        assert cache.access(63, 1) is True
        assert cache.access(64, 2) is False
        for time, block in enumerate((512, 513, 1024), start=3):
            cache.access_block(block, time)
        assert not cache.probe(0)  # the LRU way of set 0
        assert cache.probe(1) and cache.probe(513)

    def test_describe(self):
        assert paper_l1i_config().describe() == "64KB 2-way 64B-line (1-cycle)"
        assert paper_l2_config().describe() == "2MB direct-mapped 64B-line (7-cycle)"


class TestReplacement:
    def test_lru_evicts_least_recent(self):
        lru = LruPolicy(n_sets=1, associativity=2)
        lru.on_access(0, 0, time=1)
        lru.on_access(0, 1, time=2)
        assert lru.victim_way(0) == 0
        lru.on_access(0, 0, time=3)
        assert lru.victim_way(0) == 1

    def test_fifo_ignores_hits(self):
        fifo = FifoPolicy(n_sets=1, associativity=2)
        assert fifo.victim_way(0) == 0
        fifo.on_access(0, 0, time=100)  # a hit must not change FIFO order
        assert fifo.victim_way(0) == 1
        assert fifo.victim_way(0) == 0

    def test_random_is_seeded(self):
        a = RandomPolicy(4, 4, seed=7)
        b = RandomPolicy(4, 4, seed=7)
        assert [a.victim_way(0) for _ in range(10)] == [
            b.victim_way(0) for _ in range(10)
        ]

    def test_factory(self):
        assert isinstance(make_replacement_policy("lru", 4, 2), LruPolicy)
        with pytest.raises(ConfigurationError):
            make_replacement_policy("plru", 4, 2)


class TestSetAssociativeCache:
    @pytest.fixture()
    def tiny(self):
        # 4 sets x 2 ways of 64B lines = 512B cache.
        return SetAssociativeCache(CacheConfig("tiny", 512, 64, 2, 1))

    def test_first_access_misses_then_hits(self, tiny):
        assert tiny.access_block(0, 0) is False
        assert tiny.access_block(0, 1) is True
        assert tiny.stats.compulsory_misses == 1

    def test_set_conflict_eviction(self, tiny):
        # Blocks 0, 4, 8 all map to set 0 of a 4-set cache.
        tiny.access_block(0, 0)
        tiny.access_block(4, 1)
        tiny.access_block(8, 2)  # evicts LRU block 0
        assert tiny.stats.evictions == 1
        assert tiny.access_block(0, 3) is False  # was evicted
        assert tiny.access_block(8, 4) is True

    def test_lru_preserves_recent_way(self, tiny):
        tiny.access_block(0, 0)
        tiny.access_block(4, 1)
        tiny.access_block(0, 2)  # touch 0 again; 4 is now LRU
        tiny.access_block(8, 3)  # evicts 4
        assert tiny.access_block(0, 4) is True
        assert tiny.access_block(4, 5) is False

    def test_probe_does_not_touch(self, tiny):
        tiny.access_block(0, 0)
        before = tiny.stats.accesses
        assert tiny.probe(0) is True
        assert tiny.probe(4) is False
        assert tiny.stats.accesses == before

    def test_access_block_ex_returns_frame(self, tiny):
        hit, frame = tiny.access_block_ex(5, 0)
        assert hit is False
        assert tiny.probe(5)
        assert frame // tiny.config.associativity == 5 % tiny.config.n_sets

    def test_flush_invalidates(self, tiny):
        tiny.access_block(0, 0)
        tiny.flush()
        assert not tiny.probe(0)
        assert tiny.access_block(0, 1) is False

    def test_byte_address_access(self, tiny):
        tiny.access(0x100, 0)
        assert tiny.probe(0x100 >> 6)

class TestIntervalCollector:
    """The scalar path's interval-closing rule, fed by a cache's events."""

    @staticmethod
    def _rows(population):
        return list(
            zip(
                population.lengths.tolist(),
                [IntervalKind(k) for k in population.kinds],
                population.counts.tolist(),
            )
        )

    def test_hits_produce_normal_intervals(self):
        collector = _CacheAnnotator(n_frames=1, floor=6)
        collector.observe(0, 0, 10, False, False)
        collector.observe(0, 0, 15, True, False)
        collector.observe(0, 0, 40, True, False)
        assert list(collector._lengths) == [10, 5, 25]
        assert [IntervalKind(k) for k in collector._kinds] == [
            IntervalKind.COLD,
            IntervalKind.NORMAL,
            IntervalKind.NORMAL,
        ]
        assert self._rows(collector.population(100)) == [
            (5, IntervalKind.NORMAL, 1),
            (10, IntervalKind.COLD, 1),
            (25, IntervalKind.NORMAL, 1),
            (60, IntervalKind.DEAD, 1),
        ]

    def test_refill_produces_dead_interval(self):
        collector = _CacheAnnotator(n_frames=1, floor=6)
        collector.observe(0, 0, 0, False, False)
        collector.observe(0, 0, 5, True, False)
        collector.observe(1, 0, 30, False, False)  # eviction + new generation
        assert list(collector._lengths) == [5, 25]
        assert IntervalKind(collector._kinds[1]) == IntervalKind.DEAD
        assert self._rows(collector.population(40)) == [
            (5, IntervalKind.NORMAL, 1),
            (10, IntervalKind.DEAD, 1),
            (25, IntervalKind.DEAD, 1),
        ]

    def test_unused_frame_is_one_cold_interval(self):
        collector = _CacheAnnotator(n_frames=2, floor=6)
        collector.observe(0, 0, 10, False, False)
        cold = collector.population(50).of_kind(IntervalKind.COLD)
        assert self._rows(cold) == [
            (10, IntervalKind.COLD, 1),
            (50, IntervalKind.COLD, 1),
        ]

    def test_total_cycles_is_frames_times_span(self):
        cache = SetAssociativeCache(CacheConfig("x", 256, 64, 1, 1))  # 4 frames
        collector = _CacheAnnotator(cache.config.n_lines, floor=6)
        for time, block in ((5, 0), (7, 1), (20, 0), (30, 5), (31, 2)):
            hit, frame = cache.access_block_ex(block, time)
            collector.observe(block, frame, time, hit, False)
        assert collector.population(100).total_cycles == 4 * 100

    def test_time_reversal_rejected(self):
        collector = _CacheAnnotator(n_frames=1, floor=6)
        collector.observe(0, 0, 10, False, False)
        with pytest.raises(SimulationError):
            collector.observe(0, 0, 5, True, False)


class TestHierarchy:
    def test_paper_config(self):
        hierarchy = MemoryHierarchy()
        assert hierarchy.config.l1i.n_lines == 1024
        assert hierarchy.config.memory_latency == 100

    def test_latencies(self):
        # Cold fetch: L2 miss -> memory, 107 cycles, of which the 1-cycle
        # I-cache hit is pipelined away.  The next fetch group of the
        # same line hits.  A cold load (107 cycles, 3 hidden) stalls in
        # full with no load overlap; its reuse hits.
        pcs = np.array([0x1000, 0x1010, 0x1020], dtype=np.int64)
        addrs = np.array([-1, 0x2000, 0x2000], dtype=np.int64)
        for kernel in ("scalar", "batched"):
            result = annotate_workload_trace(
                TraceChunk(pcs, addrs), pipeline=PipelineConfig(load_mlp=1),
                kernel=kernel,
            ).result
            assert result.stall_cycles == (107 - 1) + (107 - 3)
            assert result.stats.level("L1I").hits == 2
            assert result.stats.level("L1D").hits == 1

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = MemoryHierarchy()
        # Fill block 0, then evict it from L1 set 0 by filling the set;
        # the re-access misses the L1 and hits the L2 (7 cycles).
        for time, block in enumerate((0, 512, 1024)):
            assert not hierarchy.l1d.access_block(block, time)
            assert hierarchy.fill_latency(block, time) == 107
        assert not hierarchy.l1d.access_block(0, 3)
        assert hierarchy.fill_latency(0, 3) == 7

    def test_mismatched_line_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(
                paper_l1i_config(),
                paper_l1d_config(),
                CacheConfig("L2", 2 * 1024 * 1024, 128, 1, 7),
            )

    def test_stats_levels(self):
        hierarchy = MemoryHierarchy()
        hierarchy.l1i.access_block(0, 0)
        stats = hierarchy.stats()
        assert set(stats.levels) == {"L1I", "L1D", "L2"}
        assert stats.level("L1I").accesses == 1
        assert "L1I" in stats.describe()
