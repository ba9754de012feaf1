"""Tests for repro.cpu — traces, pipeline timing, trace-driven simulation."""

import numpy as np
import pytest

from repro.cpu.pipeline import IssueClock, PipelineConfig
from repro.cpu.trace import (
    LOAD,
    NO_ACCESS,
    STORE,
    Access,
    TraceChunk,
    load_trace_npz,
    load_trace_text,
    merge_chunks,
    save_trace_npz,
    save_trace_text,
)
from repro.errors import ConfigurationError, SimulationError, TraceError
from repro.prefetch.analysis import AnnotatingSimulator, annotate_workload_trace


def _simulate(trace, **kwargs):
    """The simulation result of one trace (annotations dropped)."""
    return annotate_workload_trace(trace, **kwargs).result


class TestAccess:
    def test_store_requires_address(self):
        with pytest.raises(TraceError):
            Access(pc=0, data_address=None, is_store=True)

    def test_negative_fields_rejected(self):
        with pytest.raises(TraceError):
            Access(pc=-4)
        with pytest.raises(TraceError):
            Access(pc=0, data_address=-8)


class TestTraceChunk:
    def test_roundtrip_through_accesses(self):
        source = [
            Access(0x1000),
            Access(0x1004, 0x2000, is_store=False),
            Access(0x1008, 0x2008, is_store=True),
        ]
        chunk = TraceChunk.from_accesses(source)
        assert list(chunk) == source
        assert list(chunk.data_kinds) == [NO_ACCESS, LOAD, STORE]

    def test_kind_address_consistency_enforced(self):
        with pytest.raises(TraceError):
            TraceChunk([0], data_addresses=[-1], data_kinds=[LOAD])
        with pytest.raises(TraceError):
            TraceChunk([0], data_addresses=[100], data_kinds=[NO_ACCESS])

    def test_default_kinds_inferred_from_addresses(self):
        chunk = TraceChunk([0, 4], data_addresses=[-1, 64])
        assert list(chunk.data_kinds) == [NO_ACCESS, LOAD]

    def test_slice_and_concat(self):
        chunk = TraceChunk([0, 4, 8, 12])
        merged = chunk.slice(0, 2).concat(chunk.slice(2, 4))
        assert np.array_equal(merged.pcs, chunk.pcs)

    def test_merge_chunks(self):
        merged = merge_chunks([TraceChunk([0]), TraceChunk([4])])
        assert list(merged.pcs) == [0, 4]
        assert len(merge_chunks([])) == 0


class TestTraceIO:
    def test_npz_roundtrip(self, tmp_path):
        chunk = TraceChunk([0, 4], data_addresses=[-1, 64])
        path = tmp_path / "trace.npz"
        save_trace_npz(path, chunk)
        loaded = load_trace_npz(path)
        assert np.array_equal(loaded.pcs, chunk.pcs)
        assert np.array_equal(loaded.data_addresses, chunk.data_addresses)

    def test_text_roundtrip(self, tmp_path):
        chunk = TraceChunk.from_accesses(
            [Access(0), Access(4, 64), Access(8, 128, is_store=True)]
        )
        path = tmp_path / "trace.txt"
        save_trace_text(path, chunk)
        loaded = load_trace_text(path)
        assert list(loaded) == list(chunk)

    def test_text_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n16\n20,64,L\n")
        loaded = load_trace_text(path)
        assert len(loaded) == 2

    def test_malformed_text_line_reports_location(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("16\nnot-a-pc\n")
        with pytest.raises(TraceError, match=":2:"):
            load_trace_text(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace_npz(tmp_path / "missing.npz")
        with pytest.raises(TraceError):
            load_trace_text(tmp_path / "missing.txt")


class TestIssueClock:
    def test_base_cpi_sets_long_run_rate(self):
        clock = IssueClock(PipelineConfig(base_cpi=0.65, stall_on_miss=False))
        for _ in range(10_000):
            clock.issue()
        assert clock.cycle == pytest.approx(6500, abs=2)

    def test_full_width_cpi(self):
        clock = IssueClock(PipelineConfig(base_cpi=0.25))
        cycles = [clock.issue() for _ in range(8)]
        assert cycles == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_stall_advances_clock(self):
        clock = IssueClock()
        clock.stall(10)
        assert clock.cycle == 10
        assert clock.stall_cycles == 10

    def test_stall_disabled(self):
        clock = IssueClock(PipelineConfig(stall_on_miss=False))
        clock.stall(10)
        assert clock.cycle == 0

    def test_negative_stall_rejected(self):
        with pytest.raises(ConfigurationError):
            IssueClock().stall(-1)

    def test_cpi_below_width_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(width=4, base_cpi=0.1)

    def test_fetch_group_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(fetch_group_bytes=24)


class TestTraceSimulator:
    def _loop_trace(self, iterations=50, body=32):
        pcs = np.tile(np.arange(body, dtype=np.int64) * 4, iterations)
        return TraceChunk(pcs)

    def test_deterministic(self):
        a = _simulate(self._loop_trace())
        b = _simulate(self._loop_trace())
        assert a.cycles == b.cycles
        assert a.l1i_intervals == b.l1i_intervals

    def test_instruction_count(self):
        result = _simulate(self._loop_trace(iterations=10, body=16))
        assert result.instructions == 160

    def test_fetch_groups_reduce_icache_accesses(self):
        # 32 instructions span 8 fetch groups (16B each) and 2 lines.
        result = _simulate(self._loop_trace(iterations=1, body=32))
        assert result.stats.level("L1I").accesses == 8

    def test_loop_refetches_lines_every_iteration(self):
        result = _simulate(self._loop_trace(iterations=10, body=32))
        # 2 lines x 8 groups per iteration... accesses = 8 per iteration.
        assert result.stats.level("L1I").accesses == 80
        assert result.stats.level("L1I").misses == 2  # compulsory only

    def test_load_misses_stall(self):
        pcs = np.zeros(4, dtype=np.int64)
        addrs = np.array([-1, 0x10000, -1, 0x20000], dtype=np.int64)
        fast = _simulate(
            TraceChunk(pcs, addrs),
            pipeline=PipelineConfig(stall_on_miss=False),
        )
        slow = _simulate(TraceChunk(pcs, addrs))
        assert slow.cycles > fast.cycles

    def test_store_buffer_hides_store_misses(self):
        pcs = np.zeros(2, dtype=np.int64)
        addrs = np.array([-1, 0x10000], dtype=np.int64)
        kinds = np.array([NO_ACCESS, STORE], dtype=np.uint8)
        with_buffer = _simulate(TraceChunk(pcs, addrs, kinds))
        without = _simulate(
            TraceChunk(pcs, addrs, kinds),
            pipeline=PipelineConfig(store_buffer=False),
        )
        assert with_buffer.stall_cycles < without.stall_cycles

    def test_single_use(self):
        simulator = AnnotatingSimulator()
        simulator.run(self._loop_trace())
        with pytest.raises(SimulationError):
            simulator.run(self._loop_trace())

    def test_interval_population_covers_whole_cache(self):
        result = _simulate(self._loop_trace())
        assert (
            result.l1i_intervals.total_cycles
            == 1024 * result.cycles
        )

    def test_annotated_for_selector(self):
        annotated = annotate_workload_trace(self._loop_trace())
        assert annotated.annotated_for("icache") is annotated.l1i
        assert annotated.annotated_for("L1D") is annotated.l1d
        with pytest.raises(SimulationError):
            annotated.annotated_for("l3")

    def test_ipc_bounded_by_width(self):
        result = _simulate(self._loop_trace())
        assert 0 < result.ipc <= 4.0
