"""Tests for repro.cpu — traces, pipeline timing, trace-driven simulation."""

import numpy as np
import pytest

from repro.cpu.pipeline import IssueClock, PipelineConfig
from repro.cpu.trace import (
    LOAD,
    NO_ACCESS,
    STORE,
    TraceChunk,
    merge_chunks,
)
from repro.errors import ConfigurationError, SimulationError, TraceError
from repro.prefetch.analysis import AnnotatingSimulator, annotate_workload_trace
from repro.traces import TraceRecording, convert_gem5_text, record_chunks


def _simulate(trace, **kwargs):
    """The simulation result of one trace (annotations dropped)."""
    return annotate_workload_trace(trace, **kwargs).result


class TestAccess:
    """Each instruction row of a chunk: a PC and at most one data access."""

    def test_store_requires_address(self):
        with pytest.raises(TraceError):
            TraceChunk([0], data_addresses=[-1], data_kinds=[STORE])

    def test_negative_fields_rejected(self):
        with pytest.raises(TraceError):
            TraceChunk([-4])
        with pytest.raises(TraceError):
            TraceChunk([0], data_addresses=[-8], data_kinds=[LOAD])


class TestTraceChunk:
    def test_kind_address_consistency_enforced(self):
        with pytest.raises(TraceError):
            TraceChunk([0], data_addresses=[-1], data_kinds=[LOAD])
        with pytest.raises(TraceError):
            TraceChunk([0], data_addresses=[100], data_kinds=[NO_ACCESS])

    def test_kind_address_mismatch_names_its_direction(self):
        with pytest.raises(TraceError, match="load/store row must carry"):
            TraceChunk([0, 4], data_addresses=[-1, -1], data_kinds=[LOAD, 0])
        with pytest.raises(TraceError, match="no-access row cannot carry"):
            TraceChunk([0, 4], data_addresses=[-1, 64], data_kinds=[0, 0])
        # Both ways at once: the access without an address is reported.
        with pytest.raises(TraceError, match="load/store row must carry"):
            TraceChunk([0, 4], data_addresses=[64, -1], data_kinds=[0, STORE])

    def test_default_kinds_inferred_from_addresses(self):
        chunk = TraceChunk([0, 4], data_addresses=[-1, 64])
        assert list(chunk.data_kinds) == [NO_ACCESS, LOAD]

    def test_slice_and_concat(self):
        chunk = TraceChunk([0, 4, 8, 12])
        merged = merge_chunks([chunk.slice(0, 2), chunk.slice(2, 4)])
        assert np.array_equal(merged.pcs, chunk.pcs)

    def test_merge_chunks(self):
        merged = merge_chunks([TraceChunk([0]), TraceChunk([4])])
        assert list(merged.pcs) == [0, 4]
        assert len(merge_chunks([])) == 0


def _exec_lines(chunk):
    """gem5 Exec-flag text lines for a chunk, one instruction per line."""
    lines = []
    rows = zip(
        chunk.pcs.tolist(), chunk.data_addresses.tolist(), chunk.data_kinds.tolist()
    )
    for tick, (pc, address, kind) in enumerate(rows):
        line = f"{tick * 500}: system.cpu T0 : {pc:#x} : op : "
        if kind == NO_ACCESS:
            line += "IntAlu :"
        else:
            op = "MemWrite" if kind == STORE else "MemRead"
            line += f"{op} : D=0x0 A={address:#x}"
        lines.append(line + "\n")
    return "".join(lines)


class TestTraceIO:
    """The one on-disk trace format (``.rtr``) and its text import."""

    def test_npz_roundtrip(self, tmp_path):
        # The native format is .rtr: a chunk reads back column for column.
        chunk = TraceChunk([0, 4], data_addresses=[-1, 64])
        path = tmp_path / "trace.rtr"
        record_chunks([chunk], path)
        loaded = merge_chunks(TraceRecording(path).chunks())
        assert np.array_equal(loaded.pcs, chunk.pcs)
        assert np.array_equal(loaded.data_addresses, chunk.data_addresses)
        assert np.array_equal(loaded.data_kinds, chunk.data_kinds)

    def test_text_roundtrip(self, tmp_path):
        chunk = TraceChunk(
            [0, 4, 8],
            data_addresses=[-1, 64, 128],
            data_kinds=[NO_ACCESS, LOAD, STORE],
        )
        text = tmp_path / "trace.txt"
        text.write_text(_exec_lines(chunk))
        report = convert_gem5_text(text, tmp_path / "trace.rtr")
        assert (report.instructions, report.loads, report.stores) == (3, 1, 1)
        loaded = merge_chunks(TraceRecording(tmp_path / "trace.rtr").chunks())
        assert np.array_equal(loaded.pcs, chunk.pcs)
        assert np.array_equal(loaded.data_addresses, chunk.data_addresses)
        assert np.array_equal(loaded.data_kinds, chunk.data_kinds)

    def test_text_comments_and_blank_lines_skipped(self, tmp_path):
        text = tmp_path / "trace.txt"
        chunk = TraceChunk([16, 20], data_addresses=[-1, 64])
        text.write_text("# header\n\n" + _exec_lines(chunk))
        report = convert_gem5_text(text, tmp_path / "trace.rtr")
        assert (report.instructions, report.skipped_lines) == (2, 2)

    def test_malformed_text_line_reports_location(self, tmp_path):
        # Malformed lines are skipped; a file of nothing else names itself.
        text = tmp_path / "trace.txt"
        text.write_text("16\nnot-a-pc\n")
        with pytest.raises(TraceError, match="trace.txt.*2 lines skipped"):
            convert_gem5_text(text, tmp_path / "trace.rtr")

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            TraceRecording(tmp_path / "missing.rtr").chunks()
        with pytest.raises(TraceError):
            convert_gem5_text(tmp_path / "missing.txt", tmp_path / "out.rtr")


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
            PipelineConfig(base_cpi=0.1)

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
