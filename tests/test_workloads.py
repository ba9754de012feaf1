"""Tests for repro.workloads — patterns, the program model, benchmarks."""

import numpy as np
import pytest

from repro.cpu.trace import LOAD, NO_ACCESS, TraceChunk
from repro.errors import ConfigurationError
from repro.workloads.benchmarks import (
    BENCHMARK_NAMES,
    PoolAllocator,
    make_benchmark,
    paper_suite,
)
from repro.workloads.patterns import (
    PointerChase,
    RotatingPattern,
    SequentialStream,
    StridedSweep,
    ZipfReuse,
)
from repro.workloads.program import Phase, Visit, Workload


class TestPatterns:
    def test_sequential_stream_advances(self):
        stream = SequentialStream(base=1000, element_bytes=8)
        first = stream.addresses(4)
        second = stream.addresses(2)
        assert list(first) == [1000, 1008, 1016, 1024]
        assert list(second) == [1032, 1040]

    def test_sequential_stream_wraps(self):
        stream = SequentialStream(base=0, element_bytes=8, buffer_bytes=16)
        assert list(stream.addresses(4)) == [0, 8, 0, 8]

    def test_strided_sweep_repeats(self):
        sweep = StridedSweep(base=0, n_elements=3, stride_bytes=10)
        assert list(sweep.addresses(7)) == [0, 10, 20, 0, 10, 20, 0]

    def test_zipf_reuse_is_skewed_and_bounded(self):
        pool = ZipfReuse(base=0, n_lines=64, alpha=1.2, seed=1)
        addresses = pool.addresses(5000)
        lines = addresses // 64
        assert lines.min() >= 0 and lines.max() < 64
        counts = np.bincount(lines, minlength=64)
        assert counts.max() > 5 * np.median(counts[counts > 0])

    def test_pointer_chase_visits_every_node_per_lap(self):
        chase = PointerChase(base=0, n_nodes=16, node_bytes=64, seed=3)
        lap = chase.addresses(16)
        assert sorted(lap // 64) == list(range(16))
        assert list(chase.addresses(16)) == list(lap)  # identical next lap

    def test_rotation_advances_per_request(self):
        a = SequentialStream(0, 8)
        b = SequentialStream(10_000, 8)
        rotation = RotatingPattern([a, b])
        assert rotation.addresses(1)[0] == 0
        assert rotation.addresses(1)[0] == 10_000
        assert rotation.addresses(1)[0] == 8

    def test_mixture_respects_weights(self):
        # A phase binds each memory position to one weighted component.
        a = SequentialStream(0, 8)
        b = SequentialStream(1 << 30, 8)
        phase = Phase(
            "mix", 0, 1000, load_fraction=1.0, pattern=[(a, 0.9), (b, 0.1)],
            block_instructions=0, seed=5,
        )
        addresses = phase.emit(10_000).data_addresses
        share_b = float(np.mean(addresses >= (1 << 30)))
        assert 0.07 < share_b < 0.13

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SequentialStream(base=-1)
        with pytest.raises(ConfigurationError):
            StridedSweep(0, n_elements=0)
        with pytest.raises(ConfigurationError):
            ZipfReuse(0, n_lines=10, alpha=0)
        with pytest.raises(ConfigurationError):
            RotatingPattern([])
        with pytest.raises(ConfigurationError):
            Phase("p", 0, 8, load_fraction=0.5, pattern=[(SequentialStream(0), -1.0)])


class TestPhase:
    def test_pcs_walk_the_region(self):
        phase = Phase("p", code_base=0x1000, body_instructions=8, block_instructions=0)
        chunk = phase.emit(8)
        assert sorted(chunk.pcs) == [0x1000 + 4 * i for i in range(8)]

    def test_straight_line_without_blocks(self):
        phase = Phase("p", 0, body_instructions=8, block_instructions=0)
        assert list(phase.emit(8).pcs) == [4 * i for i in range(8)]

    def test_block_shuffle_is_fixed_permutation(self):
        phase = Phase("p", 0, body_instructions=128, block_instructions=16, seed=3)
        first = phase.emit(128).pcs
        second = phase.emit(128).pcs
        assert np.array_equal(first, second)  # same order each iteration
        assert sorted(first) == [4 * i for i in range(128)]

    def test_emit_resumes_mid_body(self):
        phase = Phase("p", 0, body_instructions=10, block_instructions=0)
        phase.emit(6)  # consume the first six instructions mid-body
        second = phase.emit(6).pcs
        assert list(second[:4]) == [24, 28, 32, 36]
        assert list(second[4:]) == [0, 4]

    def test_static_memory_layout(self):
        sweep = StridedSweep(0, n_elements=1 << 20, stride_bytes=8)
        phase = Phase("p", 0, 64, load_fraction=0.5, pattern=sweep, seed=9)
        a = phase.emit(64)
        b = phase.emit(64)
        # The same body positions are loads in every iteration.
        assert np.array_equal(a.data_kinds, b.data_kinds)
        assert 10 < int(np.sum(a.data_kinds == LOAD)) < 54

    def test_per_pc_stride_is_constant(self):
        # The key property for the paper's stride prefetcher: a PC bound
        # to a strided structure sees a constant address stride.
        sweep = StridedSweep(0, n_elements=1 << 20, stride_bytes=8)
        phase = Phase("p", 0, 50, load_fraction=0.4, pattern=sweep, seed=2)
        chunks = [phase.emit(50) for _ in range(4)]
        by_pc = {}
        for chunk in chunks:
            for pc, addr, kind in zip(chunk.pcs, chunk.data_addresses, chunk.data_kinds):
                if kind == LOAD:
                    by_pc.setdefault(int(pc), []).append(int(addr))
        for pc, addrs in by_pc.items():
            strides = {b - a for a, b in zip(addrs, addrs[1:])}
            assert len(strides) <= 1, f"pc {pc:#x} has varying stride"

    def test_component_weights_split_positions(self):
        a = SequentialStream(0, 8)
        b = SequentialStream(1 << 30, 8)
        phase = Phase(
            "p", 0, 2000, load_fraction=0.5, pattern=[(a, 0.8), (b, 0.2)], seed=4
        )
        chunk = phase.emit(2000)
        loads = chunk.data_addresses[chunk.data_kinds == LOAD]
        share_b = float(np.mean(loads >= (1 << 30)))
        assert 0.1 < share_b < 0.3

    def test_memory_without_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            Phase("p", 0, 10, load_fraction=0.5)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            Phase("p", 0, 10, load_fraction=0.8, store_fraction=0.4,
                  pattern=SequentialStream(0))


def _gathered(phase, offset, n):
    """``(chunk, next offset)`` of one visit by the gather formula: the
    visit runs slots ``(offset + arange(n)) % body`` of one iteration in
    execution order, and each component's positions draw their addresses
    in order."""
    body = phase.body_instructions
    component_of = np.full(body, -1)
    for index, slots in enumerate(phase._component_slots):
        component_of[slots] = index
    slots = (offset + np.arange(n)) % body
    components = component_of[slots]
    addresses = np.full(n, -1, dtype=np.int64)
    for index, (pattern, _) in enumerate(phase.components):
        mask = components == index
        if mask.any():
            addresses[mask] = pattern.addresses(int(mask.sum()))
    chunk = TraceChunk(phase._pcs[slots], addresses, phase._kinds[slots])
    return chunk, (offset + n) % body


def _assert_same_chunk(emitted, gathered):
    assert np.array_equal(emitted.pcs, gathered.pcs)
    assert np.array_equal(emitted.data_addresses, gathered.data_addresses)
    assert np.array_equal(emitted.data_kinds, gathered.data_kinds)


class TestEmissionOracle:
    """``Phase.emit`` slices what the gather formula indexes."""

    def _phase(self):
        a = SequentialStream(0, 8)
        b = ZipfReuse(1 << 30, n_lines=32, seed=5)
        return Phase(
            "p", 0x4000, 300, load_fraction=0.3, store_fraction=0.1,
            pattern=[(a, 0.6), (b, 0.4)], block_instructions=16, seed=8,
        )

    @pytest.mark.parametrize(
        "visits",
        [
            [100, 100, 100],  # one body split three ways
            [250, 120],  # the second visit wraps the body
            [1050, 7, 600],  # several bodies, from mid-body
            [299, 1, 1, 301],  # the last slot, the first, then a body + 1
        ],
    )
    def test_visits_match_the_gather_formula(self, visits):
        emitting, gathering = self._phase(), self._phase()
        offset = 0
        for n in visits:
            gathered, offset = _gathered(gathering, offset, n)
            _assert_same_chunk(emitting.emit(n), gathered)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_paper_benchmarks_match_the_gather_formula(self, name):
        emitting = make_benchmark(name, scale=0.02)
        gathering = make_benchmark(name, scale=0.02)
        offsets = [0] * len(gathering.phases)
        emitted = emitting.chunks()
        for _ in range(gathering.rounds):
            for visit in gathering.schedule:
                index = visit.phase_index
                gathered, offsets[index] = _gathered(
                    gathering.phases[index], offsets[index], visit.instructions
                )
                _assert_same_chunk(next(emitted), gathered)
        assert next(emitted, None) is None


class TestWorkload:
    def _workload(self, rounds=2):
        phases = [
            Phase("a", 0x0, 16, block_instructions=0),
            Phase("b", 0x100, 16, block_instructions=0),
        ]
        schedule = [Visit(0, 32), Visit(1, 16)]
        return Workload("w", phases, schedule, rounds=rounds)

    def test_total_instructions(self):
        assert self._workload(rounds=3).total_instructions == 3 * 48

    def test_chunks_follow_schedule(self):
        chunks = list(self._workload(rounds=1).chunks())
        assert [len(c) for c in chunks] == [32, 16]
        assert chunks[1].pcs[0] >= 0x100

    def test_schedule_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            Workload("w", [Phase("a", 0, 16)], [Visit(5, 10)])

    def test_describe_lists_phases(self):
        text = self._workload().describe()
        assert "workload w" in text and "[1] b" in text


class TestBenchmarks:
    def test_all_six_build(self):
        suite = paper_suite(scale=1.0)
        assert sorted(suite) == sorted(BENCHMARK_NAMES)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            make_benchmark("spec2017")

    def test_scale_changes_length(self):
        small = make_benchmark("gzip", scale=0.5).total_instructions
        full = make_benchmark("gzip", scale=1.0).total_instructions
        assert small < full

    def test_deterministic_traces(self):
        a = list(make_benchmark("ammp", scale=0.1).chunks())
        b = list(make_benchmark("ammp", scale=0.1).chunks())
        assert all(np.array_equal(x.pcs, y.pcs) for x, y in zip(a, b))
        assert all(
            np.array_equal(x.data_addresses, y.data_addresses)
            for x, y in zip(a, b)
        )

    def test_pool_allocator_spreads_l1_offsets(self):
        alloc = PoolAllocator()
        offsets = {(alloc.base() >> 6) % 1024 for _ in range(16)}
        assert len(offsets) == 16

    def test_pool_allocator_honors_requested_offset(self):
        alloc = PoolAllocator()
        base = alloc.base(l1_line_offset=300)
        assert (base >> 6) % 1024 == 300

    def test_code_footprints_near_cache_size(self):
        # The I-cache working sets were calibrated around the 64 KB cache.
        for name in BENCHMARK_NAMES:
            footprint = make_benchmark(name).code_footprint_bytes
            assert 40 * 1024 <= footprint <= 160 * 1024, name

    def test_memory_fractions_realistic(self):
        for name in BENCHMARK_NAMES:
            workload = make_benchmark(name, scale=0.05)
            chunk = next(iter(workload.chunks()))
            mem = float(np.mean(chunk.data_kinds != NO_ACCESS))
            assert 0.15 < mem < 0.55, name
