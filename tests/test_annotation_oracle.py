"""Chunk-vectorised annotation against its scalar oracle.

The batched kernel annotates each chunk with ``_ChunkAnnotator`` and
``_StrideTable``; the scalar path feeds every access through
``_CacheAnnotator`` and :class:`StridePredictor`.  Their flags must be
bit-identical: on the paper suite (whose load-PC populations overflow the
4096-entry stride table, so LRU eviction is exercised), on crafted LRU
boundary traces, under any chunking, and on random traces.
"""

import numpy as np
import pytest
from conftest import run_recorded
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import LOAD, NO_ACCESS, STORE, TraceChunk
from repro.errors import ConfigurationError
from repro.prefetch.analysis import (
    AnnotatingSimulator,
    _CacheAnnotator,
    _ChunkAnnotator,
    _StrideTable,
)
from repro.prefetch.stride import StridePredictor
from repro.workloads import make_benchmark
from repro.workloads.benchmarks import BENCHMARK_NAMES


def _scalar_hits(capacity, pcs, addrs):
    predictor = StridePredictor(capacity)
    return np.array(
        [predictor.access(pc, address) for pc, address in zip(pcs, addrs)],
        dtype=bool,
    )


def _vector_hits(capacity, pcs, addrs, chunk):
    table = _StrideTable(capacity)
    pcs = np.asarray(pcs, dtype=np.int64)
    addrs = np.asarray(addrs, dtype=np.int64)
    parts = [
        table.hits(pcs[start : start + chunk], addrs[start : start + chunk])
        for start in range(0, len(pcs), chunk)
    ]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


def _strided(pc, start, stride, count):
    return [(pc, start + i * stride) for i in range(count)]


def _assert_same_flags(a, b):
    """Every interval and its flags, in fold order, and the populations."""
    (x, x_raw), (y, y_raw) = a, b
    for cache in ("l1i", "l1d"):
        x_raw[cache].assert_same(y_raw[cache], cache)
        assert x.annotated_for(cache) == y.annotated_for(cache)


def _run(kernel, chunks, capacity):
    """``(result, raw intervals)`` of one run."""
    return run_recorded(
        AnnotatingSimulator(kernel=kernel, stride_table_capacity=capacity),
        chunks,
    )


def _both_paths(chunks, capacity=4096):
    scalar = _run("scalar", chunks, capacity)
    batched = _run("batched", chunks, capacity)
    assert scalar[0].result == batched[0].result
    return scalar, batched


class TestPaperSuite:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_flags_match_scalar_replay(self, name):
        """The full scalar and batched simulations agree flag for flag."""
        chunks = list(make_benchmark(name, scale=0.05).chunks())
        # More static loads than table entries: eviction is on the path.
        load_pcs = set()
        for chunk in chunks:
            load_pcs.update(chunk.pcs[chunk.data_kinds == LOAD].tolist())
        assert len(load_pcs) > 4096
        scalar, batched = _both_paths(chunks)
        _assert_same_flags(scalar, batched)
        assert batched[0].l1d.stride.any()


class TestStrideTableBoundaries:
    CAPACITY = 4

    def _trained(self):
        # Loads 0..3 of PC 1 at stride 8: the fourth is the first hit.
        return _strided(1, 1000, 8, 4)

    def _others(self, count):
        return [(100 + i, 50_000 + 64 * i) for i in range(count)]

    def _check(self, loads, chunk=3):
        pcs = [pc for pc, _ in loads]
        addrs = [address for _, address in loads]
        want = _scalar_hits(self.CAPACITY, pcs, addrs)
        for size in (1, chunk, len(loads)):
            assert np.array_equal(
                _vector_hits(self.CAPACITY, pcs, addrs, size), want
            )
        return want

    def test_reuse_after_capacity_minus_one_others_hits(self):
        loads = self._trained() + self._others(self.CAPACITY - 1) + [(1, 1032)]
        hits = self._check(loads)
        assert hits[3] and hits[-1]

    def test_reuse_after_capacity_others_is_evicted(self):
        loads = self._trained() + self._others(self.CAPACITY) + [(1, 1032)]
        assert not self._check(loads)[-1]

    def test_repeated_others_count_once(self):
        others = self._others(self.CAPACITY - 1) * 5
        loads = self._trained() + others + [(1, 1032)]
        assert self._check(loads)[-1]

    def test_evicted_pc_is_relearned_from_scratch(self):
        relearn = _strided(1, 5000, 16, 5)
        loads = self._trained() + self._others(self.CAPACITY) + relearn
        hits = self._check(loads)
        # Created, stride once, twice: hits resume on the fourth load.
        assert list(hits[-5:]) == [False, False, False, True, True]

    def test_zero_stride_runs(self):
        loads = _strided(7, 4096, 0, 6) + _strided(7, 4104, 8, 4)
        hits = self._check(loads)
        assert list(hits) == [False, False, False, True, True, True] + [
            False, False, True, True
        ]

    def test_unbounded_table_never_evicts(self):
        loads = self._trained() + self._others(50) + [(1, 1032)]
        pcs = [pc for pc, _ in loads]
        addrs = [address for _, address in loads]
        want = _scalar_hits(None, pcs, addrs)
        assert want[-1]
        for size in (1, 7, len(loads)):
            assert np.array_equal(_vector_hits(None, pcs, addrs, size), want)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AnnotatingSimulator(stride_table_capacity=0)


def _crafted_trace():
    """Strided loads of a few PCs, stores on the same PCs, fillers."""
    rng = np.random.default_rng(7)
    pcs, addrs, kinds = [], [], []
    cursor = {pc: 0x4000_0000 + pc * 0x10_0000 for pc in range(8)}
    for step in range(3000):
        pc = int(rng.integers(0, 8))
        pcs.append(0x1000 + 4 * pc)
        if step % 3 == 2:
            # A store at a wild address: it must neither train nor
            # refresh the stride table.
            addrs.append(int(rng.integers(0, 1 << 20)) * 64)
            kinds.append(STORE)
        elif step % 7 == 0:
            addrs.append(-1)
            kinds.append(NO_ACCESS)
        else:
            cursor[pc] += 128  # two blocks: next-line never covers it
            addrs.append(cursor[pc])
            kinds.append(LOAD)
    return TraceChunk(pcs, addrs, kinds)


def _split(chunk, size):
    return [
        TraceChunk(
            chunk.pcs[start : start + size],
            chunk.data_addresses[start : start + size],
            chunk.data_kinds[start : start + size],
        )
        for start in range(0, len(chunk), size)
    ]


class TestCraftedTraces:
    @pytest.mark.parametrize("capacity", [2, 3, 8, None])
    def test_stores_interleaved_small_tables(self, capacity):
        scalar, batched = _both_paths(_split(_crafted_trace(), 500), capacity)
        _assert_same_flags(scalar, batched)
        if capacity is None or capacity >= 8:
            assert batched[0].l1d.stride.any()

    def test_rechunking_invariance(self):
        parts = list(make_benchmark("gzip", scale=0.02).chunks())
        whole = TraceChunk(
            np.concatenate([part.pcs for part in parts]),
            np.concatenate([part.data_addresses for part in parts]),
            np.concatenate([part.data_kinds for part in parts]),
        )
        runs = [
            _run("batched", _split(whole, size), 64)
            for size in (997, 7919, len(whole))
        ]
        for other in runs[1:]:
            _assert_same_flags(runs[0], other)
        _assert_same_flags(_run("scalar", [whole], 64), runs[0])


def _gaps(frames, times):
    """Per event, the time since the previous touch of its frame (since 0
    for a cold frame)."""
    last = {}
    gaps = []
    for frame, when in zip(frames.tolist(), times.tolist()):
        gaps.append(when - last.get(frame, 0))
        last[frame] = when
    return np.array(gaps, dtype=np.int64)


@st.composite
def _event_streams(draw):
    n = draw(st.integers(1, 120))
    blocks = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    frames = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    loads = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pcs = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    addrs = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    cuts = draw(st.lists(st.integers(1, n), max_size=4))
    capacity = draw(st.one_of(st.none(), st.integers(1, 5)))
    floor = draw(st.integers(0, 6))
    return (
        np.array(blocks, dtype=np.int64),
        np.array(frames, dtype=np.int64),
        np.cumsum(steps).astype(np.int64),
        ~np.array(loads, dtype=bool),
        np.array(pcs, dtype=np.int64),
        np.array(addrs, dtype=np.int64) * 8,
        sorted(set(cuts) | {0, n}),
        capacity,
        floor,
    )


class TestRandomStreams:
    @settings(max_examples=200, deadline=None)
    @given(_event_streams())
    def test_random_event_streams_match_scalar(self, stream):
        blocks, frames, times, stores, pcs, addrs, cuts, capacity, floor = stream
        ref = _CacheAnnotator(6, floor)
        predictor = StridePredictor(capacity)
        for block, frame, when, pc, address, store in zip(
            blocks.tolist(), frames.tolist(), times.tolist(),
            pcs.tolist(), addrs.tolist(), stores.tolist(),
        ):
            stride_hit = False if store else predictor.access(pc, address)
            ref.observe(block, frame, when, False, stride_hit)
        vec = _ChunkAnnotator(floor)
        table = _StrideTable(capacity)
        gaps = _gaps(frames, times)
        nextline, stride = [], []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            loads = ~stores[lo:hi]
            hits = np.zeros(hi - lo, dtype=bool)
            hits[loads] = table.hits(pcs[lo:hi][loads], addrs[lo:hi][loads])
            chunk_nextline, chunk_stride = vec.flags(
                blocks[lo:hi], times[lo:hi], gaps[lo:hi], hits
            )
            nextline.append(chunk_nextline)
            stride.append(chunk_stride)
        assert np.array_equal(
            np.concatenate(nextline), np.array(ref._nextline, dtype=bool)
        )
        assert np.array_equal(
            np.concatenate(stride), np.array(ref._stride, dtype=bool)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 2), st.integers(0, 30)),
            min_size=1,
            max_size=150,
        ),
        st.integers(1, 60),
        st.one_of(st.none(), st.integers(1, 4)),
    )
    def test_random_traces_match_scalar_simulation(self, rows, chunk, capacity):
        pcs = [0x2000 + 4 * pc for pc, _, _ in rows]
        kinds = [kind for _, kind, _ in rows]
        addrs = [
            -1 if kind == NO_ACCESS else 0x8000 + 32 * slot
            for _, kind, slot in rows
        ]
        trace = TraceChunk(pcs, addrs, kinds)
        scalar, batched = _both_paths(_split(trace, chunk), capacity)
        _assert_same_flags(scalar, batched)
