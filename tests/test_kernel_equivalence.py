"""Kernel/scalar equivalence: the batched path must be bit-identical.

The batched kernel (``repro.cache.kernel``) exists purely for speed; its
contract is that every observable quantity — cache statistics, eviction
counts, timing, interval populations, and every interval's length, kind
and annotation flags in the order the two paths fold them — matches the
scalar per-access path exactly.  These tests drive random streams and
real workloads through both paths and compare everything.
"""

import numpy as np
import pytest
from conftest import run_recorded
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import native
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.kernel import kernel_supported, stable_order
from repro.cpu.pipeline import PipelineConfig
from repro.cpu.trace import LOAD, NO_ACCESS, STORE, TraceChunk
from repro.errors import ConfigurationError, SimulationError
from repro.prefetch.analysis import AnnotatingSimulator
from repro.workloads import make_benchmark

POLICIES = ("lru", "fifo", "random")
ASSOCIATIVITIES = (1, 2, 4)


def _small_hierarchy(associativity: int, policy: str) -> MemoryHierarchy:
    """4 KB L1s over an 8 KB direct-mapped L2 and a 37-cycle memory."""
    return MemoryHierarchy(
        HierarchyConfig(
            CacheConfig("l1i", 4096, 64, associativity, 1),
            CacheConfig("l1d", 4096, 64, associativity, 3),
            CacheConfig("l2", 8192, 64, 1, 9),
            memory_latency=37,
        ),
        replacement=policy,
    )


def _random_chunks(rng, n_chunks: int = 4, chunk_len: int = 3200):
    """Random trace chunks with reuse, conflict pressure and fetch runs.

    Code jumps between sequential runs over 16 KB and loads/stores draw
    from 160 data blocks with injected repeats, so the 4 KB L1s see
    hits, conflict misses and fast-path runs that span chunk borders.
    """
    chunks = []
    for _ in range(n_chunks):
        starts = rng.integers(0, 4096, size=chunk_len // 16) * 4
        pcs = (starts[:, None] + np.arange(16) * 4).reshape(-1)
        blocks = rng.integers(0, 160, size=chunk_len)
        for start in rng.integers(0, chunk_len, size=chunk_len // 8):
            blocks[start:start + int(rng.integers(2, 6))] = blocks[start]
        kinds = rng.choice(
            [NO_ACCESS, LOAD, STORE], size=chunk_len, p=[0.5, 0.35, 0.15]
        )
        offsets = rng.integers(0, 64, size=chunk_len)
        addrs = np.where(kinds != NO_ACCESS, blocks * 64 + offsets, -1)
        chunks.append(TraceChunk(pcs, addrs, kinds))
    return chunks


def _run_small(chunks, policy, associativity, kernel):
    """``(result, raw intervals)`` of one run of ``chunks`` on the small
    hierarchy under ``kernel``."""
    return run_recorded(
        AnnotatingSimulator(_small_hierarchy(associativity, policy), kernel=kernel),
        chunks,
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
class TestBatchedCacheKernel:
    """scalar / python-batched on small non-paper hierarchies."""

    def test_matches_scalar_access_path(self, rng, policy, associativity):
        chunks = _random_chunks(rng)
        scalar = _run_small(chunks, policy, associativity, "scalar")
        batched = _run_small(chunks, policy, associativity, "batched")
        _assert_bit_identical(scalar, batched)
        scalar, batched = scalar[0], batched[0]
        for level in ("l1i", "l1d", "l2"):
            assert (
                batched.result.stats.level(level).evictions
                == scalar.result.stats.level(level).evictions
            ), level
        assert batched.result.profile.residual_impl == "python"

    def test_fast_path_engages(self, rng, policy, associativity):
        batched, _ = _run_small(
            _random_chunks(rng), policy, associativity, "batched"
        )
        profile, stats = batched.result.profile, batched.result.stats
        assert profile.mode == "batched"
        assert profile.fast_path_accesses > 0
        assert profile.slow_path_accesses > 0
        assert profile.total_accesses == (
            stats.level("l1i").accesses + stats.level("l1d").accesses
        )


class TestBatchedCacheKernelGuards:
    def test_rejects_used_cache(self):
        hierarchy = _small_hierarchy(2, "lru")
        hierarchy.l1d.access_block(1, 0)
        with pytest.raises(SimulationError):
            AnnotatingSimulator(hierarchy, kernel="batched").run(
                TraceChunk(np.arange(64, dtype=np.int64) * 4)
            )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
class TestCompiledResidualKernel:
    """scalar / compiled on small non-paper hierarchies.

    When no C compiler is available the ``compiled`` request silently
    degrades to the pure-python residual loop, so this matrix passes —
    with identical numbers — on compiler-less hosts too.
    """

    def test_matches_scalar_access_path(self, rng, policy, associativity):
        chunks = _random_chunks(rng)
        scalar = _run_small(chunks, policy, associativity, "scalar")
        compiled = _run_small(chunks, policy, associativity, "compiled")
        _assert_bit_identical(scalar, compiled)
        expected = "compiled" if native.native_available() else "python"
        assert compiled[0].result.profile.residual_impl == expected


def _simulate(kernel, policy="lru", pipeline=None, benchmark="gzip"):
    """``(result, raw intervals)`` of one paper-hierarchy run."""
    return run_recorded(
        AnnotatingSimulator(
            MemoryHierarchy(HierarchyConfig.paper(), replacement=policy),
            pipeline,
            kernel=kernel,
        ),
        make_benchmark(benchmark, scale=0.02).chunks(),
    )


def _assert_bit_identical(a, b):
    """Timing, statistics, populations, and every interval's length, kind
    and flags, in fold order, agree."""
    (x, x_raw), (y, y_raw) = a, b
    # Cycles, statistics and both interval populations; the profile is
    # excluded from equality.
    assert x.result == y.result
    for cache in ("l1i", "l1d"):
        assert x.annotated_for(cache) == y.annotated_for(cache)
        x_raw[cache].assert_same(y_raw[cache], cache)


#: The paper pipeline under every policy, plus the non-default pipelines
#: (no miss stalls; blocking stores without load overlap; the slower core
#: of the sweep tests) under LRU.
_MATRIX = [pytest.param(policy, None, id=policy) for policy in POLICIES] + [
    pytest.param("lru", PipelineConfig(stall_on_miss=False), id="lru-no-stall"),
    pytest.param(
        "lru", PipelineConfig(store_buffer=False, load_mlp=1), id="lru-blocking"
    ),
    pytest.param("lru", PipelineConfig(base_cpi=0.8), id="lru-cpi0.8"),
]


def test_slower_core_simulates_more_cycles():
    default, _ = _simulate("batched")
    slower, _ = _simulate("batched", pipeline=PipelineConfig(base_cpi=0.8))
    assert slower.result.cycles > default.result.cycles


@pytest.mark.parametrize("policy", POLICIES)
class TestSimulatorEquivalence:
    def test_batched_run_is_bit_identical(self, policy):
        (scalar, _), (batched, _) = (
            _simulate("scalar", policy), _simulate("batched", policy)
        )
        assert scalar.result == batched.result  # profile is excluded from equality
        assert scalar.result.l1i_intervals == batched.result.l1i_intervals
        assert scalar.result.l1d_intervals == batched.result.l1d_intervals
        assert batched.result.profile.mode == "batched"
        assert batched.result.profile.fast_path_share > 0.5
        assert scalar.result.profile.mode == "scalar"


class TestResidualImplMatrix:
    """scalar / python-batched / compiled full-simulation equivalence."""

    @pytest.mark.parametrize("policy, pipeline", _MATRIX)
    def test_three_way_bit_identical(self, policy, pipeline):
        runs = scalar, batched, compiled = [
            _simulate(kernel, policy, pipeline)
            for kernel in ("scalar", "batched", "compiled")
        ]
        _assert_bit_identical(scalar, batched)
        _assert_bit_identical(scalar, compiled)
        scalar, batched, compiled = (run for run, _ in runs)
        assert batched.l1d.stride.any()
        # The profile reports which path and residual loop actually ran.
        assert scalar.result.profile.mode == "scalar"
        assert scalar.result.profile.residual_impl == "scalar"
        assert batched.result.profile.mode == "batched"
        assert batched.result.profile.residual_impl == "python"
        assert batched.result.profile.fast_path_share > 0.5
        assert compiled.result.profile.mode == "batched"
        expected = "compiled" if native.native_available() else "python"
        assert compiled.result.profile.residual_impl == expected


class TestAnnotationEquivalence:
    def test_flags_identical_across_paths(self):
        _assert_bit_identical(
            _simulate("scalar", benchmark="gcc"),
            _simulate("batched", benchmark="gcc"),
        )


class TestKernelSupport:
    def test_paper_hierarchy_supported(self):
        assert kernel_supported(MemoryHierarchy(HierarchyConfig.paper()))

    def test_used_hierarchy_not_supported(self):
        hierarchy = MemoryHierarchy(HierarchyConfig.paper())
        hierarchy.l1i.access_block(0, 0)
        assert not kernel_supported(hierarchy)

    def test_selection_rule_on_an_unsupported_hierarchy(self):
        def used():
            hierarchy = MemoryHierarchy(HierarchyConfig.paper())
            hierarchy.l1i.access_block(0, 0)
            return hierarchy

        trace = TraceChunk(np.arange(64, dtype=np.int64) * 4)
        # No explicit mode: fall back on the scalar oracle.
        fallback = AnnotatingSimulator(used()).run(trace)
        assert fallback.result.profile.mode == "scalar"
        # An explicit batched mode raises instead.
        for kernel in ("batched", "compiled", "auto"):
            with pytest.raises(SimulationError):
                AnnotatingSimulator(used(), kernel=kernel).run(trace)

    def test_kernel_takes_mode_strings_only(self):
        with pytest.raises(ConfigurationError):
            AnnotatingSimulator(kernel=True).run(
                TraceChunk(np.zeros(4, dtype=np.int64))
            )


def _assert_stable_order(keys):
    keys = np.asarray(keys, dtype=np.int64)
    assert np.array_equal(stable_order(keys), np.argsort(keys, kind="stable"))


class TestStableOrder:
    """The packed sort is the stable argsort, duplicates and all."""

    def test_empty_and_single_key(self):
        _assert_stable_order([])
        _assert_stable_order([-7])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-(2**63), 2**63 - 1), st.integers(2, 300))
    def test_all_equal_keys(self, key, count):
        _assert_stable_order([key] * count)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-5, 5), max_size=400))
    def test_heavy_duplicates_and_negative_keys(self, keys):
        _assert_stable_order(keys)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60))
    def test_any_int64_keys(self, keys):
        _assert_stable_order(keys)

    def test_span_too_wide_to_pack_falls_back(self, monkeypatch):
        keys = np.array([2**62, -(2**62), 5, 2**62, -(2**62)], dtype=np.int64)
        want = np.argsort(keys, kind="stable")
        calls = []
        argsort = np.argsort

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        got = stable_order(keys)
        monkeypatch.undo()
        assert calls == [{"kind": "stable"}]
        assert np.array_equal(got, want)
