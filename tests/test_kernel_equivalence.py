"""Kernel/scalar equivalence: the batched path must be bit-identical.

The batched kernel (``repro.cache.kernel``) exists purely for speed; its
contract is that every observable quantity — cache statistics, eviction
counts, interval populations (lengths *and* kinds, in order), timing,
annotation flags — matches the scalar per-access path exactly.  These
tests drive random streams and real workloads through both paths and
compare everything.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.cache.kernel import BatchedCacheKernel, kernel_supported, stable_order
from repro.cpu.pipeline import PipelineConfig
from repro.cpu.trace import TraceChunk
from repro.errors import ConfigurationError, SimulationError
from repro.prefetch.analysis import AnnotatingSimulator
from repro.workloads import make_benchmark

POLICIES = ("lru", "fifo", "random")
ASSOCIATIVITIES = (1, 2, 4)


def _small_config(associativity: int) -> CacheConfig:
    return CacheConfig(
        name="test",
        size_bytes=4096,
        line_bytes=64,
        associativity=associativity,
        hit_latency=1,
    )


def _random_stream(rng, n_accesses: int, n_blocks: int):
    """A blocks/times pair with reuse, conflict pressure and time gaps."""
    blocks = rng.integers(0, n_blocks, size=n_accesses).astype(np.int64)
    # Inject runs of repeated blocks so the fast path actually engages.
    run_starts = rng.integers(0, n_accesses, size=n_accesses // 4)
    for start in run_starts:
        end = min(start + int(rng.integers(2, 6)), n_accesses)
        blocks[start:end] = blocks[start]
    times = np.cumsum(rng.integers(0, 9, size=n_accesses)).astype(np.int64)
    return blocks, times


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
class TestBatchedCacheKernel:
    def test_matches_scalar_access_path(self, rng, policy, associativity):
        blocks, times = _random_stream(rng, 4000, 96)
        end_time = int(times[-1]) + 1

        scalar = SetAssociativeCache(_small_config(associativity), policy)
        scalar_hits = np.array(
            [scalar.access_block(int(b), int(t)) for b, t in zip(blocks, times)]
        )
        scalar.finish(end_time)

        batched_cache = SetAssociativeCache(_small_config(associativity), policy)
        kernel = BatchedCacheKernel(batched_cache)
        # Feed in several chunks to exercise the cross-chunk carries.
        hits = []
        for lo in range(0, len(blocks), 1024):
            hits.append(kernel.access_blocks(blocks[lo:lo + 1024], times[lo:lo + 1024]))
        kernel.finish(end_time)
        batched_hits = np.concatenate(hits)

        assert np.array_equal(scalar_hits, batched_hits)
        assert batched_cache.stats == scalar.stats
        assert batched_cache.stats.evictions == scalar.stats.evictions
        assert batched_cache.intervals() == scalar.intervals()

    def test_fast_path_engages(self, rng, policy, associativity):
        blocks, times = _random_stream(rng, 4000, 96)
        cache = SetAssociativeCache(_small_config(associativity), policy)
        kernel = BatchedCacheKernel(cache)
        kernel.access_blocks(blocks, times)
        fast, slow = kernel.profile_counts
        assert fast > 0
        assert fast + slow == len(blocks)


class TestBatchedCacheKernelGuards:
    def test_rejects_used_cache(self):
        cache = SetAssociativeCache(_small_config(2), "lru")
        cache.access_block(1, 0)
        with pytest.raises(SimulationError):
            BatchedCacheKernel(cache)

    def test_rejects_time_travel(self):
        cache = SetAssociativeCache(_small_config(2), "lru")
        kernel = BatchedCacheKernel(cache)
        with pytest.raises(SimulationError):
            kernel.access_blocks(
                np.array([1, 2], dtype=np.int64),
                np.array([5, 3], dtype=np.int64),
            )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
class TestCompiledResidualKernel:
    """The compiled residual loop must be bit-identical to the scalar oracle.

    When no C compiler is available the ``compiled`` request silently
    degrades to the pure-python residual loop, so this matrix passes —
    with identical numbers — on compiler-less hosts too.
    """

    def test_matches_scalar_access_path(self, rng, policy, associativity):
        blocks, times = _random_stream(rng, 4000, 96)
        end_time = int(times[-1]) + 1

        scalar = SetAssociativeCache(_small_config(associativity), policy)
        scalar_hits = np.array(
            [scalar.access_block(int(b), int(t)) for b, t in zip(blocks, times)]
        )
        scalar.finish(end_time)

        compiled_cache = SetAssociativeCache(_small_config(associativity), policy)
        kernel = BatchedCacheKernel(compiled_cache, residual="compiled")
        hits = []
        for lo in range(0, len(blocks), 1024):
            hits.append(
                kernel.access_blocks(blocks[lo:lo + 1024], times[lo:lo + 1024])
            )
        kernel.finish(end_time)

        assert np.array_equal(scalar_hits, np.concatenate(hits))
        assert compiled_cache.stats == scalar.stats
        assert compiled_cache.intervals() == scalar.intervals()


def _simulate(kernel, policy="lru", pipeline=None, benchmark="gzip"):
    return AnnotatingSimulator(
        MemoryHierarchy(HierarchyConfig.paper(), replacement=policy),
        pipeline,
        kernel=kernel,
    ).run(make_benchmark(benchmark, scale=0.02).chunks())


def _assert_bit_identical(a, b):
    """Timing, statistics, intervals and every annotation flag agree."""
    # Cycles, statistics and both interval populations; the profile is
    # excluded from equality.
    assert a.result == b.result
    for cache in ("l1i", "l1d"):
        x, y = a.annotated_for(cache), b.annotated_for(cache)
        for name in ("nextline", "stride", "tail"):
            assert np.array_equal(getattr(x, name), getattr(y, name)), (cache, name)


#: The paper pipeline under every policy, plus the non-default pipelines
#: (no miss stalls; blocking stores without load overlap; the 2-wide
#: configuration of the sweep tests) under LRU.
_MATRIX = [pytest.param(policy, None, id=policy) for policy in POLICIES] + [
    pytest.param("lru", PipelineConfig(stall_on_miss=False), id="lru-no-stall"),
    pytest.param(
        "lru", PipelineConfig(store_buffer=False, load_mlp=1), id="lru-blocking"
    ),
    pytest.param("lru", PipelineConfig(width=2, base_cpi=0.65), id="lru-width2"),
]


@pytest.mark.parametrize("policy", POLICIES)
class TestSimulatorEquivalence:
    def test_batched_run_is_bit_identical(self, policy):
        scalar, batched = _simulate("scalar", policy), _simulate("batched", policy)
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
        from repro.cache import native

        scalar, batched, compiled = (
            _simulate(kernel, policy, pipeline)
            for kernel in ("scalar", "batched", "compiled")
        )
        _assert_bit_identical(scalar, batched)
        _assert_bit_identical(scalar, compiled)
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
