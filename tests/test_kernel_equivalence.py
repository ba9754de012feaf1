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
from repro.cpu.simulator import simulate_trace
from repro.errors import SimulationError
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
class TestSimulatorEquivalence:
    def test_batched_run_is_bit_identical(self, policy):
        def run(kernel):
            return simulate_trace(
                make_benchmark("gzip", scale=0.02).chunks(),
                MemoryHierarchy(HierarchyConfig.paper(), replacement=policy),
                kernel=kernel,
            )

        scalar, batched = run(False), run(True)
        assert scalar == batched  # profile is excluded from equality
        assert scalar.l1i_intervals == batched.l1i_intervals
        assert scalar.l1d_intervals == batched.l1d_intervals
        assert batched.profile.mode == "batched"
        assert batched.profile.fast_path_share > 0.5
        assert scalar.profile.mode == "scalar"


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


@pytest.mark.parametrize("policy", POLICIES)
class TestResidualImplMatrix:
    """scalar / python-batched / compiled full-simulation equivalence."""

    def test_three_way_bit_identical(self, policy):
        from repro.cache import native

        def run(kernel):
            return simulate_trace(
                make_benchmark("gzip", scale=0.02).chunks(),
                MemoryHierarchy(HierarchyConfig.paper(), replacement=policy),
                kernel=kernel,
            )

        scalar = run("scalar")
        batched = run("batched")
        compiled = run("compiled")
        assert scalar == batched
        assert scalar == compiled
        assert scalar.l1i_intervals == compiled.l1i_intervals
        assert scalar.l1d_intervals == compiled.l1d_intervals
        # The profile reports which residual implementation actually ran.
        assert scalar.profile.residual_impl == "scalar"
        assert batched.profile.mode == "batched"
        assert batched.profile.residual_impl == "python"
        assert compiled.profile.mode == "batched"
        expected = "compiled" if native.native_available() else "python"
        assert compiled.profile.residual_impl == expected


class TestAnnotationEquivalence:
    def test_flags_identical_across_paths(self):
        def run(batched):
            simulator = AnnotatingSimulator()
            trace = make_benchmark("gcc", scale=0.02).chunks()
            runner = simulator._run_batched if batched else simulator._run_scalar
            return runner(trace)

        scalar, batched = run(False), run(True)
        assert scalar.result == batched.result
        for cache in ("l1i", "l1d"):
            a = scalar.annotated_for(cache)
            b = batched.annotated_for(cache)
            assert np.array_equal(a.nextline, b.nextline)
            assert np.array_equal(a.stride, b.stride)
            assert np.array_equal(a.tail, b.tail)


class TestKernelSupport:
    def test_paper_hierarchy_supported(self):
        assert kernel_supported(MemoryHierarchy(HierarchyConfig.paper()))

    def test_used_hierarchy_not_supported(self):
        hierarchy = MemoryHierarchy(HierarchyConfig.paper())
        hierarchy.fetch_instruction(0, 0)
        assert not kernel_supported(hierarchy)


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
