"""Benches: substrate throughput (simulator, policies, prefetch analysis).

Not paper artifacts — these track the performance of the machinery the
experiments run on, so regressions in the hot loops are visible.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.cache import native
from repro.core.energy import ModeEnergyModel
from repro.core.intervals import IntervalPopulation
from repro.core.policy import OptHybrid
from repro.core.savings import evaluate_policy
from repro.cpu.trace import TraceChunk
from repro.engine import ExecutionEngine, NullStore, ResultStore, SimulationJob
from repro.engine import transport
from repro.power.technology import paper_nodes
from repro.prefetch.analysis import AnnotatingSimulator
from repro.traces.format import TraceRecording, record_benchmark
from repro.workloads import make_gzip

from conftest import label_overhead_only


def test_annotating_simulator_throughput(benchmark):
    """Instructions per second through the trace simulator (timing and
    prefetch annotation in one pass)."""

    def run():
        workload = make_gzip(scale=0.05)
        return AnnotatingSimulator().run(workload.chunks())

    result = benchmark.pedantic(run, rounds=10, iterations=1)
    assert result.result.instructions > 50_000
    # The last round's split across the kernel stages and annotation.
    for stage, seconds in result.result.profile.stage_seconds.items():
        benchmark.extra_info[f"{stage}_s"] = round(seconds, 5)
    # One more run, untimed, for its traced memory peak: the simulator
    # folds intervals into rows, so the peak follows the chunk and the
    # distinct rows, not the trace.
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mb"] = round(peak / 2**20, 2)


def test_workload_generation_throughput(benchmark):
    """Instructions per second out of the workload generator (phase
    emission and data patterns), on a freshly built workload per round."""

    def generate(workload):
        return sum(len(chunk) for chunk in workload.chunks())

    instructions = benchmark.pedantic(
        generate, setup=lambda: ((make_gzip(scale=0.05),), {}), rounds=20
    )
    assert instructions == make_gzip(scale=0.05).total_instructions


def test_engine_parallel_throughput(benchmark):
    """Suite fan-out through the execution engine (uncached, 2 workers).

    Overhead-only on a host with two or fewer CPUs (``extra_info``).
    """
    jobs = [SimulationJob(name, scale=0.05) for name in ("gzip", "ammp")]

    def run():
        engine = ExecutionEngine(jobs=2, store=NullStore())
        outcomes = engine.run(jobs)
        assert all(o.source == "worker" for o in outcomes.values())
        return outcomes

    label_overhead_only(benchmark)
    outcomes = benchmark.pedantic(run, rounds=5, iterations=1)
    assert all(o.annotated.result.instructions > 50_000 for o in outcomes.values())


def test_engine_warm_cache_throughput(benchmark, tmp_path):
    """A warm-cache engine pass must cost milliseconds, not simulations."""
    jobs = [SimulationJob(name, scale=0.05) for name in ("gzip", "ammp")]
    ExecutionEngine(jobs=1, store=ResultStore(tmp_path)).run(jobs)

    def run():
        return ExecutionEngine(jobs=1, store=ResultStore(tmp_path)).run(jobs)

    outcomes = benchmark.pedantic(run, rounds=5, iterations=1)
    assert all(o.source == "cached" for o in outcomes.values())


def _alternating_loads(n_loads: int) -> TraceChunk:
    """Loads alternating between two blocks of one L1D set.

    Addresses 0 and 32768 share set 0 of the paper's 512-set 2-way L1D,
    so after two cold misses every load hits, yet none repeats its set's
    previous block: each lands in the residual loop as a hit that makes
    no L2 callback.  One PC keeps the I-side to a single fetch.  This
    isolates the per-event work the compiled loop replaces.
    """
    addrs = (np.arange(n_loads, dtype=np.int64) % 2) * 32768
    return TraceChunk(np.zeros(n_loads, dtype=np.int64), addrs)


def _bench_residual(benchmark, kernel: str):
    """Time ``kernel`` on the alternating stream.

    ``extra_info.residual_s`` is the fastest round's residual stage.
    """
    chunk = _alternating_loads(200_000)
    residual_s = []

    def run():
        profile = AnnotatingSimulator(kernel=kernel).run(chunk).result.profile
        residual_s.append(profile.stage_seconds["residual"])
        return profile

    profile = benchmark.pedantic(run, rounds=5, iterations=1)
    assert profile.slow_path_accesses == profile.total_accesses > 200_000
    benchmark.extra_info["residual_s"] = min(residual_s)
    return profile


def test_residual_python_throughput(benchmark):
    """The pure-python residual loop, through ``kernel="batched"``."""
    assert _bench_residual(benchmark, "batched").residual_impl == "python"


def test_residual_compiled_throughput(benchmark):
    """The compiled residual loop on the same stream (``kernel="compiled"``).

    The committed baseline's residual stage (``extra_info.residual_s``)
    is about 45x faster than ``test_residual_python_throughput``'s; on
    compiler-less hosts the bench is skipped rather than silently
    timing the fallback.
    """
    if not native.native_available():
        pytest.skip(f"native kernel unavailable: {native.native_build_error()}")
    assert _bench_residual(benchmark, "compiled").residual_impl == "compiled"


@pytest.fixture(scope="module")
def dispatch_traces(tmp_path_factory):
    """Traces of ~1e5 and ~1e6 accesses for transport benches."""
    directory = tmp_path_factory.mktemp("dispatch")
    paths = {}
    for label, scale in (("small", 0.022), ("large", 0.22)):
        path = directory / f"gzip-{label}.rtr"
        record_benchmark("gzip", path, scale=scale)
        paths[label] = str(path)
    return paths


def _first_chunk_seconds(make_iterator, repeats: int = 20) -> float:
    next(make_iterator())  # warm page cache / handle manifest once
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        chunk = next(make_iterator())
        best = min(best, time.perf_counter() - start)
        assert len(chunk) > 0
    return best


def test_dispatch_first_result_pickle(benchmark, dispatch_traces):
    """Worker time-to-first-chunk streaming the large trace from disk."""
    path = dispatch_traces["large"]

    def run():
        return next(TraceRecording(path).chunks())

    chunk = benchmark(run)
    assert len(chunk) > 0


def test_dispatch_first_result_shm(benchmark, dispatch_traces):
    """Worker time-to-first-chunk attaching to a published shm arena.

    Also pins the headline transport property: the attach cost is flat
    in trace size (<= 1.2x growth from ~1e5 to ~1e6 accesses), where the
    legacy path re-reads and re-verifies proportionally more.
    """
    small, large = dispatch_traces["small"], dispatch_traces["large"]
    transport.REGISTRY.reset()
    assert transport.REGISTRY.acquire(small, "shm") is not None
    assert transport.REGISTRY.acquire(large, "shm") is not None
    try:
        # Attach cost is O(1) in trace size; the bound is tight relative
        # to the ~0.5ms samples, so re-measure on transient noise — a
        # real O(n) regression fails every attempt.
        for _ in range(3):
            t_small = _first_chunk_seconds(
                lambda: transport.overlay_chunks(small)
            )
            t_large = _first_chunk_seconds(
                lambda: transport.overlay_chunks(large)
            )
            growth = t_large / t_small if t_small else float("inf")
            if growth <= 1.2:
                break
        benchmark.extra_info["first_chunk_seconds_1e5"] = t_small
        benchmark.extra_info["first_chunk_seconds_1e6"] = t_large
        benchmark.extra_info["growth_1e5_to_1e6"] = growth
        assert growth <= 1.2, (t_small, t_large)

        def run():
            return next(transport.overlay_chunks(large))

        chunk = benchmark(run)
        assert len(chunk) > 0
    finally:
        transport.REGISTRY.reset()


@pytest.fixture(scope="module")
def stream_trace(tmp_path_factory):
    """The gzip workload recorded to a trace (456k accesses)."""
    path = tmp_path_factory.mktemp("stream") / "gzip.rtr"
    return record_benchmark("gzip", path, scale=0.2)


def test_trace_stream_throughput(benchmark, stream_trace):
    """A gzip-coded trace through the reader into the annotating simulator.

    The reader decodes the next chunk on a helper thread while the
    simulator works on the current one, so on a host with a spare core
    the decode hides behind the simulation.
    """

    def run():
        chunks = TraceRecording(stream_trace.path).chunks()
        return AnnotatingSimulator().run(chunks)

    annotated = benchmark.pedantic(run, rounds=5, iterations=1)
    assert annotated.result.instructions == stream_trace.instructions
    benchmark.extra_info["accesses"] = stream_trace.instructions
    benchmark.extra_info["accesses_per_second"] = round(
        stream_trace.instructions / benchmark.stats.stats.mean
    )


def _policy_population():
    """One million intervals over 15 000 distinct lengths.

    The shape of a real cache population: the paper suite's are
    0.4-0.7 M intervals over 2.7-18 k distinct lengths.
    """
    rng = np.random.default_rng(0)
    pool = rng.integers(1, 10**6, size=15_000)
    return rng.choice(pool, size=1_000_000)


def test_policy_evaluation_first_call(benchmark):
    """Figure 5 accumulation on a fresh reduced population, the form a
    job result arrives in (lays out its pricing view, then prices)."""
    model = ModeEnergyModel(paper_nodes()[70])
    lengths = _policy_population()
    policy = OptHybrid(model)

    def fresh():
        return (policy, IntervalPopulation.of(lengths)), {}

    result = benchmark.pedantic(evaluate_policy, setup=fresh, rounds=10)
    assert 0.9 < result.saving_fraction < 1.0


def test_policy_evaluation_repeat_call(benchmark):
    """Figure 5 accumulation on a population already priced once."""
    model = ModeEnergyModel(paper_nodes()[70])
    population = IntervalPopulation.of(_policy_population())
    policy = OptHybrid(model)
    evaluate_policy(policy, population)
    result = benchmark.pedantic(evaluate_policy, args=(policy, population), rounds=100)
    assert 0.9 < result.saving_fraction < 1.0


def test_functional_decay_cache(benchmark):
    """The functional cache-decay mechanism on a random reuse stream.

    Cross-checks the mechanism's integrated energy account against the
    analytic Sleep(10K) pricing on the identical access stream.
    """
    from repro.cache.cache import SetAssociativeCache
    from repro.cache.config import CacheConfig
    from repro.cache.decay import DecayCache
    from repro.core.policy import DecaySleep
    from repro.core.savings import evaluate_policy
    from repro.prefetch.analysis import _CacheAnnotator

    rng = np.random.default_rng(7)
    config = CacheConfig("decay", 64 * 1024, 64, 2, 1)
    model = ModeEnergyModel(paper_nodes()[70])
    events = []
    time = 0
    for _ in range(20_000):
        time += int(rng.choice([2, 30, 800, 25_000], p=[0.5, 0.3, 0.15, 0.05]))
        events.append((int(rng.integers(0, 2048)), time))
    end_time = events[-1][1] + 1

    def run():
        cache = DecayCache(config, model, decay_interval=10_000)
        for block, t in events:
            cache.access(block, t)
        cache.finish(end_time)
        return cache.energy_report()

    report_ = benchmark.pedantic(run, rounds=5, iterations=1)

    tracked = SetAssociativeCache(config)
    collector = _CacheAnnotator(config.n_lines, floor=6)
    for block, t in events:
        hit, frame = tracked.access_block_ex(block, t)
        collector.observe(block, frame, t, hit, False)
    analytic = evaluate_policy(
        DecaySleep(model, 10_000, counter_overhead=0.0),
        collector.population(end_time).as_normal(),
    )
    assert abs(report_.saving_fraction - analytic.saving_fraction) < 0.02
