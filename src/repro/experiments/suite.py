"""Shared benchmark-suite runner on top of the execution engine.

Several experiments (Table 2, Figures 7/8/9) consume the same six
simulations; :class:`SuiteRunner` hands out each benchmark's reduced,
annotated results for one (scale, pipeline) configuration.  The actual
simulation goes through :class:`~repro.engine.parallel.ExecutionEngine`:
results come from the on-disk cache when available, misses fan out over
worker processes, and a per-instance in-memory layer preserves the old
guarantee that one ``SuiteRunner`` simulates each benchmark exactly once
and always returns the same objects.  Rerunning an interrupted run
against the same cache picks up every finished benchmark from it;
in-process fallbacks inside the engine never change
what a ``BenchmarkRun`` contains, only how long it took to obtain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..engine import ExecutionEngine, SimulationJob
from ..errors import ExperimentError, ReproError
from ..core.intervals import IntervalPopulation
from ..prefetch.analysis import AnnotatedSimulationResult
from ..cpu.pipeline import PipelineConfig
from ..traces.registry import check_workload
from ..workloads.benchmarks import BENCHMARK_NAMES

#: Default workload scale for experiments: full calibration scale.
DEFAULT_SCALE = 1.0


@dataclass(frozen=True)
class BenchmarkRun:
    """One benchmark's simulated, annotated outcome."""

    name: str
    annotated: AnnotatedSimulationResult
    _views: Dict[str, IntervalPopulation] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def intervals(self, cache: str) -> IntervalPopulation:
        """The interval population of ``'icache'`` or ``'dcache'``.

        Kinds are re-labelled NORMAL — the paper's default treatment of
        live/dead intervals (§3.1); the dead-interval ablation asks for
        the population with its kinds via ``annotated`` directly.  Every
        call returns the same view, so its pricing view is built only once.
        """
        if cache not in self._views:
            self._views[cache] = self.annotated.annotated_for(cache).as_normal()
        return self._views[cache]


class SuiteRunner:
    """Runs and caches the §4.1 benchmark suite through the engine."""

    def __init__(
        self,
        scale: float = DEFAULT_SCALE,
        pipeline: Optional[PipelineConfig] = None,
        benchmarks: Optional[Iterable[str]] = None,
        engine: Optional[ExecutionEngine] = None,
    ) -> None:
        if scale <= 0:
            raise ExperimentError(f"scale must be positive, got {scale!r}")
        self.scale = scale
        self.pipeline = pipeline
        self.benchmark_names: List[str] = (
            list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)
        )
        for name in self.benchmark_names:
            try:
                check_workload(name, scale)
            except ReproError as error:
                raise ExperimentError(str(error)) from None
        self._engine = engine
        self._cache: Dict[str, BenchmarkRun] = {}

    @property
    def engine(self) -> ExecutionEngine:
        """The backing engine (a default one is created lazily)."""
        if self._engine is None:
            self._engine = ExecutionEngine()
        return self._engine

    @property
    def telemetry(self):
        """The engine's run telemetry (failures and notes included)."""
        return self.engine.telemetry

    def job_for(self, name: str) -> SimulationJob:
        """The engine job backing one benchmark of this suite.

        A sweep is a list of suites, so a sweep context and a single run
        with the same (benchmark, scale, pipeline) build the same job and
        share one content address, hence one cache entry.
        """
        if name not in self.benchmark_names:
            raise ExperimentError(
                f"benchmark {name!r} is not in this runner's suite "
                f"{self.benchmark_names}"
            )
        return SimulationJob(name, scale=self.scale, pipeline=self.pipeline)

    def run(self, name: str) -> BenchmarkRun:
        """Simulate one benchmark (cached in memory and on disk)."""
        if name not in self._cache:
            outcome = self.engine.run_one(self.job_for(name))
            self._cache[name] = BenchmarkRun(name=name, annotated=outcome.annotated)
        return self._cache[name]

    def all_runs(self) -> Dict[str, BenchmarkRun]:
        """Simulate the whole suite; misses fan out across workers."""
        run_suites([self])
        return {name: self._cache[name] for name in self.benchmark_names}

    def intervals_by_benchmark(self, cache: str) -> Dict[str, IntervalPopulation]:
        """Interval populations (NORMAL view) per benchmark for one cache."""
        return {
            name: run.intervals(cache) for name, run in self.all_runs().items()
        }


def run_suites(suites: Sequence[SuiteRunner]) -> None:
    """Fill every suite's missing benchmarks from one engine run.

    The suites share the first one's engine, so a sweep's whole grid is
    one fan-out over workers and one pass over the result cache.
    """
    missing = [
        (suite, name, suite.job_for(name))
        for suite in suites
        for name in suite.benchmark_names
        if name not in suite._cache
    ]
    if not missing:
        return
    outcomes = suites[0].engine.run([job for _, _, job in missing])
    for suite, name, job in missing:
        suite._cache[name] = BenchmarkRun(name=name, annotated=outcomes[job].annotated)
