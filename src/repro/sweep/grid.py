"""Deterministic expansion of a sweep spec into jobs and analysis tasks.

Expansion order is a pure function of the spec: scales outermost, then
pipelines, then benchmarks, all in spec order.  Every shard and every
re-run therefore sees the same points at the same indices, which is what
makes shard assignment (:mod:`repro.sweep.shard`), status, and the
merged report stable across hosts.

Jobs are built through :meth:`repro.experiments.suite.SuiteRunner.job_for`
— the exact construction the single-run experiments use — so a sweep
point and a plain ``repro-leakage figure8`` run at the same (benchmark,
scale, pipeline) share one content address and one cache entry: sweeps
warm single runs and vice versa.

Technology nodes never appear in a simulation job.  Leakage-mode
analysis is a cheap pure function of the simulated interval population,
so the node axis expands into :class:`AnalysisTask` rows consumed by the
aggregation stage (:mod:`repro.sweep.aggregate`) instead of multiplying
simulation work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cpu.pipeline import PipelineConfig
from ..engine import SimulationJob
from ..experiments.suite import SuiteRunner
from .spec import SweepSpec


def pipeline_label(pipeline: Optional[PipelineConfig]) -> str:
    """Deterministic human-readable label for a pipeline axis entry."""
    if pipeline is None:
        return "default"
    from dataclasses import asdict

    parts = [f"{key}={value}" for key, value in asdict(pipeline).items()]
    return ",".join(parts)


@dataclass(frozen=True)
class SweepPoint:
    """One simulation point of the grid, with its engine job attached."""

    index: int  #: Position in the deterministic expansion order.
    benchmark: str
    scale: float
    pipeline: Optional[PipelineConfig]
    job: SimulationJob

    def key(self) -> str:
        """The job's content address (shared with single-run caching)."""
        return self.job.key()

    def describe(self) -> str:
        return (
            f"#{self.index} {self.benchmark}@{self.scale:g} "
            f"[{pipeline_label(self.pipeline)}]"
        )


@dataclass(frozen=True)
class AnalysisTask:
    """One per-point analysis row: a (suite context, node, cache) combo."""

    scale: float
    pipeline: Optional[PipelineConfig]
    feature_nm: int
    cache: str  #: ``'icache'`` or ``'dcache'``

    def describe(self) -> str:
        return (
            f"{self.cache}@{self.feature_nm}nm scale={self.scale:g} "
            f"[{pipeline_label(self.pipeline)}]"
        )


def suite_contexts(
    spec: SweepSpec,
) -> List[Tuple[float, Optional[PipelineConfig]]]:
    """The (scale, pipeline) combos of the grid, in expansion order."""
    return [
        (scale, pipeline)
        for scale in spec.scales
        for pipeline in spec.pipelines
    ]


def suite_for(
    spec: SweepSpec,
    scale: float,
    pipeline: Optional[PipelineConfig],
    engine=None,
) -> SuiteRunner:
    """A :class:`SuiteRunner` over the spec's benchmarks for one context."""
    return SuiteRunner(
        scale=scale,
        pipeline=pipeline,
        benchmarks=list(spec.benchmarks),
        engine=engine,
    )


def expand(spec: SweepSpec) -> List[SweepPoint]:
    """The full simulation grid, deterministically ordered and indexed."""
    points: List[SweepPoint] = []
    for scale, pipeline in suite_contexts(spec):
        suite = suite_for(spec, scale, pipeline)
        for name in spec.benchmarks:
            points.append(
                SweepPoint(
                    index=len(points),
                    benchmark=name,
                    scale=scale,
                    pipeline=pipeline,
                    job=suite.job_for(name),
                )
            )
    return points


def expand_analysis(spec: SweepSpec) -> List[AnalysisTask]:
    """Every analysis row the aggregation stage will evaluate."""
    return [
        AnalysisTask(scale=scale, pipeline=pipeline, feature_nm=nm, cache=cache)
        for scale, pipeline in suite_contexts(spec)
        for nm in spec.nodes
        for cache in ("icache", "dcache")
    ]


def grid_keys(spec: SweepSpec) -> Dict[str, SweepPoint]:
    """Content address → point for the whole grid (keys are unique)."""
    return {point.key(): point for point in expand(spec)}
