"""High-level sweep operations behind ``repro-leakage sweep ...``.

A sweep is a list of :class:`~repro.experiments.suite.SuiteRunner`
contexts, one per (scale, pipeline) in spec order, that share one
engine.  Two verbs, each callable from the CLI or directly from Python:

* :func:`plan_text` — list every context's simulation jobs (no runs).
* :func:`run_sweep` — fill every context in one engine run (cache hits
  first, then ``--jobs`` workers, the in-process fallback and the
  validation gate), then render the spec's experiments per context
  exactly as ``run`` renders them.  Rerunning against the same cache
  simulates nothing.

The contexts build their jobs through :meth:`SuiteRunner.job_for`, so a
sweep context and a plain ``run`` at the same (benchmark, scale,
pipeline) share one content address: sweeps warm single runs and vice
versa.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

from ..cpu.pipeline import PipelineConfig
from ..engine import ExecutionEngine, RunTelemetry
from ..experiments.runner import run_experiment
from ..experiments.suite import SuiteRunner, run_suites
from .spec import SweepSpec

#: Grids at or below this many jobs are listed job by job in ``plan``.
_PLAN_LISTING_LIMIT = 32


def pipeline_label(pipeline: Optional[PipelineConfig]) -> str:
    """Deterministic human-readable label for a pipeline axis entry."""
    if pipeline is None:
        return "default"
    return ",".join(f"{key}={value}" for key, value in asdict(pipeline).items())


def _context_label(suite: SuiteRunner) -> str:
    """The ``scale=…, pipeline=…`` header of one sweep context."""
    return f"scale={suite.scale:g}, pipeline={pipeline_label(suite.pipeline)}"


def sweep_suites(
    spec: SweepSpec, engine: Optional[ExecutionEngine] = None
) -> List[SuiteRunner]:
    """One suite per (scale, pipeline), scales outermost, sharing ``engine``."""
    return [
        SuiteRunner(
            scale=scale, pipeline=pipeline, benchmarks=spec.benchmarks,
            engine=engine,
        )
        for scale in spec.scales
        for pipeline in spec.pipelines
    ]


def plan_text(spec: SweepSpec) -> str:
    """Human summary of the grid (no execution)."""
    lines = [spec.describe(), f"spec fingerprint: {spec.fingerprint()}"]
    if spec.simulation_points <= _PLAN_LISTING_LIMIT:
        for suite in sweep_suites(spec):
            lines.append(f"{_context_label(suite)}:")
            lines.extend(
                f"  {suite.job_for(name).describe()}"
                for name in suite.benchmark_names
            )
    else:
        lines.append(f"({spec.simulation_points} jobs; listing suppressed)")
    return "\n".join(lines)


@dataclass
class SweepRun:
    """What one ``sweep run`` produced."""

    spec: SweepSpec
    report: str
    telemetry: RunTelemetry


def run_sweep(
    spec: SweepSpec, engine: Optional[ExecutionEngine] = None
) -> SweepRun:
    """Simulate the whole grid in one engine run and build its report.

    Each context's section is its header line, a blank line and the
    experiments rendered as ``run`` prints them, so a section at one
    (scale, pipeline) is byte for byte that ``run``'s stdout.
    """
    engine = engine if engine is not None else ExecutionEngine()
    engine.telemetry.context.update(
        {"sweep": spec.name, "sweep_fingerprint": spec.fingerprint()}
    )
    suites = sweep_suites(spec, engine)
    run_suites(suites)
    sections = [
        f"== sweep {spec.name} ==\n{spec.describe()}\n"
        f"spec fingerprint: {spec.fingerprint()}"
    ]
    for suite in suites:
        body = "\n\n\n".join(
            run_experiment(name, suite).render() for name in spec.experiments
        )
        sections.append(f"=== {_context_label(suite)} ===\n\n{body}")
    return SweepRun(
        spec=spec, report="\n\n\n".join(sections), telemetry=engine.telemetry
    )
