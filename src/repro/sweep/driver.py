"""High-level sweep operations behind ``repro-leakage sweep ...``.

Two verbs, each callable from the CLI or directly from Python:

* :func:`plan_text` — expand the grid and list its points (no runs).
* :func:`run_sweep` — simulate every point in one engine run (cache
  hits first, then ``--jobs`` workers, the in-process fallback and the
  validation gate) and aggregate the outcomes into the sweep report.
  Rerunning against the same cache simulates only the points it does
  not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine import ExecutionEngine, RunTelemetry
from .aggregate import SweepResults, collect, render_report
from .grid import expand
from .spec import SweepSpec

#: Grids at or below this size are listed point by point in ``plan``.
_PLAN_LISTING_LIMIT = 32


def plan_text(spec: SweepSpec) -> str:
    """Human summary of the grid (no execution)."""
    points = expand(spec)
    lines = [spec.describe(), f"spec fingerprint: {spec.fingerprint()}"]
    if len(points) <= _PLAN_LISTING_LIMIT:
        lines.append("jobs:")
        lines.extend(f"  {point.describe()}" for point in points)
    else:
        lines.append(f"({len(points)} jobs; listing suppressed)")
    return "\n".join(lines)


@dataclass
class SweepRun:
    """What one ``sweep run`` produced."""

    spec: SweepSpec
    results: SweepResults
    report: str
    telemetry: RunTelemetry


def run_sweep(
    spec: SweepSpec, engine: Optional[ExecutionEngine] = None
) -> SweepRun:
    """Simulate the whole grid in one engine run and build its report.

    The report is a pure function of the spec and the (deterministic)
    simulation results, so it is byte-identical whatever the worker
    count, cache state or fault history.
    """
    engine = engine if engine is not None else ExecutionEngine()
    engine.telemetry.context.update(
        {"sweep": spec.name, "sweep_fingerprint": spec.fingerprint()}
    )
    points = expand(spec)
    outcomes = engine.run([point.job for point in points])
    results = collect(spec, {point: outcomes[point.job] for point in points})
    return SweepRun(
        spec=spec,
        results=results,
        report=render_report(results),
        telemetry=engine.telemetry,
    )
