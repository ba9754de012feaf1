"""Diagnostic: per-benchmark interval-length distributions.

Not a paper artifact, but the quantity everything else is made of: the
cycle-mass of each cache's intervals across the Theorem 1 length classes
plus finer sub-bands.  This is the view the workload calibration was
driven by (DESIGN.md §3.5) and the first thing to inspect when porting
the library to new workloads.
"""

from __future__ import annotations

from typing import List

from ..core.energy import ModeEnergyModel
from ..core.inflection import inflection_points
from ..power.technology import paper_nodes
from .reporting import ExperimentResult, Table, fmt_pct
from .suite import SuiteRunner

#: Sub-band boundaries (cycles) used on top of the a/b class edges.
FINE_BOUNDARIES = [6, 100, 1057, 4000, 10_000, 30_000, 100_000, 300_000]


def run(suite: SuiteRunner | None = None) -> ExperimentResult:
    """Tabulate interval cycle-mass per benchmark, cache and band."""
    suite = suite if suite is not None else SuiteRunner()
    model = ModeEnergyModel(paper_nodes()[70])
    points = inflection_points(model)
    edges = FINE_BOUNDARIES
    labels = [f"<={edges[0]}"] + [
        f"{lo}-{hi}" for lo, hi in zip(edges, edges[1:])
    ] + [f">{edges[-1]}"]
    tables: List[Table] = []
    for cache in ("icache", "dcache"):
        rows = []
        for name, population in suite.intervals_by_benchmark(cache).items():
            mass = population.cycle_mass_by_class(edges)
            rows.append([name] + [fmt_pct(m) for m in mass])
        tables.append(
            Table(
                title=f"Interval cycle-mass (%) — {cache}",
                headers=["benchmark"] + labels,
                rows=rows,
            )
        )
    return ExperimentResult(
        name="distributions",
        description="Per-benchmark interval-length distributions (cycle mass)",
        tables=tables,
        notes=[
            f"Theorem 1 class edges at this node: a={points.active_drowsy}, "
            f"b={points.drowsy_sleep_cycles}",
            "mass beyond ~100K cycles is what sleep mode harvests; the "
            "(1057, 10K] band is what separates OPT-Sleep from OPT-Sleep(10K)",
        ],
    )
