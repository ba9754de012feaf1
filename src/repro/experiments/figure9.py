"""Figure 9: prefetchability of intervals by length class."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.energy import ModeEnergyModel
from ..power.technology import paper_nodes
from ..prefetch.schemes import prefetchability_breakdown, prefetchability_summary
from . import paper_values
from .reporting import ExperimentResult, Table, fmt_pct
from .suite import SuiteRunner


def compute(suite: SuiteRunner) -> Dict[str, Dict[str, float]]:
    """Suite-average P-NL / P-stride fractions per cache."""
    out: Dict[str, Dict[str, float]] = {}
    for cache in ("icache", "dcache"):
        summaries = [
            prefetchability_summary(population)
            for population in suite.intervals_by_benchmark(cache).values()
        ]
        out[cache] = {
            key: float(np.mean([s[key] for s in summaries]))
            for key in ("nextline", "stride", "total")
        }
    return out


def run(suite: SuiteRunner | None = None) -> ExperimentResult:
    """Regenerate both Figure 9 panels (suite-aggregate breakdown)."""
    suite = suite if suite is not None else SuiteRunner()
    model = ModeEnergyModel(paper_nodes()[70])
    tables: List[Table] = []
    for cache in ("icache", "dcache"):
        # Aggregate the per-range counts over the whole suite.
        totals: Dict[str, List[int]] = {}
        for population in suite.intervals_by_benchmark(cache).values():
            for row in prefetchability_breakdown(population, model):
                acc = totals.setdefault(row.label, [0, 0, 0])
                acc[0] += row.total
                acc[1] += row.nextline
                acc[2] += row.stride
        grand_total = sum(acc[0] for acc in totals.values())
        rows = []
        for label, (total, nextline, stride) in totals.items():
            rows.append(
                [
                    label,
                    str(total),
                    fmt_pct(nextline / grand_total if grand_total else 0.0),
                    fmt_pct(stride / grand_total if grand_total else 0.0),
                    fmt_pct(
                        (total - nextline - stride) / grand_total
                        if grand_total
                        else 0.0
                    ),
                ]
            )
        summary = compute(suite)[cache]
        paper = paper_values.FIGURE9[cache]
        rows.append(
            [
                "total (suite avg)",
                "-",
                fmt_pct(summary["nextline"]),
                fmt_pct(summary["stride"]),
                fmt_pct(1.0 - summary["total"]),
            ]
        )
        rows.append(
            [
                "paper total",
                "-",
                fmt_pct(paper["nextline"]),
                fmt_pct(paper["stride"]),
                fmt_pct(1.0 - paper["total"]),
            ]
        )
        tables.append(
            Table(
                title=f"Figure 9 — {cache} interval prefetchability (% of interval count)",
                headers=["range", "intervals", "P-NL", "P-stride", "NP"],
                rows=rows,
            )
        )
    return ExperimentResult(
        name="figure9",
        description="Prefetchability of intervals by length class",
        tables=tables,
        notes=[
            "P-NL: an access to the previous block occurs inside the interval",
            "P-stride: the closing load was predicted by a confirmed per-PC stride",
            "intervals <= the active-drowsy point are never prefetchable",
        ],
    )
