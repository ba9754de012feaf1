"""Table 2: optimal leakage savings as technology scales (70-180 nm)."""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.policy import TRIO_SCHEMES
from ..core.savings import trio_savings
from ..power.technology import paper_nodes
from . import paper_values
from .reporting import ExperimentResult, Table, fmt_pct
from .suite import SuiteRunner

#: Table 2 scheme order.
SCHEMES = list(TRIO_SCHEMES)


def compute(suite: SuiteRunner) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Benchmark-average savings per cache, node and scheme.

    Every node prices the same per-population pricing view, so each
    cell costs a few prefix-sum lookups, not a pass over intervals.
    """
    results: Dict[str, Dict[int, Dict[str, float]]] = {}
    ordered = sorted(paper_nodes().items())
    models = [ModeEnergyModel(node) for _, node in ordered]
    for cache in ("icache", "dcache"):
        populations = suite.intervals_by_benchmark(cache)
        grids = [
            trio_savings(models, population) for population in populations.values()
        ]
        results[cache] = {
            feature_nm: {
                name: float(np.mean([float(grid[i, j]) for grid in grids]))
                for i, name in enumerate(SCHEMES)
            }
            for j, (feature_nm, _) in enumerate(ordered)
        }
    return results


def run(suite: SuiteRunner | None = None) -> ExperimentResult:
    """Regenerate Table 2 and print it against the paper's values."""
    suite = suite if suite is not None else SuiteRunner()
    measured = compute(suite)
    tables = []
    for cache in ("icache", "dcache"):
        rows = []
        for scheme in SCHEMES:
            for source, data in (
                ("measured", measured[cache]),
                ("paper", paper_values.TABLE2[cache]),
            ):
                rows.append(
                    [f"{scheme} ({source})"]
                    + [fmt_pct(data[nm][scheme]) for nm in (70, 100, 130, 180)]
                )
        tables.append(
            Table(
                title=f"Table 2 — {cache} optimal savings (%) by technology",
                headers=["scheme", "70nm", "100nm", "130nm", "180nm"],
                rows=rows,
            )
        )
    notes = [
        "savings increase as technology scales down (smaller drowsy-sleep point)",
        "sleep's ~30-point lead over drowsy at 70nm collapses at 180nm "
        "(flipping outright on the I-cache) — the paper's dominance shift",
    ]
    return ExperimentResult(
        name="table2",
        description="Optimal leakage savings with technology scaling",
        tables=tables,
        notes=notes,
    )
