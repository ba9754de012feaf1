"""Sweep-level aggregation: per-point results → one scaling report.

``sweep run`` simulates the grid in one engine run and hands the
outcomes to :func:`collect`, which walks them in deterministic spec
order and evaluates the paper's three optimal policies per (scale,
pipeline, node, cache, benchmark).  The output is

* a plain-text report (the technology-scaling story: a per-node summary
  table per cache, plus per-benchmark detail tables),
* a flat CSV (one row per cell, for plotting), and
* a JSON document (the same cells plus the spec and its fingerprint).

Every artefact is a pure function of (spec, simulated results), and the
results are bit-identical however they were computed — so the report is
byte-identical whatever the worker count, cache state or fault history.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.policy import TRIO_SCHEMES
from ..core.savings import trio_savings
from ..engine import JobOutcome
from ..experiments.reporting import Table, fmt_pct
from ..power.technology import paper_nodes
from .grid import SweepPoint, pipeline_label, suite_contexts
from .spec import SweepSpec

#: Scheme order of every table and CSV row.
SCHEMES = TRIO_SCHEMES

#: Pseudo-benchmark row carrying the suite mean.
AVERAGE = "average"


@dataclass(frozen=True)
class SweepCell:
    """One aggregated value: a policy's savings at one analysis point."""

    scale: float
    pipeline: str  #: Pipeline label (see :func:`grid.pipeline_label`).
    feature_nm: int
    cache: str
    benchmark: str  #: A benchmark name, or :data:`AVERAGE`.
    scheme: str
    saving: float  #: Leakage-energy saving fraction in [0, 1].


@dataclass
class SweepResults:
    """Everything ``sweep run`` aggregates, in deterministic order."""

    spec: SweepSpec
    cells: List[SweepCell]

    def lookup(self) -> Dict[tuple, float]:
        """Index the cells by their full coordinate."""
        return {
            (c.scale, c.pipeline, c.feature_nm, c.cache, c.benchmark, c.scheme):
                c.saving
            for c in self.cells
        }


def collect(
    spec: SweepSpec, outcomes: Dict[SweepPoint, JobOutcome]
) -> SweepResults:
    """Evaluate the full analysis grid over every point's outcome."""
    nodes = paper_nodes()
    models = [ModeEnergyModel(nodes[nm]) for nm in spec.nodes]
    by_context: Dict[tuple, Dict[str, JobOutcome]] = {}
    for point, outcome in outcomes.items():
        context = by_context.setdefault((point.scale, point.pipeline), {})
        context[point.benchmark] = outcome
    cells: List[SweepCell] = []
    for scale, pipeline in suite_contexts(spec):
        context = by_context[(scale, pipeline)]
        label = pipeline_label(pipeline)
        for cache in ("icache", "dcache"):
            # One grid per benchmark covers every node on one pricing view;
            # cells still come out in the original deterministic order.
            grids = {
                name: trio_savings(
                    models,
                    context[name].annotated.annotated_for(cache).as_normal(),
                )
                for name in spec.benchmarks
            }
            for column, feature_nm in enumerate(spec.nodes):
                per_scheme: Dict[str, List[float]] = {s: [] for s in SCHEMES}
                for name in spec.benchmarks:
                    grid = grids[name]
                    for row, scheme in enumerate(SCHEMES):
                        saving = float(grid[row, column])
                        per_scheme[scheme].append(saving)
                        cells.append(
                            SweepCell(
                                scale=scale,
                                pipeline=label,
                                feature_nm=feature_nm,
                                cache=cache,
                                benchmark=name,
                                scheme=scheme,
                                saving=saving,
                            )
                        )
                for scheme in SCHEMES:
                    cells.append(
                        SweepCell(
                            scale=scale,
                            pipeline=label,
                            feature_nm=feature_nm,
                            cache=cache,
                            benchmark=AVERAGE,
                            scheme=scheme,
                            saving=float(np.mean(per_scheme[scheme])),
                        )
                    )
    return SweepResults(spec=spec, cells=cells)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def report_tables(results: SweepResults) -> List[Table]:
    """Summary + detail tables, ordered like the grid expansion."""
    spec = results.spec
    values = results.lookup()
    node_headers = [f"{nm}nm" for nm in spec.nodes]
    tables: List[Table] = []
    for scale, pipeline in suite_contexts(spec):
        label = pipeline_label(pipeline)
        context = f"scale={scale:g}, pipeline={label}"
        for cache in ("icache", "dcache"):
            rows = [
                [scheme]
                + [
                    fmt_pct(values[(scale, label, nm, cache, AVERAGE, scheme)])
                    for nm in spec.nodes
                ]
                for scheme in SCHEMES
            ]
            tables.append(
                Table(
                    title=(
                        f"Sweep {spec.name} — {cache} suite-average "
                        f"savings (%) by technology ({context})"
                    ),
                    headers=["scheme"] + node_headers,
                    rows=rows,
                )
            )
        for cache in ("icache", "dcache"):
            for scheme in SCHEMES:
                rows = [
                    [name]
                    + [
                        fmt_pct(values[(scale, label, nm, cache, name, scheme)])
                        for nm in spec.nodes
                    ]
                    for name in list(spec.benchmarks) + [AVERAGE]
                ]
                tables.append(
                    Table(
                        title=(
                            f"Sweep {spec.name} — {cache} {scheme} "
                            f"savings (%) per benchmark ({context})"
                        ),
                        headers=["benchmark"] + node_headers,
                        rows=rows,
                    )
                )
    return tables


def render_report(results: SweepResults) -> str:
    """The full plain-text sweep report (byte-stable)."""
    spec = results.spec
    header = (
        f"== sweep {spec.name}: leakage-savings grid ==\n"
        f"{spec.describe()}\n"
        f"spec fingerprint: {spec.fingerprint()}"
    )
    return "\n\n".join([header] + [t.render() for t in report_tables(results)])


def to_csv(results: SweepResults) -> str:
    """Flat CSV: one row per cell (averages flagged in ``benchmark``)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["scale", "pipeline", "node_nm", "cache", "benchmark", "scheme",
         "saving_pct"]
    )
    for cell in results.cells:
        writer.writerow(
            [
                f"{cell.scale:g}",
                cell.pipeline,
                cell.feature_nm,
                cell.cache,
                cell.benchmark,
                cell.scheme,
                f"{100.0 * cell.saving:.4f}",
            ]
        )
    return buffer.getvalue()


def to_json_dict(results: SweepResults) -> Dict:
    """JSON-ready document: spec, fingerprint, and every cell."""
    return {
        "sweep": results.spec.name,
        "spec": results.spec.to_dict(),
        "spec_fingerprint": results.spec.fingerprint(),
        "schemes": list(SCHEMES),
        "cells": [
            {
                "scale": cell.scale,
                "pipeline": cell.pipeline,
                "node_nm": cell.feature_nm,
                "cache": cell.cache,
                "benchmark": cell.benchmark,
                "scheme": cell.scheme,
                "saving": cell.saving,
            }
            for cell in results.cells
        ],
    }


def save_csv(results: SweepResults, directory) -> str:
    """Write the flat CSV as ``<dir>/sweep_<name>.csv``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"sweep_{results.spec.name}.csv"
    path.write_text(to_csv(results), encoding="utf-8")
    return str(path)
