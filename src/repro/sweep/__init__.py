"""Parameter sweeps over the experiment grid, as one engine run.

The paper's headline results are grids — leakage-mode energy across
(benchmark × cache scale × pipeline × technology node), e.g. the
180→70 nm scaling study of Figures 7-9.  This package makes such a grid
one command:

* :mod:`~repro.sweep.spec` — a declarative, JSON-round-trippable
  :class:`SweepSpec`, validated against known names up front.
* :mod:`~repro.sweep.grid` — deterministic expansion into ordered
  simulation points, reusing the single-run job construction so cache
  entries are shared.
* :mod:`~repro.sweep.aggregate` — per-point results → the sweep report
  (per-node/per-benchmark savings tables, CSV + JSON).
* :mod:`~repro.sweep.driver` — the ``plan`` / ``run`` verbs the CLI
  wires up.

Quickstart::

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec("demo", benchmarks=("gzip", "ammp"), scales=(0.05,))
    print(run_sweep(spec).report)   # the technology-scaling tables
"""

from .aggregate import (
    AVERAGE,
    SCHEMES,
    SweepCell,
    SweepResults,
    collect,
    render_report,
    report_tables,
    save_csv,
    to_csv,
    to_json_dict,
)
from .grid import SweepPoint, expand, pipeline_label, suite_contexts
from .spec import DEFAULT_NODES, SweepSpec
from .driver import SweepRun, plan_text, run_sweep

__all__ = [
    "AVERAGE",
    "DEFAULT_NODES",
    "SCHEMES",
    "SweepCell",
    "SweepPoint",
    "SweepResults",
    "SweepRun",
    "SweepSpec",
    "collect",
    "expand",
    "pipeline_label",
    "plan_text",
    "render_report",
    "report_tables",
    "run_sweep",
    "save_csv",
    "suite_contexts",
    "to_csv",
    "to_json_dict",
]
