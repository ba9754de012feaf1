"""Sharded parameter sweeps over one shared cache, with one merged report.

The paper's headline results are grids — leakage-mode energy across
(benchmark × cache scale × pipeline × technology node), e.g. the
180→70 nm scaling study of Figures 7-9.  This package makes such a grid
one command (or one command per host):

* :mod:`~repro.sweep.spec` — a declarative, JSON-round-trippable
  :class:`SweepSpec`, validated against known names up front.
* :mod:`~repro.sweep.grid` — deterministic expansion into ordered
  simulation points (reusing the single-run job construction, so cache
  entries are shared) plus per-point analysis tasks.
* :mod:`~repro.sweep.shard` — stable content-hash shard assignment
  (``--shard-index/--shard-count``): disjoint slices whose union is the
  grid, independent of host or expansion order.
* :mod:`~repro.sweep.coordinate` — the shared sweep directory
  (``<cache>/sweeps/<name>/``): spec pinning, one manifest per shard,
  global status read from the result cache, atomic merged manifest.
* :mod:`~repro.sweep.aggregate` — per-point results → the sweep report
  (per-node/per-benchmark savings tables, CSV + JSON).
* :mod:`~repro.sweep.driver` — the ``plan`` / ``run`` / ``status`` /
  ``merge`` verbs the CLI wires up.

Quickstart::

    from repro.sweep import SweepSpec, run_shard, merge

    spec = SweepSpec("demo", benchmarks=("gzip", "ammp"), scales=(0.05,))
    run_shard(spec)                  # one host: the whole grid
    print(merge(spec).report)        # the technology-scaling tables
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
from .coordinate import (
    SweepCoordinator,
    collect_sharing_stats,
    parse_shard_name,
)
from .grid import (
    AnalysisTask,
    SweepPoint,
    expand,
    expand_analysis,
    grid_keys,
    pipeline_label,
    suite_contexts,
    suite_for,
)
from .shard import ShardAssignment, shard_of, shard_points
from .spec import DEFAULT_NODES, SweepSpec
from .driver import (
    MergeOutcome,
    ShardRun,
    merge,
    plan_text,
    run_shard,
    shard_run_summary,
    status_text,
)

__all__ = [
    "AVERAGE",
    "AnalysisTask",
    "DEFAULT_NODES",
    "MergeOutcome",
    "SCHEMES",
    "ShardAssignment",
    "ShardRun",
    "SweepCell",
    "SweepCoordinator",
    "SweepPoint",
    "SweepResults",
    "SweepSpec",
    "collect",
    "collect_sharing_stats",
    "expand",
    "expand_analysis",
    "grid_keys",
    "merge",
    "parse_shard_name",
    "pipeline_label",
    "plan_text",
    "render_report",
    "report_tables",
    "run_shard",
    "save_csv",
    "shard_of",
    "shard_points",
    "shard_run_summary",
    "status_text",
    "suite_contexts",
    "suite_for",
    "to_csv",
    "to_json_dict",
]
