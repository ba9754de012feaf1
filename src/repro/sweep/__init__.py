"""Parameter sweeps: the registered experiments over a grid, as one engine run.

The paper's scaling study is a grid — every benchmark at every
technology node, per cache scale and pipeline.  A sweep is one
:class:`~repro.experiments.suite.SuiteRunner` per (scale, pipeline),
all filled by a single engine run; each context then renders the
spec's experiments exactly as ``repro-leakage run`` does, so the
default sweep's section per context *is* Table 2.

* :mod:`~repro.sweep.spec` — a declarative, JSON-round-trippable
  :class:`SweepSpec`, validated against known names up front.
* :mod:`~repro.sweep.driver` — the ``plan`` / ``run`` verbs the CLI
  wires up.

Quickstart::

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec("demo", benchmarks=("gzip", "ammp"), scales=(0.05,))
    print(run_sweep(spec).report)   # Table 2 at scale 0.05
"""

from .spec import SweepSpec
from .driver import SweepRun, pipeline_label, plan_text, run_sweep, sweep_suites

__all__ = [
    "SweepRun",
    "SweepSpec",
    "pipeline_label",
    "plan_text",
    "run_sweep",
    "sweep_suites",
]
