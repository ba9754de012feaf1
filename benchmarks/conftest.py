"""Shared fixtures for the benchmark harness.

Every paper table/figure has one bench module.  Simulation-backed benches
share a session-scoped :class:`SuiteRunner`, so the six benchmarks are
simulated exactly once per session regardless of how many benches run.

Set ``REPRO_BENCH_SCALE`` (default 0.5) to trade fidelity for speed; the
calibration scale is 1.0.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

from repro.experiments.suite import SuiteRunner

#: Workload scale used by the benchmark harness.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture(scope="session")
def suite():
    """The shared, cached benchmark-suite runner."""
    return SuiteRunner(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def warm_suite(suite):
    """The suite with all six simulations already run."""
    suite.all_runs()
    return suite


def label_overhead_only(benchmark) -> None:
    """Mark a worker-fan-out bench as overhead-only on a small host.

    With two or fewer CPUs, two workers cannot run two simulations
    faster than one process runs them back to back: such a bench then
    prices worker start-up and dispatch, not a parallel speed-up.
    """
    benchmark.extra_info["overhead_only"] = (os.cpu_count() or 1) <= 2
    benchmark.extra_info["cpus"] = os.cpu_count()


def report(result) -> None:
    """Print an experiment's tables (the paper's rows/series)."""
    print()
    print(result.render())
