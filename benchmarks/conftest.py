"""Shared set-up for the benchmark harness.

The benches time the substrate (kernels, traces, worker dispatch); the
paper's numbers come from ``repro-leakage run all`` and are checked by
the tier-1 tests.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def label_overhead_only(benchmark) -> None:
    """Mark a worker-fan-out bench as overhead-only on a small host.

    With two or fewer CPUs, two workers cannot run two simulations
    faster than one process runs them back to back: such a bench then
    prices worker start-up and dispatch, not a parallel speed-up.
    """
    benchmark.extra_info["overhead_only"] = (os.cpu_count() or 1) <= 2
    benchmark.extra_info["cpus"] = os.cpu_count()
