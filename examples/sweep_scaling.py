"""A technology-scaling sweep, end to end (the `repro.sweep` subsystem).

The paper's scaling study (Table 2 / Figures 7-9) is a grid: every
benchmark at every technology node.  This example plans a sweep that
runs Table 2 and Figure 8 in one context, fills it as one engine run
against a fresh cache and prints the report, then verifies the sweep
contract: a rerun against the same cache simulates nothing and prints a
byte-identical report.

Everything here also works from the command line::

    repro-leakage sweep plan --sweep-name scaling-demo \
        --benchmarks gzip ammp mesa --scales 0.05 \
        --experiments table2 figure8 --save spec.json
    repro-leakage sweep run  --spec spec.json --jobs 2

Run:  python examples/sweep_scaling.py  [scale]
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import ExecutionEngine, ResultStore
from repro.sweep import SweepSpec, plan_text, run_sweep


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spec = SweepSpec(
        "scaling-demo",
        benchmarks=("gzip", "ammp", "mesa"),
        scales=(scale,),
        experiments=("table2", "figure8"),
    )

    print("=== plan ===")
    print(plan_text(spec))

    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
        cache = Path(tmp) / "cache"

        print(f"\n=== run against {cache} ===")
        first = run_sweep(spec, ExecutionEngine(jobs=2, store=ResultStore(cache)))
        print(first.report)
        print(first.telemetry.summary())

        # The contract: the cache is the only progress record, so a rerun
        # simulates nothing and reproduces the report byte for byte.
        rerun = run_sweep(spec, ExecutionEngine(jobs=2, store=ResultStore(cache)))
        assert rerun.telemetry.simulated == 0
        assert rerun.report == first.report, "rerun report differs"
        print(f"\nverified: the rerun simulated nothing "
              f"({rerun.telemetry.cached} cache hit(s)) and printed a "
              f"byte-identical report")


if __name__ == "__main__":
    main()
