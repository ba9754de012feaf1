"""SimPoint sampling: estimate the limits from representative windows.

The paper keeps simulation time reasonable by simulating only SimPoint-
selected windows (§4.1).  This example records a benchmark to a trace
file, profiles it into basic-block vectors, clusters the windows,
simulates *only* the representative windows through the execution
engine, and compares the weighted leakage-savings estimate against the
full-run ground truth — the same pipeline as ``trace simpoints``.

Run:  python examples/simpoint_sampling.py  [benchmark] [scale]
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine import ExecutionEngine, NullStore
from repro.traces import record_benchmark
from repro.traces.estimate import estimate_savings, exact_savings, plan_simpoints


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4
    window_instructions = 50_000
    node = 70
    engine = ExecutionEngine(jobs=1, store=NullStore())

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / f"{name}.rtr"
        total = record_benchmark(name, path, scale=scale).instructions

        # Ground truth: the full run.
        print(f"full run: {total:,} instructions of '{name}'")
        exact = exact_savings(path, nodes=(node,), engine=engine)
        truth = exact.saving("icache", "OPT-Hybrid", node)
        print(f"  I-cache OPT-Hybrid (ground truth): {100 * truth:.2f}%")

        # SimPoint: profile, cluster, select.
        plan = plan_simpoints(
            path, window_instructions=window_instructions, max_k=8
        )
        print(f"\nSimPoint: {plan.n_windows} windows of "
              f"{window_instructions:,} instructions -> "
              f"{len(plan.windows)} simulation points")
        for window, weight in zip(plan.windows, plan.weights):
            print(f"  window {window:>3d}  weight {weight:.3f}")

        # Simulate only the representatives; combine with the weights.
        estimated = estimate_savings(plan, nodes=(node,), engine=engine)

    estimate = estimated.saving("icache", "OPT-Hybrid", node)
    simulated = len(plan.windows) * window_instructions
    print(f"\nweighted estimate: {100 * estimate:.2f}% "
          f"(error {100 * abs(estimate - truth):.2f} points)")
    print(f"simulated only {simulated:,} of {total:,} "
          f"instructions ({100 * simulated / total:.1f}%)")


if __name__ == "__main__":
    main()
