"""SimPoint sampling: estimate the limits from representative windows.

The paper keeps simulation time reasonable by simulating only SimPoint-
selected windows (§4.1).  This example profiles a benchmark into basic-
block vectors, clusters the windows, simulates *only* the representative
windows, and compares the weighted leakage-savings estimate against the
full-run ground truth.

Run:  python examples/simpoint_sampling.py  [benchmark] [scale]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import ModeEnergyModel, OptHybrid, evaluate_policy
from repro.power import paper_nodes
from repro.prefetch import annotate_workload_trace
from repro.simpoint import estimate_weighted, profile_trace, select_simpoints, window_slice
from repro.workloads import make_benchmark


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.4
    window_instructions = 50_000
    model = ModeEnergyModel(paper_nodes()[70])

    # Ground truth: the full run.
    workload = make_benchmark(name, scale=scale)
    print(f"full run: {workload.total_instructions:,} instructions of '{name}'")
    full = annotate_workload_trace(workload.chunks()).result
    truth = evaluate_policy(
        OptHybrid(model), full.l1i_intervals.as_normal()
    ).saving_fraction
    print(f"  I-cache OPT-Hybrid (ground truth): {100 * truth:.2f}%")

    # SimPoint: profile, cluster, select.
    chunks = list(make_benchmark(name, scale=scale).chunks())
    profile = profile_trace(chunks, window_instructions=window_instructions)
    selection = select_simpoints(profile, max_k=8)
    print(f"\nSimPoint: {profile.n_windows} windows of "
          f"{window_instructions:,} instructions -> {selection.k} simulation points")
    for window, weight in zip(selection.windows, selection.weights):
        print(f"  window {window:>3d}  weight {weight:.3f}")

    # Simulate only the representatives; combine with the weights.
    def window_saving(window: int) -> float:
        piece = window_slice(chunks, window, window_instructions)
        result = annotate_workload_trace(piece).result
        report = evaluate_policy(OptHybrid(model), result.l1i_intervals.as_normal())
        return report.saving_fraction

    estimate = estimate_weighted(selection, window_saving)
    simulated = selection.k * window_instructions
    print(f"\nweighted estimate: {100 * estimate:.2f}% "
          f"(error {100 * abs(estimate - truth):.2f} points)")
    print(f"simulated only {simulated:,} of {workload.total_instructions:,} "
          f"instructions ({100 * simulated / workload.total_instructions:.1f}%)")


if __name__ == "__main__":
    main()
