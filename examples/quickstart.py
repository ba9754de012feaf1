"""Quickstart: the oracle leakage limits on one benchmark.

Builds the gzip-like workload, simulates it through the Alpha-21264-like
hierarchy, and evaluates the paper's four oracle schemes on both L1
caches at the 70 nm node — a miniature of Figure 8.

Run:  python examples/quickstart.py  [scale]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import ModeEnergyModel, evaluate_policy, inflection_points, standard_policies
from repro.power import paper_nodes
from repro.prefetch import annotate_workload_trace
from repro.workloads import make_gzip


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25

    # 1. A technology node: 70 nm, calibrated to the paper's Table 1.
    node = paper_nodes()[70]
    model = ModeEnergyModel(node)
    points = inflection_points(model)
    print(f"technology: {node.name}  Vdd={node.vdd} V  Vth={node.vth} V")
    print(
        f"inflection points: active-drowsy a={points.active_drowsy} cycles, "
        f"drowsy-sleep b={points.drowsy_sleep_cycles} cycles"
    )

    # 2. A workload and a full trace-driven simulation.
    workload = make_gzip(scale=scale)
    print(f"\nsimulating {workload.total_instructions:,} instructions of "
          f"'{workload.name}' ...")
    result = annotate_workload_trace(workload.chunks()).result
    print(f"  {result.cycles:,} cycles, IPC {result.ipc:.2f}")
    for level in ("L1I", "L1D", "L2"):
        print("  " + result.stats.level(level).describe())

    # 3. The limit study: classify every access interval and price it.
    for label, intervals in (
        ("instruction cache", result.l1i_intervals),
        ("data cache", result.l1d_intervals),
    ):
        # The simulator returns (length, class) rows; every policy prices
        # the same rows, here with the live/dead distinction dropped.
        intervals = intervals.as_normal()
        print(f"\n{label}: {len(intervals):,} access intervals")
        for policy in standard_policies(model):
            report = evaluate_policy(policy, intervals)
            print(f"  {policy.name:>15s}: saves {100 * report.saving_fraction:5.1f}% "
                  f"of leakage energy")


if __name__ == "__main__":
    main()
