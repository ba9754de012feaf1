"""What-if technology study with the generalized model (the paper's §3.3).

The paper's parameterized model exists precisely so new technologies can
be plugged in as they appear.  This example defines a hypothetical 45 nm
node beyond the paper's range, derives its re-fetch energy from the
physical CACTI/HotLeakage-style models (scaled against the calibrated
70 nm operating point), and extends Table 2 by one column.

Run:  python examples/techscaling_study.py  [scale]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (
    ModeEnergyModel,
    OptDrowsy,
    OptHybrid,
    OptSleep,
    evaluate_policy,
    inflection_points,
)
from repro.power import (
    DynamicEnergyModel,
    LeakageModel,
    TechnologyNode,
    paper_nodes,
)
from repro.prefetch import annotate_workload_trace
from repro.units import joules_to_leakage_cycles
from repro.workloads import make_benchmark


def hypothetical_45nm() -> TechnologyNode:
    """A 45 nm node, physically extrapolated from the calibrated 70 nm one.

    Leakage per line comes from the subthreshold model; dynamic re-fetch
    energy from the cache-energy model; the 70 nm node anchors the
    absolute calibration (ratio transfer), as DESIGN.md §3.2 prescribes.
    """
    node45 = TechnologyNode(
        feature_nm=45, vdd=0.8, vth=0.16, vdd_drowsy=0.4, name="45nm"
    )
    node70 = paper_nodes()[70]

    def refetch_cycles(node: TechnologyNode) -> float:
        leak_w = LeakageModel(node).line_active_power()
        refetch_j = DynamicEnergyModel(node).refetch_energy()
        return joules_to_leakage_cycles(refetch_j, leak_w, node.frequency_hz)

    # Transfer the 70 nm calibration: scale the physical prediction by the
    # ratio between the calibrated and physical values at 70 nm.
    anchor = node70.refetch_energy_cycles / refetch_cycles(node70)
    return node45.with_refetch_energy(anchor * refetch_cycles(node45))


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    nodes = dict(sorted(paper_nodes().items()))
    nodes[45] = hypothetical_45nm()

    print("node   a    b (cycles)")
    for nm, node in sorted(nodes.items()):
        points = inflection_points(ModeEnergyModel(node))
        print(f"{node.name:>5s}  {points.active_drowsy}   {points.drowsy_sleep_cycles}")

    workload = make_benchmark("mesa", scale=scale)
    print(f"\nsimulating '{workload.name}' "
          f"({workload.total_instructions:,} instructions) ...")
    result = annotate_workload_trace(workload.chunks()).result
    intervals = result.l1d_intervals.as_normal()

    print("\nD-cache optimal savings (%) — Table 2 extended to 45 nm:")
    print("scheme      " + "".join(f"{nodes[nm].name:>8s}" for nm in sorted(nodes)))
    for scheme, factory in (
        ("OPT-Drowsy", lambda m: OptDrowsy(m)),
        ("OPT-Sleep", lambda m: OptSleep(m, name="OPT-Sleep")),
        ("OPT-Hybrid", lambda m: OptHybrid(m)),
    ):
        cells = []
        for nm in sorted(nodes):
            model = ModeEnergyModel(nodes[nm])
            report = evaluate_policy(factory(model), intervals)
            cells.append(f"{100 * report.saving_fraction:8.1f}")
        print(f"{scheme:<12s}" + "".join(cells))

    print("\nThe 45 nm column continues the trend: a still-smaller "
          "sleep-drowsy point\nand still-larger optimal savings — "
          "the §4.5 extrapolation made concrete.")


if __name__ == "__main__":
    main()
