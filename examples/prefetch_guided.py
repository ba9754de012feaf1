"""Prefetch-guided leakage management (the paper's §5).

Simulates a data-heavy benchmark (the simulator flags every interval's
prefetchability as it closes), prints the Figure 9 prefetchability
breakdown, and compares the implementable Prefetch-A / Prefetch-B schemes
against the oracle hybrid and the cache-decay baseline — including
Prefetch-B's (tiny) wake-up stall cost.

Run:  python examples/prefetch_guided.py  [benchmark] [scale]
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import DecaySleep, ModeEnergyModel, OptHybrid, evaluate_policy
from repro.power import paper_nodes
from repro.prefetch import (
    PrefetchGuidedPolicy,
    annotate_workload_trace,
    prefetchability_breakdown,
    prefetchability_summary,
)
from repro.workloads import make_benchmark


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "ammp"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25
    model = ModeEnergyModel(paper_nodes()[70])
    prefetch_a = PrefetchGuidedPolicy(model, math.inf)
    prefetch_b = PrefetchGuidedPolicy(model, model.drowsy_min_length)

    workload = make_benchmark(name, scale=scale)
    print(f"annotating {workload.total_instructions:,} instructions of "
          f"'{name}' ...\n")
    annotated = annotate_workload_trace(workload.chunks())

    for cache in ("l1i", "l1d"):
        view = annotated.annotated_for(cache).as_normal()
        summary = prefetchability_summary(view)
        print(f"=== {cache.upper()} ===")
        print(f"prefetchability: next-line {100 * summary['nextline']:.1f}%, "
              f"stride {100 * summary['stride']:.1f}% of intervals")
        for row in prefetchability_breakdown(view, model):
            print(f"  {row.label:>18s}: {row.total:>8d} intervals  "
                  f"NL={row.nextline:<7d} stride={row.stride:<6d} "
                  f"NP={row.non_prefetchable}")

        decay = evaluate_policy(DecaySleep(model, 10_000), view)
        hybrid = evaluate_policy(OptHybrid(model), view)
        a = prefetch_a.price(view)
        b = prefetch_b.price(view)
        print(f"  Sleep(10K) decay : {100 * decay.saving_fraction:5.1f}%")
        print(f"  Prefetch-A       : {100 * a.savings.saving_fraction:5.1f}%  "
              f"(no stalls)")
        print(f"  Prefetch-B       : {100 * b.savings.saving_fraction:5.1f}%  "
              f"(wake-up stalls: {100 * b.stall_overhead:.4f}% of cycles)")
        print(f"  OPT-Hybrid limit : {100 * hybrid.saving_fraction:5.1f}%")
        gap = hybrid.saving_fraction - b.savings.saving_fraction
        print(f"  -> Prefetch-B is within {100 * gap:.1f}% of the oracle\n")


if __name__ == "__main__":
    main()
