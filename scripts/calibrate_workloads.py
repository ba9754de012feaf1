"""Calibration harness: measure interval masses and scheme savings per benchmark.

Usage::

    python scripts/calibrate_workloads.py [scale]    # scale defaults to 0.3
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import (DecaySleep, ModeEnergyModel, OptDrowsy, OptHybrid,
                        OptSleep, evaluate_policy)
from repro.experiments.paper_values import FIGURE8_AVERAGES, TABLE2
from repro.power import paper_nodes
from repro.prefetch import annotate_workload_trace
from repro.workloads import paper_suite


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    m = ModeEnergyModel(paper_nodes()[70])
    policies = [OptDrowsy(m, name="OPT-Drowsy"), DecaySleep(m, 10_000),
                OptSleep(m, 10_000), OptSleep(m, name="OPT-Sleep"), OptHybrid(m)]
    rows = {"I": [], "D": []}
    for name, wl in paper_suite(scale).items():
        t0 = time.time()
        res = annotate_workload_trace(wl.chunks()).result
        for label, ivs in (("I", res.l1i_intervals), ("D", res.l1d_intervals)):
            ivs = ivs.as_normal()
            mass = ivs.cycle_mass_by_class([6, 1057, 10000])
            savs = [evaluate_policy(p, ivs).saving_fraction for p in policies]
            rows[label].append(savs)
            print(f"{name:8s} {label} mass={['%.3f'%v for v in mass]} "
                  f"drowsy={savs[0]:.3f} sleep10K={savs[1]:.3f} optsleep10K={savs[2]:.3f} "
                  f"optsleep={savs[3]:.3f} hybrid={savs[4]:.3f}")
        print(f"   ({res.instructions} instr, ipc={res.ipc:.2f}, {time.time()-t0:.1f}s)")
    for label in ("I", "D"):
        avg = np.mean(rows[label], axis=0)
        print(f"AVG {label}: drowsy={avg[0]:.3f} sleep10K={avg[1]:.3f} "
              f"optsleep10K={avg[2]:.3f} optsleep={avg[3]:.3f} hybrid={avg[4]:.3f}")
    for label, cache in (("I", "icache"), ("D", "dcache")):
        opt, avg = TABLE2[cache][70], FIGURE8_AVERAGES[cache]
        print(f"paper  {label}: drowsy={opt['OPT-Drowsy']:.3f} "
              f"sleep10K={avg['Sleep(10K)']:.3f} "
              f"optsleep10K={avg['OPT-Sleep(10K)']:.3f} "
              f"optsleep={opt['OPT-Sleep']:.3f} hybrid={opt['OPT-Hybrid']:.3f}")


if __name__ == "__main__":
    main()
