"""The paper's Figure 2 example: a two-level loop, interval by interval.

The paper motivates its interval analysis with a human-resources loop::

    for (total = 0, i = 0; i < 12; i++) {
        for (sum = 0, j = low(i); j < high(i); j++)
            sum += a[j];
        sum *= i;
        add: total += sum;             // <- the studied instruction
    }

The interval between consecutive executions of the ``add`` instruction is
the inner-loop trip count: short trips leave its cache line active,
medium trips favour drowsy mode, long trips favour sleep.  This example
builds that loop three times with different inner ranges and shows the
optimal mode flipping exactly as §3.1 describes.

Run:  python examples/figure2_loop.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import IntervalKind, ModeEnergyModel, OptHybrid, inflection_points
from repro.core.policy import CODE_MODES
from repro.cpu import TraceChunk
from repro.power import paper_nodes
from repro.prefetch import annotate_workload_trace


def two_level_loop(inner_trips: int, outer_trips: int = 12) -> TraceChunk:
    """Emit the Figure 2 loop: the `add` line is touched once per outer
    iteration, separated by ``inner_trips`` inner-loop instructions."""
    inner_body = np.arange(8, dtype=np.int64) * 4          # inner loop: 8 instr
    add_block = 0x8000 + np.arange(16, dtype=np.int64) * 4  # outer tail w/ `add`
    pieces = []
    for _ in range(outer_trips):
        pieces.append(np.tile(inner_body, inner_trips))
        pieces.append(add_block)
    return TraceChunk(np.concatenate(pieces))


def main() -> None:
    model = ModeEnergyModel(paper_nodes()[70])
    points = inflection_points(model)
    policy = OptHybrid(model)
    print(f"inflection points: a={points.active_drowsy}, "
          f"b={points.drowsy_sleep_cycles} cycles\n")

    print(f"{'inner trips':>12s} {'add-line interval':>18s} {'optimal mode':>13s}")
    for inner_trips in (2, 40, 400, 4000, 40_000):
        result = annotate_workload_trace(two_level_loop(inner_trips)).result
        # The `add` line is the frame holding block 0x8000 >> 6 = 0x200.
        live = result.l1i_intervals.of_kind(IntervalKind.NORMAL)
        # Its re-access interval ~= inner loop duration; take the median
        # of the population's larger intervals as the add-line interval.
        lengths = np.repeat(live.lengths, live.counts)  # rows sort by length
        add_interval = int(np.median(lengths[-11:]))  # 11 outer re-accesses
        mode = CODE_MODES[int(policy.modes([add_interval])[0])]
        print(f"{inner_trips:>12,d} {add_interval:>15,d} cy {mode.value:>13s}")

    print("\nTight inner ranges sit at the active/drowsy boundary; medium"
          "\nranges are drowsy-optimal; long ranges flip to sleep —"
          "\nexactly the mode progression Figure 2 motivates.")


if __name__ == "__main__":
    main()
