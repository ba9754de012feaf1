"""The result of one trace simulation.

:class:`SimulationResult` holds what a limit-study experiment needs from
a run:

* the per-frame access-interval populations of the L1 instruction and
  data caches (what the limit analysis consumes),
* hierarchy statistics, cycle count and IPC.

The simulator that produces it is
:class:`~repro.prefetch.analysis.AnnotatingSimulator`, which also flags
every interval's prefetchability; the result store pickles this class,
so it stays at this module path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..cache.stats import HierarchyStats
from ..core.intervals import IntervalPopulation

if TYPE_CHECKING:
    from ..cache.kernel import SimulationProfile


@dataclass(frozen=True)
class SimulationResult:
    """Everything a limit-study experiment needs from one run.

    The interval fields hold each L1's :class:`IntervalPopulation`:
    (length, class, count) rows, never raw intervals.
    """

    cycles: int
    instructions: int
    stall_cycles: int
    l1i_intervals: IntervalPopulation
    l1d_intervals: IntervalPopulation
    stats: HierarchyStats
    #: Where the run's accesses and wall time went.  Excluded from
    #: equality: a batched and a scalar run of the same trace compare
    #: equal on every simulated quantity.
    profile: Optional[SimulationProfile] = field(
        default=None, compare=False, repr=False
    )

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0
