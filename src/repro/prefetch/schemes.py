"""Prefetch-guided leakage policies (the paper's §5.2, Table 3).

With prefetchability in hand, the paper builds two implementable
approximations of the oracle:

* **Prefetch-A** (performance-first): prefetchable intervals get the
  optimal low-power mode for their length (drowsy in ``(a, b]``, sleep
  above ``b``) — the prefetch hides the exit penalty, so performance is
  untouched.  Non-prefetchable intervals stay fully active.
* **Prefetch-B** (power-first): prefetchable intervals as in A;
  non-prefetchable intervals are put into drowsy mode, accepting the
  small wake-up stall (``d3`` cycles) the drowsy literature shows to be
  tolerable.

The two differ only in what a non-prefetchable interval does, so one
:class:`PrefetchGuidedPolicy` states both, and the continuum between
them that the paper leaves as future work: a non-prefetchable interval
goes drowsy when it is longer than ``np_threshold`` (``inf`` for A, the
active-drowsy point ``a`` for B).  Its length cuts differ by prefetch
class, so the standard Figure 5 evaluation prices it, and
:meth:`PrefetchGuidedPolicy.price` reports the wake-up stalls it accepts
as a performance-cost estimate.  Every function here takes an
:class:`~repro.core.intervals.IntervalPopulation`, as
:class:`~repro.prefetch.analysis.AnnotatingSimulator` returns one per
cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.intervals import IntervalPopulation
from ..core.modes import Mode
from ..core.policy import Policy
from ..core.savings import SavingsReport, evaluate_policy
from ..errors import PolicyError


class PrefetchGuidedPolicy(Policy):
    """Mode assignment driven by each interval's prefetchability.

    Parameters
    ----------
    model:
        The bound energy model (supplies the inflection points).
    np_threshold:
        Non-prefetchable intervals longer than this go drowsy; shorter
        ones stay active.  ``math.inf`` is Prefetch-A, the active-drowsy
        point ``a`` is Prefetch-B, and anything between is
        ``Prefetch-T(x)``: short busy intervals, whose wake-up stalls
        recur most often, stay active.

    Pricing a population reads the prefetchable bit of its pricing
    classes; :meth:`modes` and :meth:`energies` take per-length flags as
    their ``prefetchable`` argument.
    """

    def __init__(
        self,
        model: ModeEnergyModel,
        np_threshold: float,
        name: str | None = None,
    ) -> None:
        super().__init__(model, name)
        a = self.points.active_drowsy
        if np_threshold < a:
            raise PolicyError(
                f"NP drowsy threshold {np_threshold!r} is below the "
                f"active-drowsy point {a}"
            )
        self.np_threshold = float(np_threshold)
        if name is None:
            if math.isinf(self.np_threshold):
                self.name = "Prefetch-A"
            elif self.np_threshold == a:
                self.name = "Prefetch-B"
            else:
                self.name = f"Prefetch-T({np_threshold:g})"

    def cuts(self, prefetchable: bool) -> Tuple[Tuple[Mode, float, bool], ...]:
        if prefetchable:
            return (
                (Mode.DROWSY, self.points.active_drowsy, False),
                (Mode.SLEEP, self.points.drowsy_sleep, False),
            )
        return ((Mode.DROWSY, self.np_threshold, False),)

    def wakeup_stall_cycles(
        self,
        lengths: np.ndarray,
        prefetchable: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> int:
        """Estimated stall cycles from unhidden drowsy wake-ups.

        Prefetchable intervals exit their mode behind a prefetch (no
        stall); non-prefetchable drowsy intervals each pay the ``d3``
        ramp on their closing access.  Prefetch-A never stalls.  With
        ``counts``, entry ``i`` stands for ``counts[i]`` intervals.  This
        is the per-length oracle; :meth:`price` reads the same count off
        its population's pricing.
        """
        unhidden = ~np.asarray(prefetchable, dtype=bool) & (
            np.asarray(lengths) > self.np_threshold
        )
        stalled = unhidden.sum() if counts is None else counts[unhidden].sum()
        return int(stalled) * self.model.durations.d3

    def price(
        self, population: IntervalPopulation, dead_aware: bool = False
    ) -> PrefetchSchemeReport:
        """Savings and wake-up stall cycles over one population.

        The stalled intervals are the non-prefetchable drowsy band, read
        off the same pricing as the savings.
        """
        savings = evaluate_policy(self, population, dead_aware=dead_aware)
        drowsy = savings.breakdown.get(Mode.DROWSY)
        stalled = drowsy.interval_count - drowsy.prefetchable_count if drowsy else 0
        return PrefetchSchemeReport(
            savings=savings,
            wakeup_stall_cycles=stalled * self.model.durations.d3,
            total_cycles=population.total_cycles,
        )


@dataclass(frozen=True)
class PrefetchSchemeReport:
    """Savings plus the performance-cost estimate of one scheme."""

    savings: SavingsReport
    wakeup_stall_cycles: int
    total_cycles: int

    @property
    def stall_overhead(self) -> float:
        """Wake-up stalls as a fraction of all interval cycles."""
        return (
            self.wakeup_stall_cycles / self.total_cycles if self.total_cycles else 0.0
        )


@dataclass(frozen=True)
class PrefetchabilityRow:
    """One Figure 9 range: interval counts by prefetch class."""

    label: str
    total: int
    nextline: int
    stride: int

    @property
    def non_prefetchable(self) -> int:
        """Intervals neither scheme can cover."""
        return self.total - self.nextline - self.stride


def prefetchability_breakdown(
    population: IntervalPopulation,
    model: ModeEnergyModel,
) -> List[PrefetchabilityRow]:
    """The Figure 9 histogram: ranges (0, a], (a, b], (b, inf).

    Counts are interval counts (the paper's prefetchability is "the
    number of prefetchable intervals over the total number of
    intervals"), summed over the population's rows.
    """
    from ..core.inflection import solve_sleep_drowsy_point

    lengths, counts = population.lengths, population.counts
    a = model.durations.drowsy_overhead
    b = solve_sleep_drowsy_point(model)
    ranges = [
        (f"(0, {a}]", lengths <= a),
        (f"({a}, {b:.0f}]", (lengths > a) & (lengths <= b)),
        (f"({b:.0f}, +inf)", lengths > b),
    ]
    nextline, stride = population.nextline, population.stride
    return [
        PrefetchabilityRow(
            label=label,
            total=int(counts[mask].sum()),
            nextline=int(counts[mask & nextline].sum()),
            stride=int(counts[mask & stride].sum()),
        )
        for label, mask in ranges
    ]


def prefetchability_summary(population: IntervalPopulation) -> Dict[str, float]:
    """Total P-NL / P-stride fractions (the Figure 9 headline numbers)."""
    total = len(population)
    if not total:
        return {"nextline": 0.0, "stride": 0.0, "total": 0.0}
    counts = population.counts
    nl = float(counts[population.nextline].sum()) / total
    st = float(counts[population.stride].sum()) / total
    return {"nextline": nl, "stride": st, "total": nl + st}
