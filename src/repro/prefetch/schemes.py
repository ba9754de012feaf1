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

Both are expressed as :class:`~repro.core.policy.Policy` subclasses
whose length cuts differ by prefetch class, so the standard Figure 5
evaluation prices them, and the wake-up stalls B accepts are reported
separately as a performance-cost estimate.  Every
function here takes an :class:`~repro.core.intervals.IntervalPopulation`,
as :class:`~repro.prefetch.analysis.AnnotatingSimulator` returns one per
cache.
"""

from __future__ import annotations

import copy
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
    power_first:
        False = Prefetch-A (non-prefetchable stays active);
        True = Prefetch-B (non-prefetchable goes drowsy when feasible).

    Pricing a population reads the prefetchable bit of its pricing
    classes; :meth:`modes` and :meth:`energies` read the per-length flags
    :meth:`with_flags` binds, e.g. per-interval flags for an oracle.
    """

    #: Prefetchability aligned with the lengths :meth:`modes` is asked
    #: about; unset on a policy that is not bound to any rows yet.
    prefetchable: np.ndarray | None = None

    def __init__(
        self,
        model: ModeEnergyModel,
        power_first: bool,
        name: str | None = None,
    ) -> None:
        super().__init__(model, name)
        self.power_first = bool(power_first)
        #: Non-prefetchable intervals longer than this go drowsy.
        self.np_threshold = (
            float(self.points.active_drowsy) if power_first else math.inf
        )
        if name is None:
            self.name = "Prefetch-B" if power_first else "Prefetch-A"

    def with_flags(self, prefetchable: np.ndarray) -> "PrefetchGuidedPolicy":
        """A copy whose :meth:`modes` read ``prefetchable``."""
        bound = copy.copy(self)
        bound.prefetchable = np.asarray(prefetchable, dtype=bool)
        return bound

    def cuts(self, prefetchable: bool) -> Tuple[Tuple[Mode, float, bool], ...]:
        if prefetchable:
            return (
                (Mode.DROWSY, self.points.active_drowsy, False),
                (Mode.SLEEP, self.points.drowsy_sleep, False),
            )
        return ((Mode.DROWSY, self.np_threshold, False),)

    def _flag_rows(self, lengths: np.ndarray):
        mask = self.prefetchable
        if mask is None or mask.shape != lengths.shape:
            raise PolicyError(
                f"policy {self.name!r} needs prefetch flags aligned with the "
                f"{lengths.shape[0]} length(s) it assigns; price it on a "
                "population or bind flags with with_flags()"
            )
        return ((False, ~mask), (True, mask))

    def wakeup_stall_cycles(
        self, lengths: np.ndarray, counts: np.ndarray | None = None
    ) -> int:
        """Estimated stall cycles from unhidden drowsy wake-ups.

        Prefetchable intervals exit their mode behind a prefetch (no
        stall); non-prefetchable drowsy intervals each pay the ``d3``
        ramp on their closing access.  Prefetch-A never stalls.  With
        ``counts``, entry ``i`` stands for ``counts[i]`` intervals.  This
        reads the bound flags per length; :meth:`price` reads the same
        count off its population's pricing.
        """
        lengths = np.asarray(lengths)
        unhidden = (~self.prefetchable) & (lengths > self.np_threshold)
        stalled = unhidden.sum() if counts is None else counts[unhidden].sum()
        return int(stalled) * self.model.durations.d3

    def price(
        self, population: IntervalPopulation, dead_aware: bool = False
    ) -> Tuple[SavingsReport, int]:
        """Savings and wake-up stall cycles over one population.

        The stalled intervals are the non-prefetchable drowsy band, read
        off the same pricing as the savings.
        """
        savings = evaluate_policy(self, population, dead_aware=dead_aware)
        drowsy = savings.breakdown.get(Mode.DROWSY)
        stalled = drowsy.interval_count - drowsy.prefetchable_count if drowsy else 0
        return savings, stalled * self.model.durations.d3


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


def evaluate_prefetch_scheme(
    population: IntervalPopulation,
    model: ModeEnergyModel,
    power_first: bool,
    dead_aware: bool = False,
) -> PrefetchSchemeReport:
    """Price Prefetch-A (``power_first=False``) or Prefetch-B over a run."""
    policy = PrefetchGuidedPolicy(model, power_first)
    savings, stalls = policy.price(population, dead_aware=dead_aware)
    return PrefetchSchemeReport(
        savings=savings,
        wakeup_stall_cycles=stalls,
        total_cycles=population.total_cycles,
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


def prefetchability_summary(
    population: IntervalPopulation, model: ModeEnergyModel
) -> Dict[str, float]:
    """Total P-NL / P-stride fractions (the Figure 9 headline numbers)."""
    total = len(population)
    if not total:
        return {"nextline": 0.0, "stride": 0.0, "total": 0.0}
    counts = population.counts
    nl = float(counts[population.nextline].sum()) / total
    st = float(counts[population.stride].sum()) / total
    return {"nextline": nl, "stride": st, "total": nl + st}


class PrefetchTradeoff(PrefetchGuidedPolicy):
    """The A-to-B continuum the paper leaves as future work (§5.2 end).

    Prefetch-A and Prefetch-B differ only in what happens to
    non-prefetchable intervals: A keeps them active (no stalls), B puts
    them all into drowsy mode (maximum savings, one ``d3`` stall each).
    The best design point "is somewhere in between": this policy drowses
    a non-prefetchable interval only when it is longer than
    ``np_threshold`` cycles, so short busy intervals — the ones whose
    wake-up stalls recur most often — stay active.

    ``np_threshold = a`` reproduces Prefetch-B; ``np_threshold = inf``
    reproduces Prefetch-A.
    """

    def __init__(
        self,
        model: ModeEnergyModel,
        np_threshold: float,
        name: str | None = None,
    ) -> None:
        super().__init__(model, power_first=True, name=name)
        if np_threshold < self.points.active_drowsy:
            raise PolicyError(
                f"NP drowsy threshold {np_threshold!r} is below the "
                f"active-drowsy point {self.points.active_drowsy}"
            )
        self.np_threshold = float(np_threshold)
        if name is None:
            self.name = f"Prefetch-T({np_threshold:g})"


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the Prefetch-A..B power/performance frontier."""

    np_threshold: float
    saving_fraction: float
    stall_overhead: float


def prefetch_tradeoff_curve(
    population: IntervalPopulation,
    model: ModeEnergyModel,
    thresholds: "List[float]",
) -> "List[TradeoffPoint]":
    """Sweep the NP drowsy threshold from B-like to A-like.

    Returns one :class:`TradeoffPoint` per threshold: as the threshold
    rises, wake-up stalls fall monotonically and so do the savings — the
    power/performance frontier the paper's §5.2 sketches.
    """
    points = []
    total = population.total_cycles
    for threshold in thresholds:
        policy = PrefetchTradeoff(model, threshold)
        report, stalls = policy.price(population)
        points.append(
            TradeoffPoint(
                np_threshold=float(threshold),
                saving_fraction=report.saving_fraction,
                stall_overhead=stalls / total if total else 0.0,
            )
        )
    return points
