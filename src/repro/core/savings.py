"""The optimal leakage-saving accumulation (the paper's Figure 5).

Given an interval population and a policy, total leakage saving is the
sum of per-interval savings versus the all-active baseline::

    saving = 1 - (policy energy + bookkeeping overhead) / baseline energy

where ``baseline = p_active * total interval cycles`` and, following the
paper's methodology, the dynamic energy of every induced miss is *removed
from* the savings (our sleep energies already include it).  A
:class:`SavingsReport` additionally breaks the result down by mode so the
experiments can explain *where* the savings come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..errors import IntervalError
from .energy import ModeEnergyModel
from .intervals import IntervalPopulation
from .modes import Mode
from .policy import CODE_MODES, TRIO_SCHEMES, Policy, trio_policies


@dataclass(frozen=True)
class ModeBreakdown:
    """Contribution of one operating mode to a policy's assignment."""

    mode: Mode
    interval_count: int
    cycles: int
    energy: float
    total_cycles: int = 0  #: All interval cycles of the population.
    #: Of ``interval_count``, the intervals a prefetch covers.
    prefetchable_count: int = 0

    @property
    def cycle_share(self) -> float:
        """Fraction of all interval cycles spent under this mode (0..1)."""
        if self.total_cycles <= 0:
            return 0.0
        return self.cycles / self.total_cycles


@dataclass(frozen=True)
class SavingsReport:
    """Outcome of evaluating one policy over one interval population."""

    policy_name: str
    baseline_energy: float
    policy_energy: float
    overhead_energy: float
    breakdown: Dict[Mode, ModeBreakdown]

    @property
    def total_energy(self) -> float:
        """Policy energy including bookkeeping overhead."""
        return self.policy_energy + self.overhead_energy

    @property
    def saving_fraction(self) -> float:
        """Leakage power saving versus the all-active cache (0..1)."""
        if self.baseline_energy <= 0:
            return 0.0
        return 1.0 - self.total_energy / self.baseline_energy

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.policy_name}: saves {100 * self.saving_fraction:.1f}% "
            f"(baseline {self.baseline_energy:.0f}, "
            f"policy {self.total_energy:.0f} leakage-cycles)"
        )


def evaluate_policy(
    policy: Policy,
    population: IntervalPopulation,
    dead_aware: bool = False,
) -> SavingsReport:
    """Run the Figure 5 accumulation for one policy.

    Prices from prefix sums: in each pricing class of the population's
    :class:`~repro.core.intervals.PricingView`, one ``searchsorted`` per
    cut of :meth:`Policy.cuts` splits the length-sorted rows into mode
    bands.  A band's interval count and cycles are exact integer
    differences of the cumulative columns, and its energy is the mode's
    slope times its cycles plus its intercept times its count
    (:meth:`Policy.affine`) — equal to the per-interval sum of
    :meth:`Policy.energies` up to float rounding.

    Parameters
    ----------
    policy:
        A bound policy (carries its energy model and inflection points).
    population:
        The interval population (typically merged over all cache frames).
    dead_aware:
        When True, slept dead/cold intervals are not charged re-fetch
        energy (the ablation of §3.1); the paper's default is False.
    """
    view = population.pricing_view()
    if not view.counts[-1]:
        raise IntervalError("cannot evaluate a policy over zero intervals")
    # Per mode: [intervals, cycles, energy, prefetchable intervals].
    totals = {mode: [0, 0, 0.0, 0] for mode in CODE_MODES.values()}
    for kind, prefetchable, first, lengths in view.classes:
        # Walk the cuts from the top: each band ends where a later one
        # starts, and the rows below every cut stay active.
        end = first + lengths.size
        bands = []
        for mode, threshold, inclusive in reversed(policy.cuts(prefetchable)):
            side = "left" if inclusive else "right"
            start = first + int(lengths.searchsorted(threshold, side))
            if start < end:
                if view.lengths[start] < policy.floor(mode):
                    raise policy.infeasible()
                bands.append((mode, start, end))
                end = start
        if first < end:
            bands.append((Mode.ACTIVE, first, end))
        for mode, start, end in bands:
            count, cycles = view.band(start, end)
            slope, intercept = policy.affine(mode, kind, dead_aware)
            entry = totals[mode]
            entry[0] += count
            entry[1] += cycles
            entry[2] += slope * cycles + intercept * count
            if prefetchable:
                entry[3] += count
    total_cycles = int(view.cycles[-1])
    breakdown: Dict[Mode, ModeBreakdown] = {
        mode: ModeBreakdown(
            mode=mode,
            interval_count=count,
            cycles=cycles,
            energy=energy,
            total_cycles=total_cycles,
            prefetchable_count=prefetchable_count,
        )
        for mode, (count, cycles, energy, prefetchable_count) in totals.items()
        if count
    }
    return SavingsReport(
        policy_name=policy.name,
        baseline_energy=policy.model.energy(Mode.ACTIVE, total_cycles),
        policy_energy=sum(entry.energy for entry in breakdown.values()),
        overhead_energy=policy.overhead_power_fraction * float(total_cycles),
        breakdown=breakdown,
    )


def trio_savings(
    models: Sequence[ModeEnergyModel], population: IntervalPopulation
) -> np.ndarray:
    """Saving fractions of Table 2's oracle trio under every model.

    ``grid[i, j]`` is scheme ``TRIO_SCHEMES[i]`` under ``models[j]``; all
    cells share the population's pricing view.
    """
    grid = np.empty((len(TRIO_SCHEMES), len(models)))
    for column, model in enumerate(models):
        for row, policy in enumerate(trio_policies(model)):
            grid[row, column] = evaluate_policy(policy, population).saving_fraction
    return grid

