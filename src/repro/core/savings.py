"""The optimal leakage-saving accumulation (the paper's Figure 5).

Given a set of intervals and a policy, total leakage saving is the sum of
per-interval savings versus the all-active baseline::

    saving = 1 - (policy energy + bookkeeping overhead) / baseline energy

where ``baseline = p_active * total interval cycles`` and, following the
paper's methodology, the dynamic energy of every induced miss is *removed
from* the savings (our sleep energies already include it).  A
:class:`SavingsReport` additionally breaks the result down by mode so the
experiments can explain *where* the savings come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..errors import IntervalError
from .energy import ModeEnergyModel
from .intervals import IntervalPopulation, IntervalSet
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

    @property
    def remaining_fraction(self) -> float:
        """Leakage left after the policy, as a fraction of baseline."""
        return 1.0 - self.saving_fraction

    def cycles_in(self, mode: Mode) -> int:
        """Interval cycles assigned to ``mode``."""
        entry = self.breakdown.get(mode)
        return entry.cycles if entry is not None else 0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.policy_name}: saves {100 * self.saving_fraction:.1f}% "
            f"(baseline {self.baseline_energy:.0f}, "
            f"policy {self.total_energy:.0f} leakage-cycles)"
        )


def evaluate_policy(
    policy: Policy,
    population: IntervalPopulation | IntervalSet,
    dead_aware: bool = False,
) -> SavingsReport:
    """Run the Figure 5 accumulation for one policy.

    The policy prices each row of the population's
    :class:`~repro.core.intervals.LengthSpectrum` once; interval counts
    and cycles are exact integer sums weighted by the row counts, and
    energies are count-weighted sums of the per-length energies (equal to
    the per-interval sums up to float rounding).

    Parameters
    ----------
    policy:
        A bound policy (carries its energy model and inflection points).
    population:
        The interval population (typically merged over all cache frames);
        a raw :class:`~repro.core.intervals.IntervalSet` is priced on its
        reduction.
    dead_aware:
        When True, slept dead/cold intervals are not charged re-fetch
        energy (the ablation of §3.1); the paper's default is False.
    """
    if not len(population):
        raise IntervalError("cannot evaluate a policy over zero intervals")
    rows, spectrum = policy.on_spectrum(population)
    lengths, counts = spectrum.lengths, spectrum.counts
    codes = rows.modes(lengths)
    energies = rows.energies(lengths, spectrum.kinds, dead_aware=dead_aware) * counts
    cycles = spectrum.cycles
    total_cycles = int(cycles.sum())
    overhead = policy.overhead_power_fraction * float(total_cycles)
    breakdown: Dict[Mode, ModeBreakdown] = {}
    for code, mode in CODE_MODES.items():
        mask = codes == code
        if not np.any(mask):
            continue
        breakdown[mode] = ModeBreakdown(
            mode=mode,
            interval_count=int(counts[mask].sum()),
            cycles=int(cycles[mask].sum()),
            energy=float(energies[mask].sum()),
            total_cycles=total_cycles,
        )
    return SavingsReport(
        policy_name=policy.name,
        baseline_energy=policy.model.active_energy(total_cycles),
        policy_energy=float(energies.sum()),
        overhead_energy=overhead,
        breakdown=breakdown,
    )


def evaluate_policies(
    policies: Iterable[Policy],
    population: IntervalPopulation | IntervalSet,
    dead_aware: bool = False,
) -> List[SavingsReport]:
    """Evaluate several policies over the same interval population."""
    return [evaluate_policy(p, population, dead_aware=dead_aware) for p in policies]


def trio_savings(
    models: Sequence[ModeEnergyModel], population: IntervalPopulation | IntervalSet
) -> np.ndarray:
    """Saving fractions of Table 2's oracle trio under every model.

    ``grid[i, j]`` is scheme ``TRIO_SCHEMES[i]`` under ``models[j]``; all
    cells share the population's spectrum.
    """
    grid = np.empty((len(TRIO_SCHEMES), len(models)))
    for column, model in enumerate(models):
        for row, policy in enumerate(trio_policies(model)):
            grid[row, column] = evaluate_policy(policy, population).saving_fraction
    return grid


def average_saving(reports: Iterable[SavingsReport]) -> float:
    """Arithmetic mean of saving fractions (the paper's benchmark average)."""
    reports = list(reports)
    if not reports:
        raise IntervalError("cannot average zero savings reports")
    return float(np.mean([r.saving_fraction for r in reports]))
