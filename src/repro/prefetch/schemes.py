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

Both are expressed as :class:`~repro.core.policy.Policy` subclasses bound
to a fixed interval population (the mask must align), so the standard
Figure 5 evaluation machinery prices them, and the wake-up stalls B
accepts are reported separately as a performance-cost estimate.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.intervals import IntervalSet, LengthSpectrum
from ..core.policy import DROWSY, SLEEP, Policy
from ..core.savings import SavingsReport, evaluate_policy
from ..errors import PolicyError
from .analysis import AnnotatedIntervals


class PrefetchGuidedPolicy(Policy):
    """Mode assignment driven by a per-interval prefetchability mask.

    Parameters
    ----------
    model:
        The bound energy model (supplies the inflection points).
    prefetchable:
        Boolean mask aligned with the interval population the policy will
        be evaluated on.
    power_first:
        False = Prefetch-A (non-prefetchable stays active);
        True = Prefetch-B (non-prefetchable goes drowsy when feasible).
    """

    def __init__(
        self,
        model: ModeEnergyModel,
        prefetchable: np.ndarray,
        power_first: bool,
        name: str | None = None,
    ) -> None:
        super().__init__(model, name)
        self.prefetchable = np.asarray(prefetchable, dtype=bool)
        self.power_first = bool(power_first)
        #: Non-prefetchable intervals longer than this go drowsy.
        self.np_threshold = (
            float(self.points.active_drowsy) if power_first else math.inf
        )
        if name is None:
            self.name = "Prefetch-B" if power_first else "Prefetch-A"

    def _check_aligned(self, count: int) -> None:
        if count != self.prefetchable.shape[0]:
            raise PolicyError(
                f"policy {self.name!r} was built for "
                f"{self.prefetchable.shape[0]} intervals but asked about "
                f"{count}"
            )

    def on_spectrum(
        self, intervals: IntervalSet
    ) -> Tuple["PrefetchGuidedPolicy", LengthSpectrum]:
        """The spectrum classed by this mask, and a copy masked by its flags."""
        self._check_aligned(len(intervals))
        spectrum = intervals.spectrum(self.prefetchable)
        rows = copy.copy(self)
        rows.prefetchable = spectrum.prefetchable
        return rows, spectrum

    def modes(self, lengths: np.ndarray) -> np.ndarray:
        lengths = np.asarray(lengths)
        self._check_aligned(lengths.shape[0])
        codes = np.zeros(lengths.shape, dtype=np.uint8)
        mask = self.prefetchable
        codes[mask & (lengths > self.points.active_drowsy)] = DROWSY
        codes[mask & (lengths > self.points.drowsy_sleep)] = SLEEP
        codes[~mask & (lengths > self.np_threshold)] = DROWSY
        return codes

    def wakeup_stall_cycles(
        self, lengths: np.ndarray, counts: np.ndarray | None = None
    ) -> int:
        """Estimated stall cycles from unhidden drowsy wake-ups.

        Prefetchable intervals exit their mode behind a prefetch (no
        stall); non-prefetchable drowsy intervals each pay the ``d3``
        ramp on their closing access.  Prefetch-A never stalls.  With
        ``counts``, entry ``i`` stands for ``counts[i]`` intervals.
        """
        lengths = np.asarray(lengths)
        unhidden = (~self.prefetchable) & (lengths > self.np_threshold)
        stalled = unhidden.sum() if counts is None else counts[unhidden].sum()
        return int(stalled) * self.model.durations.d3

    def price(
        self, intervals: IntervalSet, dead_aware: bool = False
    ) -> Tuple[SavingsReport, int]:
        """Savings and wake-up stall cycles over the mask's population."""
        savings = evaluate_policy(self, intervals, dead_aware=dead_aware)
        rows, spectrum = self.on_spectrum(intervals)
        return savings, rows.wakeup_stall_cycles(spectrum.lengths, spectrum.counts)


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
    annotated: AnnotatedIntervals,
    model: ModeEnergyModel,
    power_first: bool,
    dead_aware: bool = False,
) -> PrefetchSchemeReport:
    """Price Prefetch-A (``power_first=False``) or Prefetch-B over a run."""
    policy = PrefetchGuidedPolicy(model, annotated.prefetchable, power_first)
    savings, stalls = policy.price(annotated.intervals, dead_aware=dead_aware)
    return PrefetchSchemeReport(
        savings=savings,
        wakeup_stall_cycles=stalls,
        total_cycles=annotated.intervals.total_cycles,
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
    annotated: AnnotatedIntervals,
    model: ModeEnergyModel,
) -> List[PrefetchabilityRow]:
    """The Figure 9 histogram: ranges (0, a], (a, b], (b, inf).

    Counts are interval counts (the paper's prefetchability is "the
    number of prefetchable intervals over the total number of
    intervals").
    """
    lengths = annotated.intervals.lengths
    a = model.durations.drowsy_overhead
    from ..core.inflection import solve_sleep_drowsy_point

    b = solve_sleep_drowsy_point(model)
    ranges = [
        (f"(0, {a}]", lengths <= a),
        (f"({a}, {b:.0f}]", (lengths > a) & (lengths <= b)),
        (f"({b:.0f}, +inf)", lengths > b),
    ]
    rows = []
    for label, mask in ranges:
        rows.append(
            PrefetchabilityRow(
                label=label,
                total=int(mask.sum()),
                nextline=int((annotated.nextline & mask).sum()),
                stride=int((annotated.stride & mask).sum()),
            )
        )
    return rows


def prefetchability_summary(
    annotated: AnnotatedIntervals, model: ModeEnergyModel
) -> Dict[str, float]:
    """Total P-NL / P-stride fractions (the Figure 9 headline numbers)."""
    total = len(annotated.intervals)
    if not total:
        return {"nextline": 0.0, "stride": 0.0, "total": 0.0}
    nl = float(annotated.nextline.sum()) / total
    st = float(annotated.stride.sum()) / total
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
        prefetchable: np.ndarray,
        np_threshold: float,
        name: str | None = None,
    ) -> None:
        super().__init__(model, prefetchable, power_first=True, name=name)
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
    annotated: AnnotatedIntervals,
    model: ModeEnergyModel,
    thresholds: "List[float]",
) -> "List[TradeoffPoint]":
    """Sweep the NP drowsy threshold from B-like to A-like.

    Returns one :class:`TradeoffPoint` per threshold: as the threshold
    rises, wake-up stalls fall monotonically and so do the savings — the
    power/performance frontier the paper's §5.2 sketches.
    """
    points = []
    total = annotated.intervals.total_cycles
    for threshold in thresholds:
        policy = PrefetchTradeoff(model, annotated.prefetchable, threshold)
        report, stalls = policy.price(annotated.intervals)
        points.append(
            TradeoffPoint(
                np_threshold=float(threshold),
                saving_fraction=report.saving_fraction,
                stall_overhead=stalls / total if total else 0.0,
            )
        )
    return points
