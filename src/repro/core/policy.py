"""Leakage-management policies (§3.2, §4.3–4.4 of the paper).

A policy maps every access interval to an operating mode, given perfect
knowledge of the interval's length.  The concrete policies mirror the
schemes the paper evaluates in Figures 7 and 8:

* :class:`AlwaysActive` — the baseline; no leakage is saved.
* :class:`OptDrowsy` — OPT-Drowsy: drowsy whenever feasible.
* :class:`OptSleep` — OPT-Sleep(θ): sleep every interval longer than the
  threshold θ (θ = the sleep-drowsy point for Table 2's OPT-Sleep,
  θ = 10 000 for OPT-Sleep(10K)); everything else stays active.
* :class:`DecaySleep` — Sleep(θ): the implementable cache-decay scheme —
  the line idles at full power for the decay interval *then* sleeps, and a
  per-line decay counter adds a constant leakage overhead.
* :class:`OptHybrid` — OPT-Hybrid: Theorem 1's optimal three-mode policy,
  with an optional raised sleep threshold for the Figure 7 sweep.

Each policy states its mode assignment once, as length cuts per
prefetch class (:meth:`Policy.cuts`).  :meth:`Policy.modes` applies the
cuts to numpy length arrays, and
:func:`~repro.core.savings.evaluate_policy` reads them off a population's
cumulative sums (its :class:`~repro.core.intervals.PricingView`): every
mode energy is affine in the length, so a band of rows prices as a slope
times its cycles plus an intercept times its count
(:meth:`Policy.affine`).  :meth:`Policy.energies` prices every interval
on its own and stays the oracle the prefix pricing is tested against.
The ``dead_aware`` evaluation path (used by the dead-interval ablation)
prices ``DEAD``/``COLD`` intervals without the induced-miss re-fetch,
since no live data is destroyed by sleeping them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import PolicyError
from .energy import ModeEnergyModel
from .inflection import InflectionPoints, inflection_points
from .intervals import IntervalKind
from .modes import Mode

#: Integer codes used in vectorized mode arrays.
MODE_CODES = {Mode.ACTIVE: 0, Mode.DROWSY: 1, Mode.SLEEP: 2}
CODE_MODES = {code: mode for mode, code in MODE_CODES.items()}

ACTIVE, DROWSY, SLEEP = 0, 1, 2


class Policy:
    """Base class: assigns modes to intervals and prices the assignment.

    Subclasses state their length cuts (:meth:`cuts`); the assignment
    (:meth:`modes`), its feasibility and its price all derive from them.
    A policy is bound to a :class:`ModeEnergyModel` at construction,
    since its decisions depend on the model's inflection points.
    """

    #: Extra always-on leakage (fraction of a line's active power) the
    #: policy's bookkeeping hardware costs — e.g. decay counters.
    overhead_power_fraction: float = 0.0

    #: Cycles a line idles at full power before it is put to sleep (a
    #: decay policy has no oracle; the oracle policies sleep at once).
    sleep_wait: float = 0.0

    def __init__(self, model: ModeEnergyModel, name: str | None = None) -> None:
        self.model = model
        self.points: InflectionPoints = inflection_points(model)
        self.name = name if name is not None else type(self).__name__

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def cuts(self, prefetchable: bool) -> Tuple[Tuple[Mode, float, bool], ...]:
        """The length cuts of one prefetch class, ascending.

        Each ``(mode, threshold, inclusive)`` puts the intervals longer
        than ``threshold`` (or as long, when ``inclusive``) into ``mode``,
        up to the next cut; intervals below the first cut stay active.
        Only prefetch-guided policies tell the two classes apart.
        """
        return ()

    def modes(
        self, lengths: np.ndarray, prefetchable: np.ndarray | None = None
    ) -> np.ndarray:
        """Return an array of mode codes, one per interval length.

        ``prefetchable`` flags each length's prefetch class; a policy
        whose cuts tell the classes apart cannot assign modes without it.
        """
        lengths = np.asarray(lengths)
        if prefetchable is None and self.cuts(True) == self.cuts(False):
            prefetchable = np.zeros(lengths.shape, dtype=bool)
        if prefetchable is None or np.shape(prefetchable) != lengths.shape:
            raise PolicyError(
                f"policy {self.name!r} needs prefetch flags aligned with the "
                f"{lengths.size} length(s) it assigns; price it on a "
                "population or pass them as prefetchable"
            )
        flags = np.asarray(prefetchable, dtype=bool)
        codes = np.zeros(lengths.shape, dtype=np.uint8)
        for flag, rows in ((False, ~flags), (True, flags)):
            for mode, threshold, inclusive in self.cuts(flag):
                above = lengths >= threshold if inclusive else lengths > threshold
                codes[rows & above] = MODE_CODES[mode]
        return codes

    def floor(self, mode: Mode) -> float:
        """The shortest interval this policy may put into ``mode``."""
        if mode is Mode.DROWSY:
            return self.model.drowsy_min_length
        if mode is Mode.SLEEP:
            return self.sleep_wait + self.model.sleep_min_length
        return 0

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------

    def affine(self, mode: Mode, kind: int, dead_aware: bool) -> Tuple[float, float]:
        """``(slope, intercept)`` of an interval's energy in ``mode``.

        An interval of ``kind`` and length ``L`` costs ``slope * L +
        intercept``; the sleep intercept carries the decay wait at full
        power and, with ``dead_aware``, drops what :meth:`energies` does
        not charge a slept ``DEAD`` or ``COLD`` interval.
        """
        slope, intercept = self.model.affine(mode)
        if mode is Mode.SLEEP:
            intercept += (self.model.p_active - slope) * self.sleep_wait
            if dead_aware and kind != IntervalKind.NORMAL:
                intercept -= self.model.refetch_energy
                if kind == IntervalKind.COLD:
                    intercept -= self._entry_ramp_saving()
        return slope, intercept

    def energies(
        self,
        lengths: np.ndarray,
        kinds: np.ndarray | None = None,
        prefetchable: np.ndarray | None = None,
        dead_aware: bool = False,
    ) -> np.ndarray:
        """Per-interval energies under this policy's assignment.

        ``prefetchable`` is passed on to :meth:`modes`.
        With ``dead_aware=True``, slept ``DEAD`` and ``COLD`` intervals are
        not charged the induced-miss re-fetch (no live data was lost), and
        ``COLD`` intervals also skip the power-down ramp (the frame was
        never powered).
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        codes = self.modes(lengths, prefetchable)
        energy = self.model.energy(Mode.ACTIVE, lengths)
        drowsy_mask = codes == DROWSY
        if np.any(drowsy_mask):
            energy[drowsy_mask] = self.model.energy(Mode.DROWSY, lengths[drowsy_mask])
        sleep_mask = codes == SLEEP
        if np.any(sleep_mask):
            energy[sleep_mask] = self.model.energy(
                Mode.SLEEP, lengths[sleep_mask], self.sleep_wait
            )
            if dead_aware and kinds is not None:
                kinds = np.asarray(kinds)
                not_live = sleep_mask & (kinds != IntervalKind.NORMAL)
                if np.any(not_live):
                    energy[not_live] -= self.model.refetch_energy
                cold = sleep_mask & (kinds == IntervalKind.COLD)
                if np.any(cold):
                    # No entry ramp either: the frame starts unpowered.
                    energy[cold] -= self._entry_ramp_saving()
        return energy

    def _entry_ramp_saving(self) -> float:
        """What the sleep entry ramp ``s1`` costs above sleep power."""
        model = self.model
        ramp = 0.5 if model.trapezoidal_ramps else 1.0
        return ramp * (model.p_active - model.p_sleep) * model.durations.s1

    def infeasible(self) -> PolicyError:
        """The error for an interval too short for its assigned mode."""
        return PolicyError(
            f"policy {self.name!r} assigned a mode to an interval shorter "
            "than the mode's transition time"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


def _threshold_label(threshold: float) -> str:
    """A threshold as a policy name shows it: ``10K`` for 10 000."""
    if threshold >= 1000 and threshold % 1000 == 0:
        return f"{int(threshold) // 1000}K"
    return f"{threshold:g}"


class AlwaysActive(Policy):
    """The unmanaged baseline: every line stays at full Vdd."""


class OptDrowsy(Policy):
    """OPT-Drowsy: drowsy for every interval longer than ``a = d1 + d3``."""

    def cuts(self, prefetchable: bool) -> Tuple[Tuple[Mode, float, bool], ...]:
        return ((Mode.DROWSY, self.points.active_drowsy, False),)


class OptSleep(Policy):
    """OPT-Sleep(θ): optimally sleep every interval longer than θ.

    With ``threshold=None`` the threshold is the sleep-drowsy inflection
    point — the most aggressive sleeping that still beats drowsy mode
    (Table 2's OPT-Sleep).  Intervals at or below the threshold stay fully
    active (this scheme never uses drowsy mode).
    """

    def __init__(
        self,
        model: ModeEnergyModel,
        threshold: float | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(model, name)
        if threshold is None:
            threshold = self.points.drowsy_sleep
        if threshold < model.sleep_min_length:
            raise PolicyError(
                f"sleep threshold {threshold!r} is below the sleep transition "
                f"time of {model.sleep_min_length} cycles"
            )
        self.threshold = float(threshold)
        if name is None:
            self.name = f"OPT-Sleep({_threshold_label(self.threshold)})"

    def cuts(self, prefetchable: bool) -> Tuple[Tuple[Mode, float, bool], ...]:
        return ((Mode.SLEEP, self.threshold, False),)


class DecaySleep(Policy):
    """Sleep(θ): the implementable cache-decay scheme (Kaxiras et al. [6]).

    The policy has no oracle, so a line idles at full power for the decay
    interval θ and is only then gated off; it still re-fetches on the next
    access.  A per-line decay counter costs a small constant leakage
    overhead, charged over every cycle (``counter_overhead`` as a fraction
    of a line's active leakage).
    """

    def __init__(
        self,
        model: ModeEnergyModel,
        decay_interval: float = 10_000,
        counter_overhead: float = 0.002,
        name: str | None = None,
    ) -> None:
        super().__init__(model, name)
        if decay_interval <= 0:
            raise PolicyError(
                f"decay interval must be positive, got {decay_interval!r}"
            )
        if counter_overhead < 0:
            raise PolicyError(
                f"counter overhead cannot be negative, got {counter_overhead!r}"
            )
        self.decay_interval = self.sleep_wait = float(decay_interval)
        self.overhead_power_fraction = float(counter_overhead)
        if name is None:
            self.name = f"Sleep({_threshold_label(self.decay_interval)})"

    def cuts(self, prefetchable: bool) -> Tuple[Tuple[Mode, float, bool], ...]:
        # Sleep once the wait leaves room for the sleep transitions.
        return ((Mode.SLEEP, self.floor(Mode.SLEEP), True),)


class OptHybrid(Policy):
    """OPT-Hybrid: Theorem 1's optimal three-mode policy.

    ``sleep_threshold`` raises the minimum interval length put to sleep
    above the inflection point (the Figure 7 sweep); drowsy mode covers
    everything between the active-drowsy point and the sleep threshold.
    """

    def __init__(
        self,
        model: ModeEnergyModel,
        sleep_threshold: float | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(model, name)
        floor = self.points.drowsy_sleep
        if sleep_threshold is None:
            sleep_threshold = floor
        if sleep_threshold < floor:
            raise PolicyError(
                f"hybrid sleep threshold {sleep_threshold!r} is below the "
                f"sleep-drowsy inflection point {floor:.1f}; sleeping there "
                "would cost more energy than drowsy mode"
            )
        if sleep_threshold < model.sleep_min_length:
            raise PolicyError(
                f"node {model.node.name}: hybrid sleep threshold "
                f"{sleep_threshold:.1f} is below the sleep transition time "
                f"of {model.sleep_min_length} cycles"
            )
        self.sleep_threshold = float(sleep_threshold)
        if name is None:
            self.name = "OPT-Hybrid"

    def cuts(self, prefetchable: bool) -> Tuple[Tuple[Mode, float, bool], ...]:
        return (
            (Mode.DROWSY, self.points.active_drowsy, False),
            (Mode.SLEEP, self.sleep_threshold, False),
        )


def standard_policies(model: ModeEnergyModel) -> list:
    """The four oracle schemes of Figure 8, in its bar order."""
    return [
        OptDrowsy(model, name="OPT-Drowsy"),
        DecaySleep(model, decay_interval=10_000),
        OptSleep(model, threshold=10_000),
        OptHybrid(model),
    ]


#: Table 2's oracle trio, in its column order.
TRIO_SCHEMES: Tuple[str, str, str] = ("OPT-Drowsy", "OPT-Sleep", "OPT-Hybrid")


def trio_policies(model: ModeEnergyModel) -> List[Policy]:
    """Table 2's oracle trio, ordered like :data:`TRIO_SCHEMES`."""
    return [
        OptDrowsy(model, name="OPT-Drowsy"),
        OptSleep(model, name="OPT-Sleep"),
        OptHybrid(model),
    ]
