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

Policies assign modes vectorially over numpy length arrays; per-interval
energies come from the :class:`~repro.core.energy.ModeEnergyModel`.
Evaluation prices a population's distinct lengths (its
:class:`~repro.core.intervals.LengthSpectrum`) rather than every interval.  The
``dead_aware`` evaluation path (used by the dead-interval ablation) prices
``DEAD``/``COLD`` intervals without the induced-miss re-fetch, since no
live data is destroyed by sleeping them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import PolicyError
from .energy import ModeEnergyModel
from .inflection import InflectionPoints, inflection_points
from .intervals import IntervalKind, IntervalPopulation, IntervalSet, LengthSpectrum
from .modes import Mode

#: Integer codes used in vectorized mode arrays.
MODE_CODES = {Mode.ACTIVE: 0, Mode.DROWSY: 1, Mode.SLEEP: 2}
CODE_MODES = {code: mode for mode, code in MODE_CODES.items()}

ACTIVE, DROWSY, SLEEP = 0, 1, 2


class Policy:
    """Base class: assigns modes to intervals and prices the assignment.

    Subclasses implement :meth:`modes`; energy evaluation is shared.  A
    policy is bound to a :class:`ModeEnergyModel` at construction, since
    its decisions depend on the model's inflection points.
    """

    #: Extra always-on leakage (fraction of a line's active power) the
    #: policy's bookkeeping hardware costs — e.g. decay counters.
    overhead_power_fraction: float = 0.0

    def __init__(self, model: ModeEnergyModel, name: str | None = None) -> None:
        self.model = model
        self.points: InflectionPoints = inflection_points(model)
        self.name = name if name is not None else type(self).__name__

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def modes(self, lengths: np.ndarray) -> np.ndarray:
        """Return an array of mode codes, one per interval length."""
        raise NotImplementedError

    def mode_for(self, length: int) -> Mode:
        """Scalar convenience wrapper around :meth:`modes`."""
        code = int(self.modes(np.array([length], dtype=np.int64))[0])
        return CODE_MODES[code]

    def on_spectrum(
        self, population: IntervalPopulation | IntervalSet
    ) -> Tuple["Policy", LengthSpectrum]:
        """The spectrum to price ``population`` on, and the policy for its rows.

        A policy whose modes depend on length alone prices the plain
        (length, kind) rows itself; policies that also read a class bit
        return a copy bound to the spectrum's class column.
        """
        return self, population.spectrum()

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------

    def energies(
        self,
        lengths: np.ndarray,
        kinds: np.ndarray | None = None,
        dead_aware: bool = False,
    ) -> np.ndarray:
        """Per-interval energies under this policy's assignment.

        With ``dead_aware=True``, slept ``DEAD`` and ``COLD`` intervals are
        not charged the induced-miss re-fetch (no live data was lost), and
        ``COLD`` intervals also skip the power-down ramp (the frame was
        never powered).
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        codes = self.modes(lengths)
        self._validate_feasibility(lengths, codes)
        energy = self.model.active_energy_array(lengths)
        drowsy_mask = codes == DROWSY
        if np.any(drowsy_mask):
            energy[drowsy_mask] = self.model.drowsy_energy_array(lengths[drowsy_mask])
        sleep_mask = codes == SLEEP
        if np.any(sleep_mask):
            energy[sleep_mask] = self._sleep_energies(lengths[sleep_mask])
            if dead_aware and kinds is not None:
                kinds = np.asarray(kinds)
                not_live = sleep_mask & (kinds != IntervalKind.NORMAL)
                if np.any(not_live):
                    energy[not_live] -= self.model.refetch_energy
                cold = sleep_mask & (kinds == IntervalKind.COLD)
                if np.any(cold):
                    # No entry ramp either: the frame starts unpowered.
                    d = self.model.durations
                    ramp_saving = (
                        0.5 * (self.model.p_active - self.model.p_sleep) * d.s1
                        if self.model.trapezoidal_ramps
                        else (self.model.p_active - self.model.p_sleep) * d.s1
                    )
                    energy[cold] -= ramp_saving
        return energy

    def _sleep_energies(self, lengths: np.ndarray) -> np.ndarray:
        """Energy of slept intervals; subclasses may model a decay wait."""
        return self.model.sleep_energy_array(lengths)

    def _validate_feasibility(self, lengths: np.ndarray, codes: np.ndarray) -> None:
        drowsy_bad = np.any(
            (codes == DROWSY) & (lengths < self.model.drowsy_min_length)
        )
        sleep_bad = np.any(
            (codes == SLEEP) & (lengths < self._sleep_feasibility_floor())
        )
        if drowsy_bad or sleep_bad:
            raise PolicyError(
                f"policy {self.name!r} assigned a mode to an interval shorter "
                "than the mode's transition time"
            )

    def _sleep_feasibility_floor(self) -> float:
        return self.model.sleep_min_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class AlwaysActive(Policy):
    """The unmanaged baseline: every line stays at full Vdd."""

    def modes(self, lengths: np.ndarray) -> np.ndarray:
        return np.zeros(np.asarray(lengths).shape, dtype=np.uint8)


class OptDrowsy(Policy):
    """OPT-Drowsy: drowsy for every interval longer than ``a = d1 + d3``."""

    def modes(self, lengths: np.ndarray) -> np.ndarray:
        lengths = np.asarray(lengths)
        codes = np.zeros(lengths.shape, dtype=np.uint8)
        codes[lengths > self.points.active_drowsy] = DROWSY
        return codes


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
            self.name = f"OPT-Sleep({self._format_threshold()})"

    def _format_threshold(self) -> str:
        if self.threshold >= 1000 and self.threshold % 1000 == 0:
            return f"{int(self.threshold) // 1000}K"
        return f"{self.threshold:g}"

    def modes(self, lengths: np.ndarray) -> np.ndarray:
        lengths = np.asarray(lengths)
        codes = np.zeros(lengths.shape, dtype=np.uint8)
        codes[lengths > self.threshold] = SLEEP
        return codes


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
        self.decay_interval = float(decay_interval)
        self.overhead_power_fraction = float(counter_overhead)
        if name is None:
            threshold = (
                f"{int(self.decay_interval) // 1000}K"
                if self.decay_interval >= 1000 and self.decay_interval % 1000 == 0
                else f"{self.decay_interval:g}"
            )
            self.name = f"Sleep({threshold})"

    def modes(self, lengths: np.ndarray) -> np.ndarray:
        lengths = np.asarray(lengths)
        codes = np.zeros(lengths.shape, dtype=np.uint8)
        sleepable = lengths >= self.decay_interval + self.model.sleep_min_length
        codes[sleepable] = SLEEP
        return codes

    def _sleep_energies(self, lengths: np.ndarray) -> np.ndarray:
        return self.model.decay_sleep_energy_array(lengths, self.decay_interval)

    def _sleep_feasibility_floor(self) -> float:
        return self.decay_interval + self.model.sleep_min_length


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

    def modes(self, lengths: np.ndarray) -> np.ndarray:
        lengths = np.asarray(lengths)
        codes = np.zeros(lengths.shape, dtype=np.uint8)
        codes[lengths > self.points.active_drowsy] = DROWSY
        codes[lengths > self.sleep_threshold] = SLEEP
        return codes


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
