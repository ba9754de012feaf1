"""Per-interval energy accounting (the paper's Equations 1 and 2).

The lifetime of an access interval under each mode decomposes into the
durations of Figure 4:

Sleep mode (total interval length ``L``)::

    s1            s2              s3   s4
    [high -> off][ ... off ... ][off->high][high]   + refetch energy (*)

Drowsy mode::

    d1            d2              d3
    [high -> low][ ... low ... ][low->high]

``s4 = D - s3`` absorbs the remainder of the L2 hit latency ``D`` after
the voltage has recovered: with oracle timing, the just-in-time re-fetch
begins ``D`` cycles before the access, the supply is already high for the
last ``s4`` of them, and the dynamic energy of the induced miss (``*``,
priced by a CACTI-style model) is charged to the interval.

Voltage-ramp phases (``s1``, ``s3``, ``d1``, ``d3``) are charged the
*trapezoidal* average of the endpoint leakage powers — leakage falls
roughly with the supply as it ramps.  A step model (full leakage during
ramps) is available for the ablation study.

Energies are expressed in *active-line-leakage-cycles* (see
:mod:`repro.units`): a fully-on line leaks exactly 1.0 per cycle, so the
drowsy and sleep powers are simply the node's mode ratios and the re-fetch
energy is the node's ``refetch_energy_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError, PolicyError
from ..power.technology import TechnologyNode
from .modes import Mode


@dataclass(frozen=True)
class TransitionDurations:
    """Mode-transition durations in cycles (paper §4.2, from [10]).

    ``s2`` and ``d2`` are not stored: they are whatever remains of the
    interval after the fixed phases.

    Attributes
    ----------
    s1: cycles to drive the supply from high to fully off (sleep entry).
    s3: cycles to restore the supply from off to high (sleep exit).
    s4: cycles at full supply awaiting the re-fetched data;
        ``s4 = l2_latency - s3`` for a just-in-time re-fetch.
    d1: cycles to lower the supply to the retention voltage (drowsy entry).
    d3: cycles to raise the supply back to Vdd (drowsy exit).
    """

    s1: int = 30
    s3: int = 3
    s4: int = 4
    d1: int = 3
    d3: int = 3

    def __post_init__(self) -> None:
        for name in ("s1", "s3", "s4", "d1", "d3"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ConfigurationError(
                    f"duration {name} must be a non-negative integer, got {value!r}"
                )
        if self.d1 + self.d3 <= 0:
            raise ConfigurationError("drowsy transition must take at least 1 cycle")

    @property
    def sleep_overhead(self) -> int:
        """Total fixed cycles of a sleep interval (``s1 + s3 + s4``)."""
        return self.s1 + self.s3 + self.s4

    @property
    def drowsy_overhead(self) -> int:
        """Total fixed cycles of a drowsy interval (``d1 + d3``).

        This *is* the active-drowsy inflection point ``a`` (Definition 3).
        """
        return self.d1 + self.d3


#: Leakage power of a fully-active line in normalized units.
P_ACTIVE = 1.0


class ModeEnergyModel:
    """Closed-form interval energies for active, drowsy and sleep modes.

    Parameters
    ----------
    node:
        Technology node supplying the mode leakage ratios and the
        calibrated re-fetch energy.
    durations:
        Transition durations; defaults to the paper's values
        (``s1=30, s3=3, s4=4, d1=3, d3=3``).
    trapezoidal_ramps:
        When True (default), a voltage-ramp phase is charged the average of
        its endpoint powers; when False, it is charged full active power
        (the pessimistic step model used in the ramp ablation).
    """

    def __init__(
        self,
        node: TechnologyNode,
        durations: TransitionDurations | None = None,
        trapezoidal_ramps: bool = True,
    ) -> None:
        self.node = node
        self.durations = durations if durations is not None else TransitionDurations()
        self.trapezoidal_ramps = bool(trapezoidal_ramps)
        self.p_active = P_ACTIVE
        self.p_drowsy = node.drowsy_ratio * P_ACTIVE
        self.p_sleep = node.sleep_ratio * P_ACTIVE
        self.refetch_energy = node.refetch_energy_cycles
        self._precompute_constants()

    def _ramp_power(self, p_from: float, p_to: float) -> float:
        """Leakage power charged during a voltage ramp between two levels."""
        if self.trapezoidal_ramps:
            return 0.5 * (p_from + p_to)
        return max(p_from, p_to)

    def _precompute_constants(self) -> None:
        d = self.durations
        ramp_sd = self._ramp_power(self.p_active, self.p_sleep)
        ramp_dd = self._ramp_power(self.p_active, self.p_drowsy)
        # E_sleep(L)  = p_sleep * L + sleep_constant           (Equation 1)
        # E_drowsy(L) = p_drowsy * L + drowsy_constant         (Equation 2)
        self.sleep_constant = (
            ramp_sd * (d.s1 + d.s3)
            + self.p_active * d.s4
            - self.p_sleep * d.sleep_overhead
            + self.refetch_energy
        )
        self.drowsy_constant = (ramp_dd - self.p_drowsy) * d.drowsy_overhead

    # ------------------------------------------------------------------
    # Interval energies (Equations 1 and 2)
    # ------------------------------------------------------------------

    @property
    def drowsy_min_length(self) -> int:
        """Shortest interval that can be spent in drowsy mode."""
        return self.durations.drowsy_overhead

    @property
    def sleep_min_length(self) -> int:
        """Shortest interval that can be spent in sleep mode."""
        return self.durations.sleep_overhead

    def affine(self, mode: Mode) -> Tuple[float, float]:
        """``(slope, intercept)`` of ``mode``'s energy, ``slope * L + intercept``."""
        if mode is Mode.ACTIVE:
            return self.p_active, 0.0
        if mode is Mode.DROWSY:
            return self.p_drowsy, self.drowsy_constant
        return self.p_sleep, self.sleep_constant

    def energy(self, mode: Mode, lengths, wait: float = 0):
        """Energy of intervals of ``lengths`` cycles spent in ``mode``.

        ``lengths`` is one length (the result is a float) or an array of
        them (the result is an array).  The line first idles ``wait``
        cycles at full power, then enters ``mode`` for the rest of the
        interval: a decay policy (Sleep(10K)) has no oracle, so it waits
        out its decay interval before gating Vdd.  A slept interval
        includes the dynamic energy of the induced miss that re-fetches
        the line from L2 just in time for the closing access.

        Raises :class:`PolicyError` on a non-positive length, a negative
        wait, or an interval whose remainder after the wait is shorter
        than the mode's transition time.
        """
        slope, intercept = self.affine(mode)
        if np.ndim(lengths):
            lengths = np.asarray(lengths, dtype=np.float64)
            shortest = lengths.min(initial=np.inf)
        else:
            shortest = lengths
        if shortest <= 0:
            raise PolicyError(
                f"interval length must be positive, got {shortest:g} cycles"
            )
        if wait < 0:
            raise PolicyError(f"decay wait must be non-negative, got {wait:g}")
        floor = {
            Mode.DROWSY: self.drowsy_min_length,
            Mode.SLEEP: self.sleep_min_length,
        }.get(mode, 0)
        if shortest - wait < floor:
            raise PolicyError(
                f"an interval of {shortest:g} cycles is too short for "
                f"{mode.value} mode after a {wait:g}-cycle wait (the "
                f"transition time is {floor} cycles)"
            )
        if wait:
            return self.p_active * wait + (slope * (lengths - wait) + intercept)
        return slope * lengths + intercept

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ModeEnergyModel(node={self.node.name}, "
            f"p_drowsy={self.p_drowsy:.4f}, p_sleep={self.p_sleep:.4f}, "
            f"refetch={self.refetch_energy:.1f} cycles)"
        )
