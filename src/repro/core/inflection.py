"""Inflection-point derivation (the paper's Equation 3 and Table 1).

Two inflection points split the interval-length axis into the three
operating-mode regions of Theorem 1:

* the **active-drowsy point** ``a = d1 + d3`` — by Definition 3 it is the
  sum of the drowsy entry and exit ramp durations (6 cycles for the
  paper's parameters, at every technology node);
* the **sleep-drowsy point** ``b`` — the interval length at which a sleep
  interval (including the induced-miss re-fetch energy) costs exactly as
  much as a drowsy interval.  Because both per-mode energies are affine in
  the interval length, ``b`` has the closed form::

        sleep_constant - drowsy_constant
    b = --------------------------------
             p_drowsy  -  p_sleep

The module also provides a bisection solver used by tests to confirm the
closed form against the raw energy functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PowerModelError
from ..power.technology import TechnologyNode
from .energy import ModeEnergyModel, TransitionDurations
from .modes import Mode


@dataclass(frozen=True)
class InflectionPoints:
    """The two mode-boundary interval lengths, in cycles.

    ``active_drowsy`` is exact (a sum of integer durations);
    ``drowsy_sleep`` carries the exact real solution of Equation 3 plus its
    rounded form as reported in the paper's Table 1.
    """

    active_drowsy: int
    drowsy_sleep: float

    @property
    def drowsy_sleep_cycles(self) -> int:
        """The sleep-drowsy point rounded to whole cycles (Table 1 form)."""
        return int(round(self.drowsy_sleep))


def solve_sleep_drowsy_point(model: ModeEnergyModel) -> float:
    """Solve Equation 3 (``E_S = E_D``) for the interval length.

    Raises :class:`PowerModelError` when sleep can never match drowsy
    (non-positive leakage-power gap) or when the crossing falls below the
    sleep feasibility bound, which would make the optimal policy ill
    defined.
    """
    gap = model.p_drowsy - model.p_sleep
    if gap <= 0:
        raise PowerModelError(
            "drowsy leakage must exceed sleep leakage for a sleep-drowsy "
            f"inflection point to exist (gap={gap!r})"
        )
    point = (model.sleep_constant - model.drowsy_constant) / gap
    if point < model.sleep_min_length:
        raise PowerModelError(
            f"sleep-drowsy crossing at {point:.1f} cycles is below the sleep "
            f"feasibility bound of {model.sleep_min_length} cycles; increase "
            "the re-fetch energy or shorten the sleep transitions"
        )
    return point


def solve_sleep_drowsy_point_bisect(
    model: ModeEnergyModel, hi: float = 1e9, tolerance: float = 1e-6
) -> float:
    """Numerically locate the Equation 3 crossing by bisection.

    Exists to cross-check :func:`solve_sleep_drowsy_point` in the test
    suite; both must agree to within ``tolerance``.
    """
    lo = float(model.sleep_min_length)

    def difference(length: float) -> float:
        return model.energy(Mode.SLEEP, length) - model.energy(Mode.DROWSY, length)

    f_lo = difference(lo)
    if f_lo <= 0:
        return lo
    if difference(hi) > 0:
        raise PowerModelError(
            f"no sleep-drowsy crossing below {hi:g} cycles; sleep never wins"
        )
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if difference(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def inflection_points(model: ModeEnergyModel) -> InflectionPoints:
    """Compute both inflection points for an energy model."""
    return InflectionPoints(
        active_drowsy=model.durations.drowsy_overhead,
        drowsy_sleep=solve_sleep_drowsy_point(model),
    )


def inflection_points_for_node(
    node: TechnologyNode, durations: TransitionDurations | None = None
) -> InflectionPoints:
    """Convenience wrapper: build the energy model and solve."""
    return inflection_points(ModeEnergyModel(node, durations=durations))

