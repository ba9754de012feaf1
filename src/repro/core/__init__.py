"""The paper's primary contribution: oracle leakage-limit analysis.

Everything here operates on *access intervals* — the time a cache line
rests between two accesses — and answers the paper's central question:
with perfect knowledge of the future address trace, how much leakage can
sleep (Gated-Vdd) and drowsy modes save?

The public surface:

* :class:`~repro.core.intervals.IntervalPopulation` — the (length,
  class, count) rows of an interval population, which every analysis
  reads, folded from per-interval columns by an
  :class:`~repro.core.intervals.IntervalRows`.
* :class:`~repro.core.energy.ModeEnergyModel` /
  :class:`~repro.core.energy.TransitionDurations` — Equations 1 and 2,
  stated once in :meth:`~repro.core.energy.ModeEnergyModel.energy`.
* :func:`~repro.core.inflection.inflection_points` — Equation 3 / Table 1.
* Policies (:class:`~repro.core.policy.OptHybrid` et al.) — Figures 7/8.
* :func:`~repro.core.savings.evaluate_policy` — the Figure 5 algorithm.
* :class:`~repro.core.model.StateMachineModel` — the §3.3 generalized
  model, the cycle-by-cycle reference for Equations 1 and 2.
* :mod:`~repro.core.envelope` — Figure 10's lower envelope and its
  per-interval argmin, the Theorem 1 oracle.

Every name is re-exported lazily, on first use: a run that only prices
policies never loads the §3.3 model.
"""

from __future__ import annotations

from importlib import import_module

#: Re-exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("ModeEnergyModel", "TransitionDurations"), "energy"),
    **dict.fromkeys(
        (
            "envelope_array",
            "envelope_modes",
            "envelope_series",
        ),
        "envelope",
    ),
    **dict.fromkeys(
        (
            "InflectionPoints",
            "inflection_points",
            "inflection_points_for_node",
            "solve_sleep_drowsy_point",
        ),
        "inflection",
    ),
    **dict.fromkeys(
        (
            "IntervalKind",
            "IntervalPopulation",
            "IntervalRows",
        ),
        "intervals",
    ),
    **dict.fromkeys(("StateMachineModel", "Transition"), "model"),
    "Mode": "modes",
    **dict.fromkeys(
        (
            "AlwaysActive",
            "DecaySleep",
            "OptDrowsy",
            "OptHybrid",
            "OptSleep",
            "Policy",
            "standard_policies",
        ),
        "policy",
    ),
    **dict.fromkeys(
        (
            "ModeBreakdown",
            "SavingsReport",
            "evaluate_policy",
        ),
        "savings",
    ),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = sorted(_EXPORTS)
