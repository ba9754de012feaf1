"""The paper's primary contribution: oracle leakage-limit analysis.

Everything here operates on *access intervals* — the time a cache line
rests between two accesses — and answers the paper's central question:
with perfect knowledge of the future address trace, how much leakage can
sleep (Gated-Vdd) and drowsy modes save?

The public surface:

* :class:`~repro.core.intervals.IntervalSet` — raw intervals, as tracked;
  :class:`~repro.core.intervals.IntervalPopulation` — their (length,
  class, count) reduction, which every analysis reads.
* :class:`~repro.core.energy.ModeEnergyModel` /
  :class:`~repro.core.energy.TransitionDurations` — Equations 1 and 2.
* :func:`~repro.core.inflection.inflection_points` — Equation 3 / Table 1.
* Policies (:class:`~repro.core.policy.OptHybrid` et al.) — Figures 7/8.
* :func:`~repro.core.savings.evaluate_policy` — the Figure 5 algorithm.
* :class:`~repro.core.model.StateMachineModel` — the §3.3 generalized
  model behind Table 2.
* :mod:`~repro.core.envelope` / :mod:`~repro.core.oracle` — Figure 10 and
  the Theorem 1 optimality machinery.
"""

from .energy import ModeEnergyModel, TransitionDurations
from .envelope import (
    envelope_array,
    envelope_energy,
    envelope_mode,
    envelope_series,
    verify_envelope_matches_policy,
    verify_lemma1,
)
from .inflection import (
    InflectionPoints,
    breakeven_table,
    inflection_points,
    inflection_points_for_node,
    solve_sleep_drowsy_point,
)
from .intervals import (
    Interval,
    IntervalKind,
    IntervalPopulation,
    IntervalSet,
    IntervalStatistics,
)
from .model import StateMachineModel, Transition, technology_sweep
from .modes import Mode
from .oracle import (
    assignment_energy,
    is_optimal_assignment,
    oracle_energy,
    oracle_modes,
)
from .policy import (
    AlwaysActive,
    DecaySleep,
    OptDrowsy,
    OptHybrid,
    OptSleep,
    Policy,
    standard_policies,
)
from .savings import (
    ModeBreakdown,
    SavingsReport,
    average_saving,
    evaluate_policies,
    evaluate_policy,
)

__all__ = [
    "AlwaysActive",
    "DecaySleep",
    "InflectionPoints",
    "Interval",
    "IntervalKind",
    "IntervalPopulation",
    "IntervalSet",
    "IntervalStatistics",
    "Mode",
    "ModeBreakdown",
    "ModeEnergyModel",
    "OptDrowsy",
    "OptHybrid",
    "OptSleep",
    "Policy",
    "SavingsReport",
    "StateMachineModel",
    "Transition",
    "TransitionDurations",
    "assignment_energy",
    "average_saving",
    "breakeven_table",
    "envelope_array",
    "envelope_energy",
    "envelope_mode",
    "envelope_series",
    "evaluate_policies",
    "evaluate_policy",
    "inflection_points",
    "inflection_points_for_node",
    "is_optimal_assignment",
    "oracle_energy",
    "oracle_modes",
    "solve_sleep_drowsy_point",
    "standard_policies",
    "technology_sweep",
    "verify_envelope_matches_policy",
    "verify_lemma1",
]
