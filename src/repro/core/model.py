"""The generalized optimal-leakage-saving model (the paper's §3.3, Figure 6).

The paper abstracts its limit analysis into a three-state machine —
Active, Drowsy, Sleep — where each state carries a static power and each
edge a transition energy and duration.  All circuit assumptions (from
CACTI, HotLeakage, and the interval trace from the simulator) enter as
parameters.  Table 2's saving percentages are priced from the closed
forms in :mod:`repro.core.savings`; this module is their reference.

Two evaluation paths are provided and must agree:

* the closed forms inherited from :class:`~repro.core.energy.ModeEnergyModel`
  (affine in interval length), and
* :meth:`StateMachineModel.simulate_schedule`, a discrete cycle-by-cycle
  walk of the state machine that integrates power numerically — the
  cross-check the test suite uses to validate every closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..errors import ConfigurationError, PolicyError
from .energy import ModeEnergyModel
from .modes import Mode


@dataclass(frozen=True)
class Transition:
    """One edge of the Figure 6 state machine."""

    source: Mode
    target: Mode
    duration: int
    energy: float

    def __post_init__(self) -> None:
        if self.duration < 0 or self.energy < 0:
            raise ConfigurationError(
                f"transition {self.source}->{self.target} has negative "
                f"duration or energy: {(self.duration, self.energy)!r}"
            )


class StateMachineModel:
    """The parameterized Figure 6 model.

    States carry static powers (``state_power``); edges carry transition
    durations and energies (``transitions``).  The model knows how to
    price a whole access interval spent in each mode, reproducing
    Equations 1 and 2, and how to numerically simulate an arbitrary mode
    schedule for validation.
    """

    def __init__(
        self,
        state_power: Dict[Mode, float],
        transitions: Dict[Tuple[Mode, Mode], Transition],
        refetch_energy: float,
        ready_cycles: int = 0,
    ) -> None:
        for mode in Mode:
            if mode not in state_power:
                raise ConfigurationError(f"missing static power for state {mode}")
            if state_power[mode] < 0:
                raise ConfigurationError(
                    f"static power of {mode} cannot be negative"
                )
        self.state_power = dict(state_power)
        self.transitions = dict(transitions)
        if refetch_energy < 0:
            raise ConfigurationError("re-fetch energy cannot be negative")
        self.refetch_energy = refetch_energy
        # Cycles at full power awaiting the re-fetched data (s4).
        self.ready_cycles = ready_cycles

    # ------------------------------------------------------------------
    # Construction from the circuit-level model
    # ------------------------------------------------------------------

    @classmethod
    def from_energy_model(cls, model: ModeEnergyModel) -> "StateMachineModel":
        """Derive states and edges from a :class:`ModeEnergyModel`.

        Edge energies integrate the (trapezoidal or step) ramp power over
        the corresponding duration, so the state machine and the closed
        forms describe the same physics.
        """
        d = model.durations
        power = {
            Mode.ACTIVE: model.p_active,
            Mode.DROWSY: model.p_drowsy,
            Mode.SLEEP: model.p_sleep,
        }

        def ramp_energy(p_from: float, p_to: float, cycles: int) -> float:
            if model.trapezoidal_ramps:
                return 0.5 * (p_from + p_to) * cycles
            return max(p_from, p_to) * cycles

        transitions = {
            (Mode.ACTIVE, Mode.DROWSY): Transition(
                Mode.ACTIVE, Mode.DROWSY, d.d1,
                ramp_energy(model.p_active, model.p_drowsy, d.d1),
            ),
            (Mode.DROWSY, Mode.ACTIVE): Transition(
                Mode.DROWSY, Mode.ACTIVE, d.d3,
                ramp_energy(model.p_drowsy, model.p_active, d.d3),
            ),
            (Mode.ACTIVE, Mode.SLEEP): Transition(
                Mode.ACTIVE, Mode.SLEEP, d.s1,
                ramp_energy(model.p_active, model.p_sleep, d.s1),
            ),
            (Mode.SLEEP, Mode.ACTIVE): Transition(
                Mode.SLEEP, Mode.ACTIVE, d.s3,
                ramp_energy(model.p_sleep, model.p_active, d.s3),
            ),
        }
        return cls(
            state_power=power,
            transitions=transitions,
            refetch_energy=model.refetch_energy,
            ready_cycles=d.s4,
        )

    # ------------------------------------------------------------------
    # Interval pricing (must reproduce Equations 1 and 2)
    # ------------------------------------------------------------------

    def transition(self, source: Mode, target: Mode) -> Transition:
        """The edge from ``source`` to ``target``."""
        try:
            return self.transitions[(source, target)]
        except KeyError:
            raise PolicyError(
                f"no transition defined from {source} to {target}"
            ) from None

    def interval_energy(self, mode: Mode, length: int) -> float:
        """Energy of one access interval spent in ``mode``.

        The interval starts and ends at Active (accesses require full
        power): Active -> mode -> ... -> Active, with the induced-miss
        re-fetch and the ``s4`` full-power ready window charged when the
        resting state is Sleep.
        """
        if length <= 0:
            raise PolicyError(f"interval length must be positive, got {length!r}")
        if mode is Mode.ACTIVE:
            return self.state_power[Mode.ACTIVE] * length
        down = self.transition(Mode.ACTIVE, mode)
        up = self.transition(mode, Mode.ACTIVE)
        ready = self.ready_cycles if mode is Mode.SLEEP else 0
        rest = length - down.duration - up.duration - ready
        if rest < 0:
            raise PolicyError(
                f"interval of {length} cycles cannot host a round trip "
                f"through {mode} ({down.duration + up.duration + ready} "
                "cycles of transitions)"
            )
        energy = (
            down.energy
            + self.state_power[mode] * rest
            + up.energy
            + self.state_power[Mode.ACTIVE] * ready
        )
        if mode is Mode.SLEEP:
            energy += self.refetch_energy
        return energy

    # ------------------------------------------------------------------
    # Discrete validation path
    # ------------------------------------------------------------------

    def simulate_interval(self, mode: Mode, length: int) -> float:
        """Cycle-by-cycle numerical pricing of one interval in ``mode``.

        Walks the same phases the closed form integrates analytically —
        entry ramp, resting state, exit ramp, full-power ready window,
        re-fetch for sleep — sampling the ramp power at cycle midpoints
        (exact for linear ramps).  Must agree with :meth:`interval_energy`
        to floating-point precision; the test suite enforces this.
        """
        if length <= 0:
            raise PolicyError(f"interval length must be positive, got {length!r}")
        if mode is Mode.ACTIVE:
            return sum(
                self.state_power[Mode.ACTIVE] for _ in range(length)
            )
        down = self.transition(Mode.ACTIVE, mode)
        up = self.transition(mode, Mode.ACTIVE)
        ready = self.ready_cycles if mode is Mode.SLEEP else 0
        rest = length - down.duration - up.duration - ready
        if rest < 0:
            raise PolicyError(
                f"interval of {length} cycles cannot host a round trip through {mode}"
            )
        total = self._walk_ramp(Mode.ACTIVE, mode, down.duration)
        total += sum(self.state_power[mode] for _ in range(rest))
        total += self._walk_ramp(mode, Mode.ACTIVE, up.duration)
        total += sum(self.state_power[Mode.ACTIVE] for _ in range(ready))
        if mode is Mode.SLEEP:
            total += self.refetch_energy
        return total

    def simulate_schedule(self, schedule: Sequence[Tuple[Mode, int]]) -> float:
        """Price a whole mode schedule: intervals in sequence.

        Each ``(mode, cycles)`` entry is one access interval priced with
        :meth:`simulate_interval`; the line returns to Active at every
        access between entries.
        """
        return sum(self.simulate_interval(mode, cycles) for mode, cycles in schedule)

    def _walk_ramp(self, source: Mode, target: Mode, duration: int) -> float:
        p_from = self.state_power[source]
        p_to = self.state_power[target]
        total = 0.0
        for k in range(duration):
            frac = (k + 0.5) / duration
            total += p_from + (p_to - p_from) * frac
        return total
