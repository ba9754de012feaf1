"""The generalized optimal-leakage-saving model (the paper's §3.3, Figure 6).

The paper abstracts its limit analysis into a three-state machine —
Active, Drowsy, Sleep — where each state carries a static power and each
edge a transition duration, its energy the ramp's power integrated over
that duration.  All circuit assumptions (from
CACTI, HotLeakage, and the interval trace from the simulator) enter as
parameters.  Table 2's saving percentages are priced from the closed
forms of :meth:`~repro.core.energy.ModeEnergyModel.energy` (Equations 1
and 2, affine in the interval length); this module is their reference.
:meth:`StateMachineModel.simulate_interval` walks the state machine
cycle by cycle and integrates its power numerically, and the test suite
checks every closed form against that walk, for both ramp shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ConfigurationError, PolicyError
from .energy import ModeEnergyModel
from .modes import Mode


@dataclass(frozen=True)
class Transition:
    """One edge of the Figure 6 state machine."""

    source: Mode
    target: Mode
    duration: int

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ConfigurationError(
                f"transition {self.source}->{self.target} has negative "
                f"duration {self.duration!r}"
            )


class StateMachineModel:
    """The parameterized Figure 6 model.

    States carry static powers (``state_power``); edges carry transition
    durations (``transitions``).  ``trapezoidal_ramps`` gives the power
    along an edge: the linear ramp between its endpoint powers, or (when
    False) the step model's higher endpoint power for the whole ramp.
    """

    def __init__(
        self,
        state_power: Dict[Mode, float],
        transitions: Dict[Tuple[Mode, Mode], Transition],
        refetch_energy: float,
        ready_cycles: int = 0,
        trapezoidal_ramps: bool = True,
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
        self.trapezoidal_ramps = bool(trapezoidal_ramps)

    # ------------------------------------------------------------------
    # Construction from the circuit-level model
    # ------------------------------------------------------------------

    @classmethod
    def from_energy_model(cls, model: ModeEnergyModel) -> "StateMachineModel":
        """Derive states, edges and ramp shape from a :class:`ModeEnergyModel`."""
        d = model.durations
        power = {
            Mode.ACTIVE: model.p_active,
            Mode.DROWSY: model.p_drowsy,
            Mode.SLEEP: model.p_sleep,
        }
        transitions = {
            (source, target): Transition(source, target, duration)
            for source, target, duration in (
                (Mode.ACTIVE, Mode.DROWSY, d.d1),
                (Mode.DROWSY, Mode.ACTIVE, d.d3),
                (Mode.ACTIVE, Mode.SLEEP, d.s1),
                (Mode.SLEEP, Mode.ACTIVE, d.s3),
            )
        }
        return cls(
            state_power=power,
            transitions=transitions,
            refetch_energy=model.refetch_energy,
            ready_cycles=d.s4,
            trapezoidal_ramps=model.trapezoidal_ramps,
        )

    def transition(self, source: Mode, target: Mode) -> Transition:
        """The edge from ``source`` to ``target``."""
        try:
            return self.transitions[(source, target)]
        except KeyError:
            raise PolicyError(
                f"no transition defined from {source} to {target}"
            ) from None

    # ------------------------------------------------------------------
    # Discrete validation path
    # ------------------------------------------------------------------

    def simulate_interval(self, mode: Mode, length: int) -> float:
        """Cycle-by-cycle numerical pricing of one interval in ``mode``.

        Walks the same phases Equations 1 and 2 integrate analytically —
        entry ramp, resting state, exit ramp, full-power ready window,
        re-fetch for sleep — sampling a linear ramp's power at cycle
        midpoints (exact for linear ramps).  Must agree with
        :meth:`~repro.core.energy.ModeEnergyModel.energy` to
        floating-point precision; the test suite enforces this.
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

    def _walk_ramp(self, source: Mode, target: Mode, duration: int) -> float:
        p_from = self.state_power[source]
        p_to = self.state_power[target]
        total = 0.0
        for k in range(duration):
            if self.trapezoidal_ramps:
                frac = (k + 0.5) / duration
                total += p_from + (p_to - p_from) * frac
            else:
                total += max(p_from, p_to)
        return total
