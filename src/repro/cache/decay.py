"""A functional cache-decay implementation (Kaxiras et al. [6]).

The paper *models* the decay scheme analytically (its Sleep(10K) bars:
a line idles at full power for the decay interval, then sleeps, then
re-fetches).  This module implements the scheme *functionally* — per-line
counters, gating, induced misses — so the analytic
:class:`~repro.core.policy.DecaySleep` pricing can be cross-validated
against a mechanism that actually gates lines:

* every frame carries a coarse 2-bit decay counter advanced by a global
  tick (the hierarchical-counter trick of the decay paper);
* a counter that reaches saturation gates the frame off (state lost);
* an access to a gated frame is an *induced miss*: the line re-fetches,
  and the energy account charges the re-fetch plus the sleep residual
  for the gated span.

:meth:`DecayCache.energy_report` integrates leakage over the run and
must agree with the analytic pricing up to the transition-ramp terms the
counter mechanism cannot observe (the test suite pins the agreement).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.energy import ModeEnergyModel
from ..errors import ConfigurationError, SimulationError
from .cache import SetAssociativeCache
from .config import CacheConfig

#: Decay counters are 2-bit: a line is gated after 4 global ticks.
COUNTER_LIMIT = 4


@dataclass(frozen=True)
class DecayEnergyReport:
    """Leakage-energy account of a functional decay-cache run.

    Energies are in active-line-leakage-cycles, comparable to
    :class:`~repro.core.savings.SavingsReport` values.
    """

    baseline_energy: float
    energy: float
    induced_misses: int
    gated_cycles: int

    @property
    def saving_fraction(self) -> float:
        """Savings versus the all-active cache."""
        if self.baseline_energy <= 0:
            return 0.0
        return 1.0 - self.energy / self.baseline_energy


class DecayCache:
    """A set-associative cache with per-line decay gating.

    Parameters
    ----------
    config:
        Cache geometry.
    model:
        Energy model supplying mode powers, ramp costs and the re-fetch
        energy (its technology node defines the sleep residual).
    decay_interval:
        Cycles of idleness after which a line is gated.  Implemented with
        2-bit counters ticked every ``decay_interval / 4`` cycles, so
        actual gating happens between ``0.75x`` and ``1.0x`` the nominal
        interval, exactly as in the decay paper.
    """

    def __init__(
        self,
        config: CacheConfig,
        model: ModeEnergyModel,
        decay_interval: int = 10_000,
    ) -> None:
        if decay_interval < COUNTER_LIMIT:
            raise ConfigurationError(
                f"decay interval must be at least {COUNTER_LIMIT} cycles, "
                f"got {decay_interval!r}"
            )
        self.config = config
        self.model = model
        self.decay_interval = decay_interval
        self.tick_period = decay_interval // COUNTER_LIMIT
        self.cache = SetAssociativeCache(config)
        n = config.n_lines
        self._last_access = [-1] * n
        self._gated_at = [-1] * n
        self._active_energy = 0.0
        self._sleep_energy = 0.0
        self._transition_energy = 0.0
        self.induced_misses = 0
        self.gated_cycles = 0
        self._end_time = 0

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def _gate_time(self, last_access: int, now: int) -> int:
        """When the frame's counter saturated (or -1 if still awake).

        Counters tick on global-period boundaries, so gating lands on the
        first tick boundary at or after ``last_access + decay_interval``
        in this idealized variant.
        """
        deadline = last_access + self.decay_interval
        if now < deadline:
            return -1
        return deadline

    def access(self, block: int, time: int) -> bool:
        """Access a block; returns True for a genuine (non-induced) hit.

        Accounts the energy of the frame's interval that this access
        closes: active until gated, sleeping afterwards, plus ramps and
        the induced re-fetch when the access finds the frame gated.
        """
        if time < self._end_time:
            raise SimulationError("decay cache accesses must move forward in time")
        hit, frame = self.cache.access_block_ex(block, time)
        last = self._last_access[frame]
        if last >= 0:
            gate = self._gate_time(last, time)
            if gate < 0:
                self._active_energy += self.model.p_active * (time - last)
            else:
                d = self.model.durations
                self._active_energy += self.model.p_active * (gate - last)
                gated_span = time - gate
                self.gated_cycles += gated_span
                self._sleep_energy += self.model.p_sleep * gated_span
                ramp = (
                    0.5 * (self.model.p_active + self.model.p_sleep)
                    if self.model.trapezoidal_ramps
                    else self.model.p_active
                )
                self._transition_energy += ramp * min(d.s1 + d.s3, gated_span)
                if hit:
                    # The data was gated away: an induced miss.
                    self.induced_misses += 1
                    hit = False
                self._transition_energy += self.model.refetch_energy
        self._last_access[frame] = time
        self._end_time = time
        return hit

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def finish(self, end_time: int) -> None:
        """Close every frame's timeline at ``end_time``."""
        if end_time < self._end_time:
            raise SimulationError("end_time precedes the last access")
        for frame in range(self.config.n_lines):
            last = self._last_access[frame]
            if last < 0:
                # Never used: gated from the start at sleep residual.
                self._sleep_energy += self.model.p_sleep * end_time
                self.gated_cycles += end_time
                continue
            gate = self._gate_time(last, end_time)
            if gate < 0:
                self._active_energy += self.model.p_active * (end_time - last)
            else:
                self._active_energy += self.model.p_active * (gate - last)
                span = end_time - gate
                self.gated_cycles += span
                self._sleep_energy += self.model.p_sleep * span
        self._end_time = end_time

    def energy_report(self) -> DecayEnergyReport:
        """The integrated leakage-energy account (call :meth:`finish`)."""
        total = self._active_energy + self._sleep_energy + self._transition_energy
        baseline = self.model.p_active * self.config.n_lines * self._end_time
        return DecayEnergyReport(
            baseline_energy=baseline,
            energy=total,
            induced_misses=self.induced_misses,
            gated_cycles=self.gated_cycles,
        )
