"""Unit conventions and small conversion helpers.

The library works in three unit systems, and this module is the single
place where the conventions are written down:

* **Cycles** — all interval lengths, durations and inflection points are in
  processor clock cycles, matching how the paper reports them (Table 1).
* **Normalized energy** — the core policy mathematics uses energy expressed
  in *active-line-leakage-cycles*: the energy one cache line leaks in one
  cycle while fully powered is ``1.0``.  Leakage savings are ratios, so
  this normalization cancels and lets the entire limit analysis run
  without committing to absolute watts.
* **Physical units** — the :mod:`repro.power` models produce absolute
  values (watts, joules, seconds, volts) when a clock frequency and device
  parameters are supplied.  The helpers below convert between the two
  systems.

Constants follow SI.  Temperatures are kelvin.
"""

from __future__ import annotations

from .errors import ConfigurationError

#: Boltzmann constant (J/K).
BOLTZMANN = 1.380649e-23

#: Elementary charge (C).
ELECTRON_CHARGE = 1.602176634e-19

#: Reference junction temperature used by the default leakage models (K).
#: HotLeakage-style models evaluate leakage at an elevated operating
#: temperature; 353 K (80 C) is a common choice for cache limit studies.
DEFAULT_TEMPERATURE_K = 353.0


def thermal_voltage(temperature_k: float = DEFAULT_TEMPERATURE_K) -> float:
    """Return the thermal voltage ``kT/q`` in volts.

    ``vT`` is roughly 26 mV at room temperature and grows linearly with
    temperature; every subthreshold-leakage exponent in
    :mod:`repro.power.leakage` is expressed in multiples of it.
    """
    if temperature_k <= 0:
        raise ConfigurationError(
            f"temperature must be positive, got {temperature_k!r} K"
        )
    return BOLTZMANN * temperature_k / ELECTRON_CHARGE


def cycle_time_s(frequency_hz: float) -> float:
    """Return the clock period in seconds for a clock ``frequency_hz``."""
    if frequency_hz <= 0:
        raise ConfigurationError(
            f"clock frequency must be positive, got {frequency_hz!r} Hz"
        )
    return 1.0 / frequency_hz


def joules_to_leakage_cycles(
    energy_j: float, line_leakage_w: float, frequency_hz: float
) -> float:
    """Convert an absolute energy to active-line-leakage-cycles.

    ``line_leakage_w`` is the leakage power of one fully-active cache line;
    one leakage-cycle is the energy that line dissipates in one clock
    period.  This is the conversion used to express a CACTI-style re-fetch
    energy in the normalized units the inflection-point equations use.
    """
    if line_leakage_w <= 0:
        raise ConfigurationError(
            f"line leakage power must be positive, got {line_leakage_w!r} W"
        )
    return energy_j / (line_leakage_w * cycle_time_s(frequency_hz))

