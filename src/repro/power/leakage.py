"""HotLeakage-style analytic leakage model.

The paper obtains per-line leakage powers from HotLeakage [18], a C tool
built on BSIM3 subthreshold equations.  This module re-implements the same
structure analytically:

* **Subthreshold leakage** of an off transistor::

      I_sub = mu0 * Cox * (W/L) * vT^2 * e^1.8
              * exp((Vgs - Vth + eta*Vds) / (n*vT)) * (1 - exp(-Vds/vT))

  evaluated at ``Vgs = 0``, ``Vds = Vdd`` for a fully-on (active) line and
  ``Vds = Vdd_drowsy`` for a drowsy line.  The DIBL coefficient ``eta``
  couples the drain voltage into the exponent, which is what makes drowsy
  mode effective.
* **Gate leakage** is modelled as a fixed fraction of subthreshold leakage
  at the nominal supply (it is a second-order effect at the nodes the
  paper studies and scales similarly with voltage).
* **Gated-Vdd (sleep)** leakage is the stacked residual through the
  high-Vth sleep transistor, modelled as a configurable fraction of active
  leakage.

A 6T SRAM cell leaks through roughly two off devices per cell; a cache
line of ``line_bits`` cells (data + tag + status) leaks the cell current
times the bit count.  Absolute numbers are indicative — the limit study
itself only consumes the *ratios* between modes and the re-fetch/leakage
ratio, both of which are pinned by :mod:`repro.power.calibration`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import PowerModelError
from ..units import thermal_voltage
from .calibration import calibrate_drowsy_dibl
from .technology import TechnologyNode


@dataclass(frozen=True)
class SramGeometry:
    """Physical description of the SRAM that stores one cache line.

    Attributes
    ----------
    data_bits: bits of data payload per line (512 for a 64 B line).
    tag_bits: bits of tag plus status (valid/dirty/LRU) per line.
    leak_paths_per_cell: effective off-transistor leakage paths per 6T cell.
    width_to_length: W/L ratio of the leaking devices.
    """

    data_bits: int = 512
    tag_bits: int = 40
    leak_paths_per_cell: float = 2.0
    width_to_length: float = 2.0

    @property
    def line_bits(self) -> int:
        """Total SRAM cells per cache line."""
        return self.data_bits + self.tag_bits


class LeakageModel:
    """Per-line leakage power for each operating mode, in watts.

    Parameters
    ----------
    node:
        Technology node supplying voltages and temperature.
    geometry:
        SRAM geometry of one cache line.
    dibl:
        DIBL coefficient ``eta`` (V/V).  When None, it is *calibrated* so
        that the subthreshold drowsy/active ratio equals the node's
        ``drowsy_ratio`` — tying the physical model to the paper-calibrated
        behaviour.
    gate_leak_fraction:
        Gate leakage as a fraction of nominal subthreshold leakage.
    subthreshold_slope:
        Ideality factor ``n`` of the subthreshold slope.
    """

    #: mu0 * Cox * e^1.8 lumped prefactor (A/V^2 per unit W/L); tuned to
    #: land per-device leakage in the nA range at the 70 nm node.
    CURRENT_PREFACTOR = 1.2e-5

    def __init__(
        self,
        node: TechnologyNode,
        geometry: SramGeometry | None = None,
        dibl: float | None = None,
        gate_leak_fraction: float = 0.15,
        subthreshold_slope: float = 1.3,
    ) -> None:
        if gate_leak_fraction < 0:
            raise PowerModelError(
                f"gate leakage fraction cannot be negative, got {gate_leak_fraction!r}"
            )
        if subthreshold_slope < 1.0:
            raise PowerModelError(
                f"subthreshold slope factor must be >= 1, got {subthreshold_slope!r}"
            )
        self.node = node
        self.geometry = geometry if geometry is not None else SramGeometry()
        self.gate_leak_fraction = gate_leak_fraction
        self.subthreshold_slope = subthreshold_slope
        self.vt = thermal_voltage(node.temperature_k)
        if dibl is None:
            dibl = calibrate_drowsy_dibl(node, node.drowsy_ratio)
        if dibl < 0:
            raise PowerModelError(f"DIBL coefficient cannot be negative, got {dibl!r}")
        self.dibl = dibl

    # ------------------------------------------------------------------
    # Device-level currents
    # ------------------------------------------------------------------

    def subthreshold_current(self, vds: float) -> float:
        """Off-device subthreshold current at drain bias ``vds`` (amps)."""
        if vds < 0:
            raise PowerModelError(f"Vds cannot be negative, got {vds!r}")
        n_vt = self.subthreshold_slope * self.vt
        exponent = (-self.node.vth + self.dibl * vds) / n_vt
        drain_term = 1.0 - math.exp(-vds / self.vt) if vds > 0 else 0.0
        return (
            self.CURRENT_PREFACTOR
            * self.geometry.width_to_length
            * self.vt**2
            * math.exp(exponent)
            * drain_term
        )

    # ------------------------------------------------------------------
    # Line-level powers
    # ------------------------------------------------------------------

    def _cell_paths(self) -> float:
        return self.geometry.line_bits * self.geometry.leak_paths_per_cell

    def line_active_power(self) -> float:
        """Leakage power of one fully-powered line (watts)."""
        i_sub = self.subthreshold_current(self.node.vdd)
        i_total = i_sub * (1.0 + self.gate_leak_fraction)
        return self._cell_paths() * i_total * self.node.vdd

    def line_drowsy_power(self) -> float:
        """Leakage power of one line at the drowsy retention voltage."""
        i_sub = self.subthreshold_current(self.node.vdd_drowsy)
        i_total = i_sub * (1.0 + self.gate_leak_fraction)
        return self._cell_paths() * i_total * self.node.vdd_drowsy

    def line_sleep_power(self) -> float:
        """Residual leakage of one gated-off line (watts)."""
        return self.node.sleep_ratio * self.line_active_power()

    def drowsy_ratio(self) -> float:
        """Drowsy/active leakage ratio predicted by the physics."""
        return self.line_drowsy_power() / self.line_active_power()

    def summary(self) -> dict:
        """Key quantities as a plain dict (for reports and examples)."""
        return {
            "node": self.node.name,
            "dibl": self.dibl,
            "line_active_w": self.line_active_power(),
            "line_drowsy_w": self.line_drowsy_power(),
            "line_sleep_w": self.line_sleep_power(),
            "drowsy_ratio": self.drowsy_ratio(),
        }
