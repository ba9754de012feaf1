"""Technology node descriptions.

A :class:`TechnologyNode` collects every implementation-technology
parameter the limit model needs: supply and threshold voltages (the paper's
Table 2 lists the four nodes it studies), the drowsy retention voltage, the
relative leakage of each operating mode, and the normalized dynamic energy
of the induced-miss re-fetch that prices sleep mode.

Two kinds of nodes are provided:

* :func:`paper_nodes` — the four nodes of the paper (70/100/130/180 nm)
  with mode ratios and re-fetch energies *calibrated* so that the derived
  sleep-drowsy inflection points reproduce the paper's Table 1 exactly
  (1057 / 5088 / 10328 / 103084 cycles).  See
  :mod:`repro.power.calibration` for how the re-fetch energies are pinned.
* physically-derived nodes — :mod:`repro.power.leakage` and
  :mod:`repro.power.dynamic` can populate a node from first-principles
  models for what-if studies at arbitrary geometries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from ..errors import ConfigurationError

#: Sleep-drowsy inflection points published in the paper's Table 1, keyed
#: by feature size in nanometres.  The active-drowsy point is 6 cycles at
#: every node (``d1 + d3``).
PAPER_INFLECTION_POINTS: Dict[int, int] = {
    70: 1057,
    100: 5088,
    130: 10328,
    180: 103084,
}

#: Supply / threshold voltages from the paper's Table 2, keyed by nm.
PAPER_VOLTAGES: Dict[int, Tuple[float, float]] = {
    70: (0.9, 0.1902),
    100: (1.0, 0.2607),
    130: (1.5, 0.3353),
    180: (2.0, 0.3979),
}

#: Default ratio of drowsy-mode leakage to active leakage.  The paper's
#: Table 2 shows OPT-Drowsy saturating at 66.7% savings independent of
#: technology, which identifies the HotLeakage drowsy residual as one third
#: of active leakage; we adopt that as the calibrated default.
DEFAULT_DROWSY_RATIO = 1.0 / 3.0

#: Default ratio of sleep-mode (gated-Vdd) leakage to active leakage.  A
#: high-Vth sleep transistor leaves only a tiny stacked-device residual —
#: the Gated-Vdd paper reports leakage "essentially eliminated", and the
#: paper's 99.1% D-cache hybrid limit requires a residual well under 1%.
DEFAULT_SLEEP_RATIO = 0.003


@dataclass(frozen=True)
class TechnologyNode:
    """Implementation-technology parameters for the leakage limit model.

    Attributes
    ----------
    feature_nm:
        Drawn feature size in nanometres (70, 100, 130, 180 for the paper).
    vdd:
        Nominal supply voltage in volts.
    vth:
        Nominal NMOS threshold voltage in volts.
    vdd_drowsy:
        Retention supply used in drowsy mode, in volts.  Must satisfy
        ``0 < vdd_drowsy < vdd``.
    drowsy_ratio:
        Leakage power of a drowsy line relative to an active line (0..1).
    sleep_ratio:
        Residual leakage of a gated-off (sleep) line relative to active.
        Must be below ``drowsy_ratio`` or sleep could never win.
    refetch_energy_cycles:
        Dynamic energy of the induced miss that re-fills a slept line,
        expressed in active-line-leakage-cycles (see :mod:`repro.units`).
        This is the single knob that moves the sleep-drowsy inflection
        point; for paper nodes it is calibrated against Table 1.
    frequency_hz:
        Clock frequency used when converting to absolute units.
    temperature_k:
        Junction temperature assumed by the physical leakage models.
    name:
        Human-readable label, e.g. ``"70nm"``.
    """

    feature_nm: float
    vdd: float
    vth: float
    vdd_drowsy: float
    drowsy_ratio: float = DEFAULT_DROWSY_RATIO
    sleep_ratio: float = DEFAULT_SLEEP_RATIO
    refetch_energy_cycles: float = 0.0
    frequency_hz: float = 2.0e9
    temperature_k: float = 353.0
    name: str = field(default="")

    def __post_init__(self) -> None:
        if self.feature_nm <= 0:
            raise ConfigurationError(
                f"feature size must be positive, got {self.feature_nm!r} nm"
            )
        if self.vdd <= 0:
            raise ConfigurationError(f"Vdd must be positive, got {self.vdd!r} V")
        if not 0 < self.vth < self.vdd:
            raise ConfigurationError(
                f"Vth must lie in (0, Vdd)={(0, self.vdd)}, got {self.vth!r} V"
            )
        if not 0 < self.vdd_drowsy < self.vdd:
            raise ConfigurationError(
                "drowsy retention voltage must lie strictly between 0 and "
                f"Vdd={self.vdd!r} V, got {self.vdd_drowsy!r} V"
            )
        if not 0 <= self.sleep_ratio < self.drowsy_ratio < 1:
            raise ConfigurationError(
                "mode leakage ratios must satisfy "
                "0 <= sleep_ratio < drowsy_ratio < 1, got "
                f"sleep={self.sleep_ratio!r}, drowsy={self.drowsy_ratio!r}"
            )
        if self.refetch_energy_cycles < 0:
            raise ConfigurationError(
                "re-fetch energy cannot be negative, got "
                f"{self.refetch_energy_cycles!r}"
            )
        if self.frequency_hz <= 0:
            raise ConfigurationError(
                f"frequency must be positive, got {self.frequency_hz!r} Hz"
            )
        if not self.name:
            object.__setattr__(self, "name", f"{self.feature_nm:g}nm")

    def with_refetch_energy(self, refetch_energy_cycles: float) -> "TechnologyNode":
        """Return a copy of this node with a new re-fetch energy."""
        return replace(self, refetch_energy_cycles=refetch_energy_cycles)


def make_paper_node(feature_nm: int, **overrides: float) -> TechnologyNode:
    """Build one of the four paper technology nodes (uncalibrated).

    The returned node carries the paper's Table 2 voltages, a drowsy
    retention voltage of ``Vdd / 2`` (the common choice in the drowsy-cache
    literature), and the default mode ratios.  Its
    ``refetch_energy_cycles`` is zero — run it through
    :func:`repro.power.calibration.calibrate_refetch_energy` (or use
    :func:`paper_nodes`, which does so) before computing inflection points.
    """
    try:
        vdd, vth = PAPER_VOLTAGES[feature_nm]
    except KeyError:
        known = sorted(PAPER_VOLTAGES)
        raise ConfigurationError(
            f"unknown paper node {feature_nm!r} nm; paper nodes are {known}"
        ) from None
    params = {
        "feature_nm": float(feature_nm),
        "vdd": vdd,
        "vth": vth,
        "vdd_drowsy": vdd / 2.0,
    }
    params.update(overrides)
    return TechnologyNode(**params)


def paper_nodes() -> Dict[int, TechnologyNode]:
    """Return the four paper nodes, calibrated to the Table 1 inflections.

    The import happens here (not at module top) because calibration builds
    on the energy model, which itself consumes technology nodes.
    """
    from .calibration import calibrate_refetch_energy

    nodes = {}
    for feature_nm, inflection in PAPER_INFLECTION_POINTS.items():
        raw = make_paper_node(feature_nm)
        nodes[feature_nm] = raw.with_refetch_energy(
            calibrate_refetch_energy(raw, inflection)
        )
    return nodes
