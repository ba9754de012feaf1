"""The energy-versus-interval lower envelope (the paper's Figure 10).

For every interval length, each feasible operating mode has an affine
energy cost; the *lower envelope* — the pointwise minimum over feasible
modes — is what Theorem 1's optimal policy achieves.  The envelope is
piecewise linear with slopes ``P_active``, ``P_drowsy``, ``P_sleep`` over
the three regions split by the inflection points ``a`` and ``b``.

One boundary subtlety is worth recording: the paper assigns ``(0, a]`` to
active mode for *access latency* reasons (a line cannot ramp down and back
up inside fewer than ``d1 + d3`` cycles), not because active is cheaper in
energy at exactly ``a``.  All energy-optimality statements here therefore
hold for lengths strictly above ``a``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .energy import ModeEnergyModel
from .inflection import inflection_points
from .modes import Mode


def feasible_modes(model: ModeEnergyModel, length: float) -> List[Mode]:
    """All modes that can physically be applied to an interval."""
    return [mode for mode in Mode if model.feasible(mode, length)]


def envelope_energy(model: ModeEnergyModel, length: float) -> float:
    """Minimum energy over feasible modes at one interval length."""
    return min(model.energy(mode, length) for mode in feasible_modes(model, length))


def envelope_mode(model: ModeEnergyModel, length: float) -> Mode:
    """The energy-minimizing feasible mode at one interval length.

    Ties break toward the mode Theorem 1's region policy would pick
    (active < drowsy < sleep by increasing region), matching the paper's
    half-open region boundaries.
    """
    best = Mode.ACTIVE
    best_energy = float("inf")
    for mode in (Mode.ACTIVE, Mode.DROWSY, Mode.SLEEP):
        if not model.feasible(mode, length):
            continue
        energy = model.energy(mode, length)
        if energy < best_energy:
            best, best_energy = mode, energy
    return best


def envelope_array(model: ModeEnergyModel, lengths: np.ndarray) -> np.ndarray:
    """Vectorized lower envelope over an array of interval lengths."""
    lengths = np.asarray(lengths, dtype=np.float64)
    energy = model.active_energy_array(lengths)
    drowsy_ok = lengths >= model.drowsy_min_length
    if np.any(drowsy_ok):
        energy[drowsy_ok] = np.minimum(
            energy[drowsy_ok], model.drowsy_energy_array(lengths[drowsy_ok])
        )
    sleep_ok = lengths >= model.sleep_min_length
    if np.any(sleep_ok):
        energy[sleep_ok] = np.minimum(
            energy[sleep_ok], model.sleep_energy_array(lengths[sleep_ok])
        )
    return energy


def envelope_series(
    model: ModeEnergyModel, max_length: int, n_points: int = 200
) -> List[Tuple[float, float, float, float]]:
    """The Figure 10 plot data.

    Returns ``(length, active, drowsy-or-nan, sleep-or-nan)`` rows on a
    logarithmic length grid up to ``max_length``; infeasible modes are NaN
    so a plotting front end naturally truncates their segments.
    """
    grid = np.round(np.logspace(0, np.log10(max_length), n_points)).astype(np.int64)
    # The grid ascends; keep each length once.  (np.unique would import
    # numpy.ma, which costs a warm run more than the whole figure.)
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    rows = []
    for length in grid:
        length = int(length)
        active = model.active_energy(length)
        drowsy = (
            model.drowsy_energy(length)
            if length >= model.drowsy_min_length
            else float("nan")
        )
        sleep = (
            model.sleep_energy(length)
            if length >= model.sleep_min_length
            else float("nan")
        )
        rows.append((float(length), active, drowsy, sleep))
    return rows


def region_slopes(model: ModeEnergyModel) -> Tuple[float, float, float]:
    """Slopes P1, P2, P3 of the envelope over the three Theorem 1 regions."""
    return (model.p_active, model.p_drowsy, model.p_sleep)


def verify_lemma1(model: ModeEnergyModel) -> bool:
    """Lemma 1: ``a < b`` for any physically-valid parameterization."""
    points = inflection_points(model)
    return points.active_drowsy < points.drowsy_sleep


def verify_envelope_matches_policy(
    model: ModeEnergyModel, lengths: np.ndarray, tolerance: float = 1e-9
) -> bool:
    """Theorem 1 check: the region policy achieves the lower envelope.

    True when, for every length strictly above the active-drowsy point,
    the mode chosen by the inflection-point classification attains the
    envelope energy (within ``tolerance``).
    """
    points = inflection_points(model)
    lengths = np.asarray(lengths, dtype=np.int64)
    lengths = lengths[lengths > points.active_drowsy]
    envelope = envelope_array(model, lengths)
    for length, env in zip(lengths, envelope):
        assigned = points.classify(float(length))
        if model.energy(assigned, float(length)) > env + tolerance:
            return False
    return True
