"""The energy-versus-interval lower envelope (the paper's Figure 10).

For every interval length, each feasible operating mode has an affine
energy cost; the *lower envelope* — the pointwise minimum over feasible
modes — is what Theorem 1's optimal policy achieves.  The envelope is
piecewise linear with slopes ``P_active``, ``P_drowsy``, ``P_sleep`` over
the three regions split by the inflection points ``a`` and ``b``.

:func:`envelope_modes` takes that minimum per interval straight from
:meth:`~repro.core.energy.ModeEnergyModel.energy`, with no inflection
points involved, so the tests can check Theorem 1 by comparing it with
:class:`~repro.core.policy.OptHybrid`'s region assignment.

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
from .modes import Mode
from .policy import DROWSY, SLEEP


def _envelope(
    model: ModeEnergyModel, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-interval argmin mode codes and the minimum energies."""
    lengths = np.asarray(lengths, dtype=np.float64)
    codes = np.zeros(lengths.shape, dtype=np.uint8)
    best = model.energy(Mode.ACTIVE, lengths)
    for code, mode, floor in (
        (DROWSY, Mode.DROWSY, model.drowsy_min_length),
        (SLEEP, Mode.SLEEP, model.sleep_min_length),
    ):
        feasible = lengths >= floor
        if np.any(feasible):
            energy = np.full(lengths.shape, np.inf)
            energy[feasible] = model.energy(mode, lengths[feasible])
            codes[energy < best] = code
            np.minimum(best, energy, out=best)
    return codes, best


def envelope_modes(model: ModeEnergyModel, lengths: np.ndarray) -> np.ndarray:
    """Per-interval energy-argmin mode codes (feasibility respected).

    Ties break toward the less aggressive mode (active over drowsy over
    sleep), mirroring the paper's half-open region boundaries.
    """
    return _envelope(model, lengths)[0]


def envelope_array(model: ModeEnergyModel, lengths: np.ndarray) -> np.ndarray:
    """The lower envelope at each of an array of interval lengths."""
    return _envelope(model, lengths)[1]


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
        active = model.energy(Mode.ACTIVE, length)
        drowsy = (
            model.energy(Mode.DROWSY, length)
            if length >= model.drowsy_min_length
            else float("nan")
        )
        sleep = (
            model.energy(Mode.SLEEP, length)
            if length >= model.sleep_min_length
            else float("nan")
        )
        rows.append((float(length), active, drowsy, sleep))
    return rows
