"""SimPoint: representative-window selection (Sherwood et al. [14]).

The paper cuts simulation cost by running only the simulation points
SimPoint selects.  This module picks them: given the basic-block-vector
profile of a trace, cluster the windows and take — per cluster — the
window closest to the centroid, weighted by cluster population.

:mod:`repro.traces.estimate` runs the rest of the pipeline: it simulates
the selected windows of a recorded trace through the engine and combines
their savings with these weights, the same way the paper extrapolates
whole-benchmark behaviour from a few windows.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .bbv import BBVProfile
from .kmeans import choose_k


def select_simpoints(
    profile: BBVProfile, max_k: int = 10, seed: int = 0
) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Cluster a BBV profile and pick representative windows.

    The cluster count is chosen by BIC (SimPoint's default).  Returns
    ``(windows, weights)``: the representative window indices in
    ascending order and the fraction of the run each stands for.
    """
    points = profile.vectors
    result = choose_k(points, max_k=max_k, seed=seed)
    n = points.shape[0]
    picks = []
    for cluster in range(result.k):
        members = np.flatnonzero(result.labels == cluster)
        if members.size == 0:
            continue
        distances = ((points[members] - result.centroids[cluster]) ** 2).sum(axis=1)
        picks.append((int(members[distances.argmin()]), members.size / n))
    picks.sort()
    return (
        tuple(window for window, _ in picks),
        tuple(weight for _, weight in picks),
    )
