"""K-means clustering (the engine under SimPoint's phase detection).

A dependency-free implementation with k-means++ seeding, Lloyd
iterations, and a Bayesian-Information-Criterion-style score used to
pick the cluster count, mirroring how SimPoint chooses k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means run."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centroids.shape[0])


def _plus_plus_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    closest_sq = np.full(n, np.inf)
    for i in range(1, k):
        distance_sq = ((points - centroids[i - 1]) ** 2).sum(axis=1)
        np.minimum(closest_sq, distance_sq, out=closest_sq)
        total = closest_sq.sum()
        if total <= 0:
            centroids[i:] = points[rng.integers(n, size=k - i)]
            break
        probabilities = closest_sq / total
        centroids[i] = points[rng.choice(n, p=probabilities)]
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    max_iterations: int = 100,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups (Lloyd's algorithm)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ConfigurationError(
            f"points must be a non-empty 2-D array, got shape {points.shape}"
        )
    if not 1 <= k <= points.shape[0]:
        raise ConfigurationError(
            f"k must be in [1, n_points={points.shape[0]}], got {k!r}"
        )
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(points, k, rng)
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(max_iterations):
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = distances.argmin(axis=1)
        new_centroids = centroids.copy()
        for cluster in range(k):
            members = points[labels == cluster]
            if len(members):
                new_centroids[cluster] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the farthest point.
                farthest = distances.min(axis=1).argmax()
                new_centroids[cluster] = points[farthest]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift <= tolerance:
            break
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = distances.argmin(axis=1)
    inertia = float(distances[np.arange(points.shape[0]), labels].sum())
    return KMeansResult(centroids=centroids, labels=labels, inertia=inertia)


def bic_score(points: np.ndarray, result: KMeansResult) -> float:
    """BIC-style score of a clustering (higher is better).

    SimPoint picks the smallest k whose BIC is close to the best
    observed; the exact spherical-Gaussian formulation follows the
    original X-means derivation.
    """
    n, d = points.shape
    k = result.k
    if n <= k:
        return -math.inf
    variance = result.inertia / (d * (n - k))
    if variance <= 0:
        variance = 1e-12
    sizes = np.bincount(result.labels, minlength=k)
    log_likelihood = 0.0
    for size in sizes:
        if size <= 0:
            continue
        log_likelihood += (
            size * math.log(size / n)
            - 0.5 * size * d * math.log(2.0 * math.pi * variance)
            - 0.5 * (size - 1) * d
        )
    parameters = k * (d + 1)
    return log_likelihood - 0.5 * parameters * math.log(n)


def choose_k(
    points: np.ndarray,
    max_k: int = 10,
    seed: int = 0,
    bic_threshold: float = 0.9,
) -> KMeansResult:
    """SimPoint's k selection: smallest k with near-best BIC.

    Runs k-means for k = 1..max_k, then returns the smallest k whose BIC
    reaches ``bic_threshold`` of the way from the worst to the best
    score.
    """
    points = np.asarray(points, dtype=np.float64)
    max_k = min(max_k, points.shape[0])
    results = [kmeans(points, k, seed=seed) for k in range(1, max_k + 1)]
    scores = [bic_score(points, result) for result in results]
    finite = [score for score in scores if math.isfinite(score)]
    if not finite:
        return results[0]
    best, worst = max(finite), min(finite)
    if best == worst:
        return results[0]
    cutoff = worst + bic_threshold * (best - worst)
    for result, score in zip(results, scores):
        if math.isfinite(score) and score >= cutoff:
            return result
    return results[-1]
