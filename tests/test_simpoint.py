"""Tests for repro.simpoint — BBV profiling, k-means, selection."""

import numpy as np
import pytest

from repro.cpu.trace import TraceChunk
from repro.errors import ConfigurationError
from repro.simpoint.bbv import BBVProfiler, profile_trace
from repro.simpoint.kmeans import bic_score, choose_k, kmeans
from repro.simpoint.simpoint import select_simpoints


def phase_trace(phase_pcs, window=100, windows_per_phase=4, repeats=2):
    """A trace alternating between code regions, one chunk per window."""
    chunks = []
    for _ in range(repeats):
        for base in phase_pcs:
            for _ in range(windows_per_phase):
                pcs = base + 4 * (np.arange(window, dtype=np.int64) % 32)
                chunks.append(TraceChunk(pcs))
    return chunks


class TestBBV:
    def test_windows_and_normalization(self):
        chunks = phase_trace([0x0, 0x10000])
        profile = profile_trace(chunks, window_instructions=100)
        assert profile.n_windows == 16
        np.testing.assert_allclose(profile.vectors.sum(axis=1), 1.0)

    def test_distinct_phases_have_distant_vectors(self):
        chunks = phase_trace([0x0, 0x10000])
        profile = profile_trace(chunks, window_instructions=100)
        vectors = profile.vectors

        def distance(i, j):  # Manhattan, as SimPoint compares BBVs
            return float(np.abs(vectors[i] - vectors[j]).sum())

        assert distance(0, 4) > 1.0  # different phases
        assert distance(0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_partial_window_dropped_by_default(self):
        profiler = BBVProfiler(window_instructions=100)
        profiler.observe(TraceChunk(np.zeros(150, dtype=np.int64)))
        assert profiler.profile().n_windows == 1

    def test_no_complete_window_rejected(self):
        profiler = BBVProfiler(window_instructions=1000)
        profiler.observe(TraceChunk(np.zeros(10, dtype=np.int64)))
        with pytest.raises(ConfigurationError):
            profiler.profile()

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BBVProfiler(window_instructions=0)


class TestKMeans:
    def test_separable_clusters_found(self, rng):
        a = rng.normal(0.0, 0.05, size=(30, 3))
        b = rng.normal(5.0, 0.05, size=(30, 3))
        points = np.vstack([a, b])
        result = kmeans(points, k=2, seed=1)
        labels_a = set(result.labels[:30])
        labels_b = set(result.labels[30:])
        assert len(labels_a) == 1 and len(labels_b) == 1 and labels_a != labels_b

    def test_inertia_decreases_with_k(self, rng):
        points = rng.normal(size=(50, 4))
        inertias = [kmeans(points, k, seed=0).inertia for k in (1, 2, 5, 10)]
        assert all(a >= b for a, b in zip(inertias, inertias[1:]))

    def test_cluster_sizes_partition(self, rng):
        points = rng.normal(size=(40, 2))
        result = kmeans(points, 4, seed=0)
        assert np.bincount(result.labels, minlength=result.k).sum() == 40

    def test_choose_k_prefers_true_structure(self, rng):
        a = rng.normal(0.0, 0.02, size=(25, 2))
        b = rng.normal(3.0, 0.02, size=(25, 2))
        c = rng.normal(-3.0, 0.02, size=(25, 2))
        result = choose_k(np.vstack([a, b, c]), max_k=6, seed=0)
        assert result.k == 3

    def test_bic_finite(self, rng):
        points = rng.normal(size=(30, 2))
        result = kmeans(points, 3, seed=0)
        assert np.isfinite(bic_score(points, result))

    def test_invalid_k_rejected(self, rng):
        points = rng.normal(size=(5, 2))
        with pytest.raises(ConfigurationError):
            kmeans(points, 0)
        with pytest.raises(ConfigurationError):
            kmeans(points, 6)


class TestSimPoint:
    def test_selection_covers_phases(self):
        chunks = phase_trace([0x0, 0x10000], windows_per_phase=5, repeats=2)
        profile = profile_trace(chunks, window_instructions=100)
        windows, weights = select_simpoints(profile)
        assert len(windows) == 2
        assert list(windows) == sorted(windows)
        assert sum(weights) == pytest.approx(1.0)

    def test_weights_reflect_population(self):
        # Phase A runs 3x as many windows as phase B.
        chunks = phase_trace([0x0], windows_per_phase=9, repeats=1)
        chunks += phase_trace([0x10000], windows_per_phase=3, repeats=1)
        profile = profile_trace(chunks, window_instructions=100)
        windows, weights = select_simpoints(profile)
        assert len(windows) == 2
        assert max(weights) == pytest.approx(0.75)
