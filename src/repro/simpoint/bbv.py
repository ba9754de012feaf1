"""Basic-block-vector (BBV) profiling (Sherwood et al. [14]).

SimPoint characterizes program phases by counting, for each fixed-size
window of the instruction stream, how often each basic block executes.
Windows with similar vectors execute similar code, so a handful of
representative windows can stand in for the whole run.

Our traces carry PCs rather than compiler basic blocks, so blocks are
approximated by aligned 64 B code regions (one cache line ≈ a few basic
blocks) — the standard approximation when profiling at trace level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from ..cpu.trace import TraceChunk
from ..errors import ConfigurationError

#: log2 of the code-region size (64 B) that stands in for a basic block.
BLOCK_SHIFT = 6


@dataclass(frozen=True)
class BBVProfile:
    """Per-window basic-block execution frequencies.

    Attributes
    ----------
    vectors: (n_windows, n_blocks) row-normalized frequency matrix, one
        column per aligned code region the trace executed.
    window_instructions: instructions per profiling window.
    """

    vectors: np.ndarray
    window_instructions: int

    @property
    def n_windows(self) -> int:
        """Number of profiled windows."""
        return int(self.vectors.shape[0])


class BBVProfiler:
    """Streams a trace into a :class:`BBVProfile`.

    ``window_instructions`` is the instructions per window (the paper's
    SimPoint methodology uses fixed windows; anything from 10K to 100M
    works — smaller windows suit our shorter synthetic runs).
    """

    def __init__(self, window_instructions: int = 100_000) -> None:
        if window_instructions <= 0:
            raise ConfigurationError(
                f"window size must be positive, got {window_instructions!r}"
            )
        self.window_instructions = window_instructions
        self._windows: List[Dict[int, int]] = []
        self._current: Dict[int, int] = {}
        self._filled = 0

    def observe(self, chunk: TraceChunk) -> None:
        """Accumulate one trace chunk into the profile."""
        pcs = chunk.pcs
        position = 0
        n = len(chunk)
        while position < n:
            take = min(n - position, self.window_instructions - self._filled)
            blocks, counts = np.unique(
                pcs[position : position + take] >> BLOCK_SHIFT,
                return_counts=True,
            )
            current = self._current
            for block, count in zip(blocks, counts):
                block = int(block)
                current[block] = current.get(block, 0) + int(count)
            self._filled += take
            position += take
            if self._filled == self.window_instructions:
                self._windows.append(self._current)
                self._current = {}
                self._filled = 0

    def profile(self) -> BBVProfile:
        """Finalize into a row-normalized :class:`BBVProfile`.

        A trailing window that did not fill completely is discarded
        (SimPoint's convention).
        """
        windows = self._windows
        if not windows:
            raise ConfigurationError(
                "no complete profiling window; shrink window_instructions"
            )
        block_ids = sorted({block for window in windows for block in window})
        index = {block: i for i, block in enumerate(block_ids)}
        vectors = np.zeros((len(windows), len(block_ids)), dtype=np.float64)
        for row, window in enumerate(windows):
            for block, count in window.items():
                vectors[row, index[block]] = count
        totals = vectors.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return BBVProfile(
            vectors=vectors / totals,
            window_instructions=self.window_instructions,
        )


def profile_trace(
    chunks: Iterable[TraceChunk], window_instructions: int = 100_000
) -> BBVProfile:
    """Profile a whole trace in one call."""
    profiler = BBVProfiler(window_instructions)
    for chunk in chunks:
        profiler.observe(chunk)
    return profiler.profile()
