"""Cache generation tracking: from access events to interval populations.

A cache *generation* (Kaxiras et al. [6]) is the residency of one memory
block in one cache frame: fill, zero or more re-accesses (the *live*
period), then a *dead* period until eviction.  The limit analysis needs,
for every frame, the cycle gaps between consecutive accesses — this
tracker converts the cache's event stream into an
:class:`~repro.core.intervals.IntervalSet` without retaining full access
histories.

Interval kinds produced:

* a gap between two accesses within a generation — ``NORMAL``;
* the gap from a generation's last access to its eviction (the fill of
  the next generation) — ``DEAD``;
* the gap from the start of observation to a frame's first fill, and the
  whole timeline of frames never used — ``COLD``;
* the gap from the final access to the end of simulation — ``DEAD`` (the
  oracle knows the program ends; data is never needed again).

The tracker serves the scalar per-access path, the oracle: it keeps one
record per interval, in preallocated, doubling numpy buffers.  The
batched kernel (:mod:`repro.cache.kernel`) never writes into it; it hands
each chunk's intervals to the annotators, which fold them into rows, and
closes its frames with the same :func:`closing_intervals`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import SimulationError
from ..core.intervals import IntervalKind, IntervalSet

#: Initial capacity of the interval buffers (doubles as needed).
_INITIAL_CAPACITY = 1024


def closing_intervals(
    last_access: np.ndarray, start_time: int, end_time: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lengths, kinds)`` of the intervals that close every frame at
    ``end_time``, in frame order.

    A frame last touched at ``t`` rests ``DEAD`` from ``t`` on; a frame
    never touched (``-1``) rests ``COLD`` from ``start_time``.  Empty
    intervals are dropped.
    """
    last = np.asarray(last_access, dtype=np.int64)
    if bool(np.any(last > end_time)):
        frame = int(np.argmax(last > end_time))
        raise SimulationError(
            f"end_time {end_time} precedes last access {int(last[frame])} "
            f"on frame {frame}"
        )
    cold = last == -1
    gaps = np.where(cold, end_time - start_time, end_time - last)
    kinds = np.where(
        cold, np.uint8(IntervalKind.COLD), np.uint8(IntervalKind.DEAD)
    )
    keep = gaps > 0
    return gaps[keep], kinds[keep]


class GenerationTracker:
    """Streaming per-frame interval collector.

    Parameters
    ----------
    n_frames:
        Number of cache frames being observed.
    start_time:
        Cycle at which observation begins (frames are empty/cold then).
    """

    def __init__(self, n_frames: int, start_time: int = 0) -> None:
        if n_frames <= 0:
            raise SimulationError(f"tracker needs frames, got {n_frames!r}")
        self.n_frames = n_frames
        self.start_time = start_time
        self._last_access = np.full(n_frames, -1, dtype=np.int64)
        self._lengths = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._kinds = np.empty(_INITIAL_CAPACITY, dtype=np.uint8)
        self._n = 0
        self._finished = False

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        capacity = len(self._lengths)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        lengths = np.empty(capacity, dtype=np.int64)
        kinds = np.empty(capacity, dtype=np.uint8)
        lengths[: self._n] = self._lengths[: self._n]
        kinds[: self._n] = self._kinds[: self._n]
        self._lengths = lengths
        self._kinds = kinds

    def _append(self, gap: int, kind: int) -> None:
        self._reserve(1)
        self._lengths[self._n] = gap
        self._kinds[self._n] = kind
        self._n += 1

    # ------------------------------------------------------------------
    # Event intake (called by the cache on every access)
    # ------------------------------------------------------------------

    def on_hit(self, frame: int, time: int) -> None:
        """A hit re-accesses the resident generation."""
        last = int(self._last_access[frame])
        if time < last:
            raise SimulationError(
                f"time moved backwards on frame {frame}: {last} -> {time}"
            )
        gap = time - last
        if gap > 0:
            self._append(gap, IntervalKind.NORMAL)
        self._last_access[frame] = time

    def on_fill(self, frame: int, time: int) -> None:
        """A miss fills the frame, starting a new generation.

        Closes the previous generation with a ``DEAD`` interval (or the
        frame's initial ``COLD`` interval if this is its first use).
        """
        last = int(self._last_access[frame])
        if last == -1:
            gap = time - self.start_time
            kind = IntervalKind.COLD
        else:
            if time < last:
                raise SimulationError(
                    f"time moved backwards on frame {frame}: {last} -> {time}"
                )
            gap = time - last
            kind = IntervalKind.DEAD
        if gap > 0:
            self._append(gap, kind)
        self._last_access[frame] = time

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finish(self, end_time: int) -> None:
        """Close every frame's timeline at ``end_time``.

        May be called once; further events are rejected afterwards.
        """
        if self._finished:
            raise SimulationError("tracker already finished")
        gaps, kinds = closing_intervals(
            self._last_access, self.start_time, end_time
        )
        self._reserve(len(gaps))
        self._lengths[self._n : self._n + len(gaps)] = gaps
        self._kinds[self._n : self._n + len(gaps)] = kinds
        self._n += len(gaps)
        self._finished = True

    def intervals(self) -> IntervalSet:
        """The collected interval population (call :meth:`finish` first)."""
        if not self._finished:
            raise SimulationError(
                "call finish(end_time) before extracting intervals"
            )
        return IntervalSet(
            self._lengths[: self._n].copy(),
            self._kinds[: self._n].copy(),
        )
