"""End-of-run interval tails.

A cache *generation* (Kaxiras et al. [6]) is the residency of one memory
block in one cache frame: fill, zero or more re-accesses (the *live*
period), then a *dead* period until eviction.  The limit analysis needs,
for every frame, the cycle gaps between consecutive accesses:

* a gap between two accesses within a generation — ``NORMAL``;
* the gap from a generation's last access to its eviction (the fill of
  the next generation) — ``DEAD``;
* the gap from cycle 0 to a frame's first fill, and the whole timeline
  of frames never used — ``COLD``;
* the gap from the final access to the end of simulation — ``DEAD`` (the
  oracle knows the program ends; data is never needed again).

Both simulation paths close the intervals that accesses end as they go:
the scalar path in :class:`~repro.prefetch.analysis._CacheAnnotator`,
the batched kernel (:mod:`repro.cache.kernel`) in its residual loop and
chunk assembly.  Both close the intervals no access ends, the last two
kinds above, with :func:`closing_intervals`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..core.intervals import IntervalKind


def closing_intervals(
    last_access: Sequence[int] | np.ndarray, end_time: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lengths, kinds)`` of the intervals that close every frame at
    ``end_time``, in frame order.

    A frame last touched at ``t`` (``last_access[frame]``) rests ``DEAD``
    from ``t`` on; a frame never touched (``-1``) rests ``COLD`` from
    cycle 0.  Empty intervals are dropped.
    """
    last = np.asarray(last_access, dtype=np.int64)
    if bool(np.any(last > end_time)):
        frame = int(np.argmax(last > end_time))
        raise SimulationError(
            f"end_time {end_time} precedes last access {int(last[frame])} "
            f"on frame {frame}"
        )
    cold = last == -1
    gaps = np.where(cold, end_time, end_time - last)
    kinds = np.where(
        cold, np.uint8(IntervalKind.COLD), np.uint8(IntervalKind.DEAD)
    )
    keep = gaps > 0
    return gaps[keep], kinds[keep]
