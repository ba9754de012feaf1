"""A set-associative cache with generation tracking.

This is the structural substrate under the whole study: it turns an
address/time stream into hits, misses, evictions, and — through an
attached :class:`~repro.cache.generations.GenerationTracker` — the
per-frame access intervals the limit analysis consumes.

The implementation favours a tight inner loop (the simulator calls
:meth:`SetAssociativeCache.access_block` millions of times) while keeping
replacement pluggable.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..errors import SimulationError
from .config import CacheConfig
from .generations import GenerationTracker
from .replacement import ReplacementPolicy, make_replacement_policy
from .stats import CacheStats

#: Tag value marking an empty frame.
INVALID = -1


class SetAssociativeCache:
    """One cache level.

    Parameters
    ----------
    config:
        Geometry and timing.
    replacement:
        Replacement policy name (``lru``/``fifo``/``random``) or instance.
    track_generations:
        When True, every access/fill is fed to a
        :class:`GenerationTracker` so intervals can be extracted after the
        run.  Disable for levels whose leakage is not under study (the L2
        in the paper's experiments) to save time and memory.
    """

    def __init__(
        self,
        config: CacheConfig,
        replacement: str | ReplacementPolicy = "lru",
        track_generations: bool = True,
    ) -> None:
        self.config = config
        if isinstance(replacement, str):
            replacement = make_replacement_policy(
                replacement, config.n_sets, config.associativity
            )
        if (
            replacement.n_sets != config.n_sets
            or replacement.associativity != config.associativity
        ):
            raise SimulationError(
                "replacement policy geometry does not match the cache"
            )
        self.replacement = replacement
        self.stats = CacheStats(name=config.name)
        self.tracker: Optional[GenerationTracker] = (
            GenerationTracker(config.n_lines) if track_generations else None
        )
        self._tags = [INVALID] * config.n_lines
        self._blocks_seen: Set[int] = set()
        self._assoc = config.associativity
        self._set_mask = config.n_sets - 1

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, address: int, time: int) -> bool:
        """Access a byte address at ``time``; returns True on a hit."""
        return self.access_block(address >> self.config.offset_bits, time)

    def access_block(self, block: int, time: int) -> bool:
        """Access a block number at ``time``; returns True on a hit.

        On a miss the block is filled immediately (the latency cost is the
        caller's concern), evicting the replacement policy's victim when
        the set is full.
        """
        return self.access_block_ex(block, time)[0]

    def access_block_ex(self, block: int, time: int) -> Tuple[bool, int]:
        """Like :meth:`access_block`, also returning the frame touched.

        Used by observers (e.g. the prefetchability annotator) that track
        per-frame state of their own.
        """
        set_index = block & self._set_mask
        base = set_index * self._assoc
        tags = self._tags
        stats = self.stats
        stats.accesses += 1
        # Hit scan.
        for way in range(self._assoc):
            if tags[base + way] == block:
                stats.hits += 1
                self.replacement.on_access(set_index, way, time)
                if self.tracker is not None:
                    self.tracker.on_hit(base + way, time)
                return True, base + way
        # Miss: find an empty way or evict the victim.
        stats.misses += 1
        if block not in self._blocks_seen:
            stats.compulsory_misses += 1
            self._blocks_seen.add(block)
        victim = -1
        for way in range(self._assoc):
            if tags[base + way] == INVALID:
                victim = way
                break
        if victim < 0:
            victim = self.replacement.victim_way(set_index)
            stats.evictions += 1
        tags[base + victim] = block
        self.replacement.on_access(set_index, victim, time)
        if self.tracker is not None:
            self.tracker.on_fill(base + victim, time)
        return False, base + victim

    def probe(self, block: int) -> bool:
        """Check residency without updating any state."""
        base = (block & self._set_mask) * self._assoc
        return any(self._tags[base + way] == block for way in range(self._assoc))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def finish(self, end_time: int) -> None:
        """Close the generation tracker's timelines at ``end_time``."""
        if self.tracker is not None:
            self.tracker.finish(end_time)

    def intervals(self):
        """Interval population of this cache (after :meth:`finish`)."""
        if self.tracker is None:
            raise SimulationError(
                f"cache {self.config.name!r} was built without generation tracking"
            )
        return self.tracker.intervals()

    def flush(self) -> None:
        """Invalidate every frame and reset replacement state.

        Statistics and any already-collected intervals are preserved; the
        tracker, if present, sees no event (a flush is not an access), so
        flushing mid-run is only meaningful for functional tests.
        """
        self._tags = [INVALID] * self.config.n_lines
        self.replacement.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SetAssociativeCache({self.config.describe()})"
