"""A set-associative cache.

This is the structural substrate under the whole study: it turns an
address/time stream into hits, misses, evictions and the frame each
access touched.  The scalar simulation path feeds those (hit, frame,
time) events to its interval collectors
(:class:`~repro.prefetch.analysis._CacheAnnotator`); the cache itself
keeps no interval.

The implementation favours a tight inner loop (the simulator calls
:meth:`SetAssociativeCache.access_block` millions of times) while keeping
replacement pluggable.
"""

from __future__ import annotations

from typing import Set, Tuple

from ..errors import SimulationError
from .config import CacheConfig
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
    """

    def __init__(
        self,
        config: CacheConfig,
        replacement: str | ReplacementPolicy = "lru",
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

        Used by observers (the scalar path's interval collectors) that
        track per-frame state of their own.
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
        return False, base + victim

    def probe(self, block: int) -> bool:
        """Check residency without updating any state."""
        base = (block & self._set_mask) * self._assoc
        return any(self._tags[base + way] == block for way in range(self._assoc))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Invalidate every frame and reset replacement state.

        Statistics are preserved, and a flush is not an access: no
        observer sees it, so flushing mid-run is only meaningful for
        functional tests.
        """
        self._tags = [INVALID] * self.config.n_lines
        self.replacement.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SetAssociativeCache({self.config.describe()})"
