"""The paper's three-level memory hierarchy (§4.1).

L1 instruction and data caches backed by a unified L2, which is backed by
main memory.  An L1 miss costs :meth:`MemoryHierarchy.fill_latency`.
The hierarchy keeps no intervals: the simulation paths close and fold
the L1s' intervals themselves (:mod:`repro.prefetch.analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .cache import SetAssociativeCache
from .config import (
    CacheConfig,
    paper_l1d_config,
    paper_l1i_config,
    paper_l2_config,
)
from .stats import HierarchyStats


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of the full hierarchy.

    ``memory_latency`` is the L2-miss penalty to main memory in cycles.
    """

    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    memory_latency: int = 100

    def __post_init__(self) -> None:
        if self.memory_latency <= 0:
            raise ConfigurationError(
                f"memory latency must be positive, got {self.memory_latency!r}"
            )
        if len({self.l1i.line_bytes, self.l1d.line_bytes, self.l2.line_bytes}) != 1:
            raise ConfigurationError(
                "all levels must share one line size in this model"
            )

    @classmethod
    def paper(cls) -> "HierarchyConfig":
        """The Alpha 21264-like hierarchy of §4.1."""
        return cls(paper_l1i_config(), paper_l1d_config(), paper_l2_config())


class MemoryHierarchy:
    """L1I + L1D over a unified L2 over main memory.

    Parameters
    ----------
    config:
        Geometry/timing for all levels; defaults to the paper's.
    """

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        replacement: str = "lru",
    ) -> None:
        self.config = config if config is not None else HierarchyConfig.paper()
        self.l1i = SetAssociativeCache(self.config.l1i, replacement)
        self.l1d = SetAssociativeCache(self.config.l1d, replacement)
        self.l2 = SetAssociativeCache(self.config.l2, replacement)

    def fill_latency(self, block: int, time: int) -> int:
        """Latency in cycles of an L1 miss on ``block`` at ``time``.

        The miss walks the L2, and main memory behind it on an L2 miss.
        Stores are modelled write-allocate/write-back, so they take the
        same fill path as loads and instruction fetches.
        """
        if self.l2.access_block(block, time):
            return self.config.l2.hit_latency
        return self.config.l2.hit_latency + self.config.memory_latency

    def stats(self) -> HierarchyStats:
        """Per-level statistics."""
        stats = HierarchyStats()
        for cache in (self.l1i, self.l1d, self.l2):
            stats.levels[cache.config.name] = cache.stats
        return stats
