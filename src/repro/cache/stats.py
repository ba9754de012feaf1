"""Cache access statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class CacheStats:
    """Counters accumulated by one cache level during simulation."""

    name: str = ""
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    compulsory_misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.name}: {self.accesses} accesses, "
            f"{100 * self.miss_rate:.2f}% miss rate, "
            f"{self.evictions} evictions"
        )


@dataclass
class HierarchyStats:
    """Statistics for every level of a memory hierarchy."""

    levels: Dict[str, CacheStats] = field(default_factory=dict)

    def level(self, name: str) -> CacheStats:
        """Stats for one level, creating an empty record if needed."""
        if name not in self.levels:
            self.levels[name] = CacheStats(name=name)
        return self.levels[name]

    def describe(self) -> str:
        """Multi-line summary of every level."""
        return "\n".join(stats.describe() for stats in self.levels.values())
