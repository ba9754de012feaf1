"""Deterministic shard assignment for multi-host sweeps.

A shard is named by ``--shard-index i --shard-count n``.  Assignment is
a stable hash of each point's *content address* (the SHA-256 job key),
so it depends only on the job parameters — never on expansion order,
host, Python hash seed, or which other points exist.  Any host can
compute its own slice from the spec alone; the union of all shards is
exactly the grid and shards are pairwise disjoint by construction.

Hashing keys rather than striding indices also keeps assignment stable
under spec *growth*: adding a scale to the spec moves no existing point
to a different shard, so the content-addressed cache keeps every result
already computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ConfigurationError
from .grid import SweepPoint

#: How many leading hex digits of the job key feed the shard hash.
#: 16 digits = 64 bits, far beyond any realistic shard count.
_HASH_DIGITS = 16


def shard_of(key: str, shard_count: int) -> int:
    """The shard that owns a job key, in ``[0, shard_count)``."""
    if shard_count < 1:
        raise ConfigurationError(
            f"shard count must be at least 1, got {shard_count!r}"
        )
    try:
        value = int(key[:_HASH_DIGITS], 16)
    except ValueError:
        raise ConfigurationError(
            f"job key {key!r} is not a hex content address"
        ) from None
    return value % shard_count


@dataclass(frozen=True)
class ShardAssignment:
    """One host's slice of the grid: shard ``index`` of ``count``."""

    index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(
                f"shard count must be at least 1, got {self.count!r}"
            )
        if not 0 <= self.index < self.count:
            raise ConfigurationError(
                f"shard index must lie in [0, {self.count}), got "
                f"{self.index!r}"
            )

    @property
    def dir_name(self) -> str:
        """This shard's directory in the sweep dir (``shard-<i>-of-<n>``)."""
        return f"shard-{self.index}-of-{self.count}"

    def owns(self, key: str) -> bool:
        """Whether this shard is responsible for a job key."""
        return shard_of(key, self.count) == self.index

    def describe(self) -> str:
        return f"shard {self.index + 1}/{self.count}"


def shard_points(
    points: List[SweepPoint], assignment: ShardAssignment
) -> List[SweepPoint]:
    """This shard's slice of the grid, preserving expansion order."""
    return [point for point in points if assignment.owns(point.key())]
