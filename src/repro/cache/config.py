"""Cache geometry configuration.

The paper's memory hierarchy (§4.1, Alpha 21264-like): a 64 KB 2-way L1
instruction cache with single-cycle hits, a 64 KB 2-way L1 data cache with
3-cycle hits, and a unified 2 MB direct-mapped L2 with 7-cycle hits; LRU
replacement throughout.  :func:`paper_l1i_config` and friends build those
exact geometries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Attributes
    ----------
    name: label used in statistics and reports.
    size_bytes: total data capacity; must be a power of two.
    line_bytes: line (block) size; must be a power of two.
    associativity: ways per set; must divide the line count.
    hit_latency: cycles to service a hit.
    """

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int
    hit_latency: int

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.size_bytes):
            raise ConfigurationError(
                f"cache size must be a power of two, got {self.size_bytes!r}"
            )
        if not _is_power_of_two(self.line_bytes):
            raise ConfigurationError(
                f"line size must be a power of two, got {self.line_bytes!r}"
            )
        if self.line_bytes > self.size_bytes:
            raise ConfigurationError(
                f"line size {self.line_bytes} exceeds cache size {self.size_bytes}"
            )
        if self.associativity <= 0:
            raise ConfigurationError(
                f"associativity must be positive, got {self.associativity!r}"
            )
        if self.n_lines % self.associativity != 0:
            raise ConfigurationError(
                f"{self.n_lines} lines cannot be split into "
                f"{self.associativity}-way sets"
            )
        if not _is_power_of_two(self.n_sets):
            raise ConfigurationError(
                f"set count must be a power of two, got {self.n_sets}"
            )
        if self.hit_latency <= 0:
            raise ConfigurationError(
                f"hit latency must be positive, got {self.hit_latency!r}"
            )

    @property
    def n_lines(self) -> int:
        """Total cache frames."""
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.n_lines // self.associativity

    @property
    def offset_bits(self) -> int:
        """Bits of byte offset within a line."""
        return self.line_bytes.bit_length() - 1

    @property
    def index_bits(self) -> int:
        """Bits of set index."""
        return self.n_sets.bit_length() - 1

    def describe(self) -> str:
        """Human-readable one-liner, e.g. '64KB 2-way 64B-line (1-cycle)'."""
        size = (
            f"{self.size_bytes // (1024 * 1024)}MB"
            if self.size_bytes >= 1024 * 1024
            else f"{self.size_bytes // 1024}KB"
        )
        way = "direct-mapped" if self.associativity == 1 else f"{self.associativity}-way"
        return f"{size} {way} {self.line_bytes}B-line ({self.hit_latency}-cycle)"


def paper_l1i_config() -> CacheConfig:
    """The paper's L1 instruction cache: 64 KB, 2-way, 1-cycle hits."""
    return CacheConfig("L1I", 64 * 1024, 64, 2, 1)


def paper_l1d_config() -> CacheConfig:
    """The paper's L1 data cache: 64 KB, 2-way, 3-cycle hits."""
    return CacheConfig("L1D", 64 * 1024, 64, 2, 3)


def paper_l2_config() -> CacheConfig:
    """The paper's unified L2: 2 MB, direct-mapped, 7-cycle hits."""
    return CacheConfig("L2", 2 * 1024 * 1024, 64, 1, 7)
