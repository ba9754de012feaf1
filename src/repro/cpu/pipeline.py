"""Pipeline timing model.

The paper times its traces on a SimpleScalar model of the Alpha 21264 — a
4-wide out-of-order superscalar.  The limit analysis consumes only the
*cycle stamps* of L1 accesses, so this substrate approximates the machine
with a base-CPI issue clock plus miss stalls:

* every instruction costs ``base_cpi`` cycles (at least 1/4, the
  21264's issue width);
* an instruction-fetch miss stalls the stream for the extra latency
  beyond the L1 hit time (the hit latency itself is pipelined away);
* a load miss stalls for that extra latency divided by ``load_mlp``,
  standing in for the misses an out-of-order core overlaps;
* stores retire through a store buffer and never stall.

This perturbs interval lengths by small constants relative to an
out-of-order model — negligible against inflection points of 10^3..10^5
cycles (DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

#: Fixed-point resolution of the CPI accumulator: fractions of a cycle are
#: carried in units of 2**-CPI_FP_BITS.  Integer arithmetic keeps the clock
#: exactly replayable in closed form — after ``n`` issues and no stalls the
#: cycle is ``(n * cpi_fp) >> CPI_FP_BITS`` — which is what lets the batched
#: kernel (:mod:`repro.cache.kernel`) compute issue times for whole chunks
#: in one vectorized expression while staying bit-identical to the scalar
#: path.  At 2**-20 cycles the quantization of ``base_cpi`` is below one
#: part per million, invisible next to the model's own approximations.
CPI_FP_BITS = 20

#: Instructions the 21264 issues per cycle: ``base_cpi`` may not go below
#: its reciprocal.
ISSUE_WIDTH = 4


def cpi_fixed_point(base_cpi: float) -> int:
    """``base_cpi`` in fixed-point accumulator units (2**-CPI_FP_BITS)."""
    return round(base_cpi * (1 << CPI_FP_BITS))


@dataclass(frozen=True)
class PipelineConfig:
    """Timing parameters of the issue model.

    Attributes
    ----------
    base_cpi: cycles per instruction charged by the core itself —
        dependency chains, branch mispredictions and issue-slot
        fragmentation that keep real machines far from their peak width.
        The 21264 sustains roughly 1.5 IPC on SPEC2000, so the default is
        0.65 CPI; memory stalls come on top.  Must be at least
        ``1/ISSUE_WIDTH``.
    stall_on_miss: charge miss latencies as stalls; disabling yields a
        fixed-IPC clock, useful for deterministic unit tests.
    load_mlp: memory-level-parallelism divisor applied to load-miss
        stalls.  The 21264 is out of order and overlaps independent
        misses; an in-order model charging full latency per load miss
        collapses IPC far below the machine the paper timed.  A divisor
        of 4 lands IPC in the 1-2 range typical of SPEC2000 on the 21264.
    store_buffer: when True (default), stores retire through a store
        buffer and never stall the stream.
    fetch_group_bytes: the fetch unit reads instructions in aligned
        groups of this many bytes (16 = the 21264's 4-instruction fetch
        slot); the I-cache sees one access per group, so a 64 B line is
        touched four times as a sequential run passes through it.
    """

    base_cpi: float = 0.65
    stall_on_miss: bool = True
    load_mlp: int = 4
    store_buffer: bool = True
    fetch_group_bytes: int = 16

    def __post_init__(self) -> None:
        if self.fetch_group_bytes <= 0 or (
            self.fetch_group_bytes & (self.fetch_group_bytes - 1)
        ):
            raise ConfigurationError(
                "fetch group size must be a positive power of two, got "
                f"{self.fetch_group_bytes!r}"
            )
        if self.base_cpi < 1.0 / ISSUE_WIDTH:
            raise ConfigurationError(
                f"base CPI {self.base_cpi!r} is below the issue-width bound "
                f"1/{ISSUE_WIDTH}"
            )
        if self.load_mlp <= 0:
            raise ConfigurationError(
                f"load MLP divisor must be positive, got {self.load_mlp!r}"
            )


class IssueClock:
    """Tracks the current cycle as instructions issue and stalls accrue."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.cycle = 0
        self._cpi_fp = cpi_fixed_point(self.config.base_cpi)
        self._cpi_accumulator = 0
        self.instructions = 0
        self.stall_cycles = 0

    def issue(self) -> int:
        """Issue one instruction; returns the cycle it issues in.

        The core's base CPI is charged through a fixed-point fractional
        accumulator (units of 2**-CPI_FP_BITS cycles), so a 0.65-CPI
        machine advances the clock by 0 or 1 cycles per instruction with
        the right long-run average, and the base issue time of the n-th
        instruction has the closed form ``(n * cpi_fp) >> CPI_FP_BITS``
        plus accrued stalls.
        """
        issued_at = self.cycle
        self.instructions += 1
        self._cpi_accumulator += self._cpi_fp
        advance = self._cpi_accumulator >> CPI_FP_BITS
        if advance:
            self._cpi_accumulator &= (1 << CPI_FP_BITS) - 1
            self.cycle += advance
        return issued_at

    def stall(self, extra_latency: int) -> None:
        """Stall the stream for ``extra_latency`` cycles beyond a hit."""
        if extra_latency < 0:
            raise ConfigurationError(
                f"stall cycles cannot be negative, got {extra_latency!r}"
            )
        if not self.config.stall_on_miss or extra_latency == 0:
            return
        self.cycle += extra_latency
        self.stall_cycles += extra_latency

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle so far."""
        return self.instructions / self.cycle if self.cycle else 0.0
