"""Trace-driven simulation: traces in, interval populations out.

:class:`TraceSimulator` walks a trace through the pipeline timing model
and the memory hierarchy, producing a :class:`SimulationResult` holding

* the per-frame access-interval populations of the L1 instruction and
  data caches (what the limit analysis consumes),
* hierarchy statistics, cycle count and IPC.

Two execution paths produce bit-identical results: the batched kernel
(:mod:`repro.cache.kernel`), used whenever the hierarchy supports it,
and the scalar per-access loop, kept both as a fallback for exotic
configurations and as the equivalence oracle the kernel is tested
against (``kernel=False`` forces it).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..cache.hierarchy import HierarchyConfig, MemoryHierarchy
from ..cache.kernel import (
    SimulationProfile,
    kernel_supported,
    resolve_kernel_mode,
    run_batched,
    validated_chunks,
)
from ..cache.stats import HierarchyStats
from ..core.intervals import IntervalPopulation, IntervalSet
from ..errors import SimulationError
from .pipeline import IssueClock, PipelineConfig
from .trace import NO_ACCESS, STORE, TraceChunk


@dataclass(frozen=True)
class SimulationResult:
    """Everything a limit-study experiment needs from one run.

    A simulator fills the interval fields with the trackers' raw
    :class:`IntervalSet`; a simulation job's result holds their
    :class:`IntervalPopulation` reduction instead (same ``len``).
    """

    cycles: int
    instructions: int
    stall_cycles: int
    l1i_intervals: IntervalSet | IntervalPopulation
    l1d_intervals: IntervalSet | IntervalPopulation
    stats: HierarchyStats
    #: Where the run's accesses and wall time went.  Excluded from
    #: equality: a batched and a scalar run of the same trace compare
    #: equal on every simulated quantity.
    profile: Optional[SimulationProfile] = field(
        default=None, compare=False, repr=False
    )

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def intervals_for(self, which: str) -> IntervalSet | IntervalPopulation:
        """Interval population by cache name (``'l1i'`` or ``'l1d'``)."""
        key = which.lower()
        if key in ("l1i", "icache", "i"):
            return self.l1i_intervals
        if key in ("l1d", "dcache", "d"):
            return self.l1d_intervals
        raise SimulationError(f"unknown cache selector {which!r}")


class TraceSimulator:
    """Drives a memory hierarchy with an instruction trace."""

    def __init__(
        self,
        hierarchy: Optional[MemoryHierarchy] = None,
        pipeline: Optional[PipelineConfig] = None,
        kernel: Optional[bool | str] = None,
    ) -> None:
        self.hierarchy = (
            hierarchy if hierarchy is not None else MemoryHierarchy(HierarchyConfig.paper())
        )
        self.clock = IssueClock(pipeline)
        #: None = auto (``REPRO_KERNEL`` or best available when the
        #: hierarchy supports the kernel); ``"scalar"``/``"batched"``/
        #: ``"compiled"`` select explicitly (raising if the hierarchy is
        #: unsupported); legacy bools mean batched (True) / scalar (False).
        self.kernel = kernel
        self._ran = False

    def run(self, trace: Iterable[TraceChunk] | TraceChunk) -> SimulationResult:
        """Consume the whole trace and return the collected results.

        A simulator instance runs one trace; build a fresh instance (and
        hierarchy) per workload.
        """
        if self._ran:
            raise SimulationError(
                "TraceSimulator instances are single-use; build a new one"
            )
        self._ran = True
        if isinstance(trace, TraceChunk):
            trace = (trace,)

        mode = resolve_kernel_mode(self.kernel)
        if mode == "scalar":
            return self._run_scalar(trace)
        if self.kernel is None and not kernel_supported(self.hierarchy):
            # Auto-selection falls back to the scalar oracle for exotic
            # hierarchies; an explicit request lets run_batched raise.
            return self._run_scalar(trace)
        return self._run_batched(trace, mode)

    def _run_batched(
        self, trace: Iterable[TraceChunk], mode: str = "batched"
    ) -> SimulationResult:
        hierarchy = self.hierarchy
        outcome = run_batched(
            hierarchy, self.clock, trace,
            residual="compiled" if mode == "compiled" else "python",
        )
        return SimulationResult(
            cycles=outcome.cycles,
            instructions=outcome.instructions,
            stall_cycles=outcome.stall_cycles,
            l1i_intervals=hierarchy.l1i.intervals(),
            l1d_intervals=hierarchy.l1d.intervals(),
            stats=hierarchy.stats(),
            profile=outcome.profile,
        )

    def _run_scalar(self, trace: Iterable[TraceChunk]) -> SimulationResult:
        hierarchy = self.hierarchy
        clock = self.clock
        config = clock.config
        l1i_hit = hierarchy.config.l1i.hit_latency
        l1d_hit = hierarchy.config.l1d.hit_latency
        load_mlp = config.load_mlp
        store_buffer = config.store_buffer
        fetch = hierarchy.fetch_instruction
        data = hierarchy.access_data
        issue = clock.issue
        stall = clock.stall
        # The fetch unit reads aligned instruction groups; the I-cache is
        # accessed once per group, not once per instruction.
        group_bits = config.fetch_group_bytes.bit_length() - 1
        prev_igroup = -1
        accesses_before = hierarchy.l1i.stats.accesses + hierarchy.l1d.stats.accesses
        started = _time.perf_counter()

        # Same entry validation as the batched kernel: malformed chunks
        # fail with a named error, not garbage deep in the access loop.
        for chunk in validated_chunks(trace):
            pcs = chunk.pcs
            addrs = chunk.data_addresses
            kinds = chunk.data_kinds
            for i in range(len(chunk)):
                now = issue()
                pc = int(pcs[i])
                igroup = pc >> group_bits
                if igroup != prev_igroup:
                    prev_igroup = igroup
                    latency = fetch(pc, now)
                    if latency > l1i_hit:
                        # Front-end misses stall the in-order fetch fully.
                        stall(latency - l1i_hit)
                kind = kinds[i]
                if kind != NO_ACCESS:
                    is_store = kind == STORE
                    latency = data(int(addrs[i]), now, is_store)
                    if latency > l1d_hit and not (is_store and store_buffer):
                        # Load misses overlap via the MLP divisor.
                        stall(-(-(latency - l1d_hit) // load_mlp))

        end_time = clock.cycle + 1
        hierarchy.finish(end_time)
        accesses = (
            hierarchy.l1i.stats.accesses + hierarchy.l1d.stats.accesses
            - accesses_before
        )
        profile = SimulationProfile(
            mode="scalar",
            fast_path_accesses=0,
            slow_path_accesses=accesses,
            stage_seconds={"scalar": _time.perf_counter() - started},
            residual_impl="scalar",
        )
        return SimulationResult(
            cycles=end_time,
            instructions=clock.instructions,
            stall_cycles=clock.stall_cycles,
            l1i_intervals=hierarchy.l1i.intervals(),
            l1d_intervals=hierarchy.l1d.intervals(),
            stats=hierarchy.stats(),
            profile=profile,
        )


def simulate_trace(
    trace: Iterable[TraceChunk] | TraceChunk,
    hierarchy: Optional[MemoryHierarchy] = None,
    pipeline: Optional[PipelineConfig] = None,
    kernel: Optional[bool | str] = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`TraceSimulator`.

    Chunks are validated up front on both execution paths (dtype, shape,
    data-kind/address consistency; the kernel additionally rejects
    non-monotonic access times): malformed input raises
    :class:`~repro.errors.TraceValidationError` naming the offending
    chunk instead of failing deep inside the simulation loop.
    """
    return TraceSimulator(hierarchy, pipeline, kernel=kernel).run(trace)
