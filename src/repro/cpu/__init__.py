"""CPU substrate: traces, pipeline timing and the simulation result.

The reproduction's substitute for SimpleScalar's sim-alpha (DESIGN.md
§3.4): traces of retired instructions are timed by a base-CPI issue clock
with miss stalls (:mod:`repro.cpu.pipeline`) and driven through the cache hierarchy to produce the
per-frame access-interval populations the limit study consumes.  The
simulator itself is :class:`repro.prefetch.AnnotatingSimulator`.
"""

from .pipeline import IssueClock, PipelineConfig
from .simulator import SimulationResult
from .trace import (
    LOAD,
    NO_ACCESS,
    STORE,
    TraceChunk,
    merge_chunks,
)

__all__ = [
    "IssueClock",
    "LOAD",
    "NO_ACCESS",
    "PipelineConfig",
    "STORE",
    "SimulationResult",
    "TraceChunk",
    "merge_chunks",
]
