"""Synthetic workloads: the reproduction's substitute for SPEC2000.

Programs are modelled as schedules of loop-nest phases over data-access
patterns; six named configurations mimic the qualitative character of the
paper's benchmark suite (ammp, applu, gcc, gzip, mesa, vortex).  See
DESIGN.md §3.5.
"""

from .benchmarks import (
    BENCHMARK_FACTORIES,
    BENCHMARK_NAMES,
    make_ammp,
    make_applu,
    make_benchmark,
    make_gcc,
    make_gzip,
    make_mesa,
    make_vortex,
    paper_suite,
)
from .patterns import (
    DataPattern,
    PointerChase,
    RotatingPattern,
    SequentialStream,
    StridedSweep,
    ZipfReuse,
)
from .program import (
    INSTRUCTION_BYTES,
    Phase,
    Visit,
    Workload,
)

__all__ = [
    "BENCHMARK_FACTORIES",
    "BENCHMARK_NAMES",
    "DataPattern",
    "INSTRUCTION_BYTES",
    "Phase",
    "PointerChase",
    "RotatingPattern",
    "SequentialStream",
    "StridedSweep",
    "Visit",
    "Workload",
    "ZipfReuse",
    "make_ammp",
    "make_applu",
    "make_benchmark",
    "make_gcc",
    "make_gzip",
    "make_mesa",
    "make_vortex",
    "paper_suite",
]
