"""Six SPEC2000-like synthetic benchmarks (the paper's §4.1 suite).

SPEC2000 Alpha binaries cannot be run here, so each benchmark is a
synthetic :class:`~repro.workloads.program.Workload` built to exercise the
*access-interval structure* that drives the limit study (DESIGN.md §3.5).

Structure shared by all six — chosen to reproduce the interval-length
classes the paper's own numbers imply (Figures 7/8/9):

* **Code rotation.**  A handful of loop regions visited round-robin.
  Within a visit, a region's I-lines are re-fetched once per loop
  iteration (``body / IPC`` cycles — solidly inside the paper's
  (1057, 10K] class for the 3-6K-instruction bodies used here); between
  visits they idle for the rest of the rotation (the >10K class, tens of
  kilocycles).  Tight kernels feed the (0, 6] and (6, 1057] classes.
* **Hot/cold data split.**  Most loads walk a small *hot* working set
  (stack/locals/top-of-heap) in unit-stride bursts: intra-burst gaps land
  in (0, 6], and a line's burst-to-burst gap — one hot-sweep period, a
  few kilocycles — lands in (1057, 10K].  A minority of loads touch
  *cold* structures (large arrays, linked heaps): the per-frame event
  rate is so low that cold frames rest for hundreds of kilocycles, which
  is what makes sleep mode dominant in the data cache (Figure 7(b)).
  Each ``make_*`` builder states its split in a local ``mix(cold, w, i)``
  that weights the hot sweep, a column sweep, a reuse pool and the cold
  pattern (weight ``w``).
* The FP pair (ammp, applu) leans colder (more streaming, smaller hot
  set) than the integer codes, mirroring why the leakage literature
  singles them out as sleep-friendly.

The knobs were calibrated against the paper's aggregate numbers; per-
benchmark absolute values are synthetic, but the cross-benchmark
contrasts follow the suite's published characterization.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import ConfigurationError
from .patterns import (
    DataPattern,
    PointerChase,
    RotatingPattern,
    SequentialStream,
    StridedSweep,
    ZipfReuse,
)
from .program import Phase, Visit, Workload

#: Base address of instruction memory.
CODE_BASE = 0x0100_0000

#: Base address of data memory (2 MB aligned so pool placement below can
#: dictate both L1 and L2 set offsets exactly).
DATA_BASE = 0x4000_0000

#: L1D line-index space the pools are placed against (64 KB / 64 B).
_L1_LINES = 1024

#: Paper benchmark names, in Figure 8's order.
BENCHMARK_NAMES = ["ammp", "applu", "gcc", "gzip", "mesa", "vortex"]


class PoolAllocator:
    """Places data pools at controlled cache-index offsets.

    Every pool gets a private 8 MB address region (so pools never alias
    in main memory), an exact L1D line-index offset (so hot pools can be
    pinned to a known set slice), and a spread of L2 offsets (so the cold
    working set lives across L2 instead of thrashing one L2 range).
    """

    def __init__(self) -> None:
        self._counter = 0

    def base(self, l1_line_offset: int | None = None) -> int:
        """Allocate a pool base with the given (or spread) L1 offset."""
        unique = self._counter
        self._counter += 1
        if l1_line_offset is None:
            l1_line_offset = (unique * 149) % _L1_LINES
        if not 0 <= l1_line_offset < _L1_LINES:
            raise ConfigurationError(
                f"L1 line offset must be in [0, {_L1_LINES}), got {l1_line_offset!r}"
            )
        l2_region = unique % 32
        return DATA_BASE + unique * (8 << 20) + (l2_region * 2048 + l1_line_offset) * 64


def _rounds(base_rounds: int, scale: float) -> int:
    """Scale a benchmark's round count, keeping at least one round."""
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale!r}")
    return max(1, int(round(base_rounds * scale)))


def _code_phases(
    names: List[str],
    bodies: List[int],
    patterns: List,
    loads: List[float],
    stores: List[float],
    seed: int,
) -> List[Phase]:
    """Lay code regions contiguously from CODE_BASE and build phases."""
    phases: List[Phase] = []
    offset = 0
    for name, body, pattern, load, store in zip(names, bodies, patterns, loads, stores):
        phases.append(
            Phase(name, CODE_BASE + offset, body, load, store, pattern, seed=seed)
        )
        offset += body * 4
    return phases


def make_gzip(scale: float = 1.0, seed: int = 11) -> Workload:
    """Compression: hot tight loop, streaming window, hash-table reuse."""
    alloc = PoolAllocator()
    hot = StridedSweep(alloc.base(384), n_elements=704, stride_bytes=8)
    hashes = ZipfReuse(alloc.base(560), n_lines=48, alpha=1.1, seed=seed)
    col = StridedSweep(alloc.base(672), n_elements=64, stride_bytes=24)

    def mix(cold: DataPattern, w: float, i: int):
        return [(hot, 0.75 - w), (col, 0.05), (cold, w), (hashes, 0.20)]

    names = ["match", "deflate", "window", "io", "tables", "lz"]
    bodies = [24, 4608, 1088, 3328, 4672, 3456]
    colds = [
        SequentialStream(alloc.base(), element_bytes=4, buffer_bytes=1 << 20),
        SequentialStream(alloc.base(), element_bytes=4, buffer_bytes=1 << 21),
        StridedSweep(alloc.base(), n_elements=20_480, stride_bytes=4),
        SequentialStream(alloc.base(), element_bytes=4, buffer_bytes=1 << 20),
        StridedSweep(alloc.base(), n_elements=24_576, stride_bytes=4),
        StridedSweep(alloc.base(), n_elements=24_576, stride_bytes=4),
    ]
    patterns = [mix(cold, 0.05, i) for i, cold in enumerate(colds)]
    loads = [0.30, 0.24, 0.26, 0.22, 0.24, 0.26]
    stores = [0.05, 0.10, 0.06, 0.14, 0.08, 0.08]
    phases = _code_phases(names, bodies, patterns, loads, stores, seed)
    schedule = [
        Visit(0, 11_000),
        Visit(1, 46_000),
        Visit(2, 40_000),
        Visit(0, 11_000),
        Visit(3, 38_000),
        Visit(4, 43_000),
        Visit(5, 39_000),
    ]
    return Workload("gzip", phases, schedule, rounds=_rounds(8, scale), seed=seed)


def make_gcc(scale: float = 1.0, seed: int = 23) -> Workload:
    """Compilation: very large code footprint, pointer-heavy cold heap."""
    alloc = PoolAllocator()
    hot = StridedSweep(alloc.base(128), n_elements=768, stride_bytes=8)
    symbols = ZipfReuse(alloc.base(720), n_lines=64, alpha=1.0, seed=seed)
    col = StridedSweep(alloc.base(912), n_elements=96, stride_bytes=24)

    def mix(cold: DataPattern, w: float, i: int):
        return [(hot, 0.76 - w), (col, 0.06), (cold, w), (symbols, 0.18)]

    names = ["parse", "typeck", "rtlgen", "gcse", "sched", "regalloc", "reload", "emit"]
    bodies = [2048, 2304, 2560, 2816, 4480, 2816, 1152, 2048]
    chases = [
        PointerChase(alloc.base(), n_nodes=24_576, node_bytes=16, seed=seed + r)
        for r in range(4)
    ]
    streams = [
        StridedSweep(alloc.base(), n_elements=24_576 + 2_048 * r, stride_bytes=4)
        for r in range(8)
    ]
    patterns = []
    for i in range(8):
        base = mix(streams[i], 0.035, i)
        base.append((chases[i % 4], 0.006))
        patterns.append(base)
    loads = [0.24] * 8
    stores = [0.09] * 8
    phases = _code_phases(names, bodies, patterns, loads, stores, seed)
    schedule = [Visit(i, 23_000) for i in range(len(phases))]
    return Workload("gcc", phases, schedule, rounds=_rounds(9, scale), seed=seed)


def make_mesa(scale: float = 1.0, seed: int = 37) -> Workload:
    """3D rendering: medium loops, vertex sweeps, streaming textures."""
    alloc = PoolAllocator()
    hot = StridedSweep(alloc.base(256), n_elements=640, stride_bytes=8)
    state = ZipfReuse(alloc.base(32), n_lines=56, alpha=1.2, seed=seed)
    col = StridedSweep(alloc.base(128), n_elements=128, stride_bytes=24)

    def mix(cold: DataPattern, w: float, i: int):
        return [(hot, 0.72 - w), (col, 0.10), (cold, w), (state, 0.18)]

    names = ["transform", "clip", "texture", "raster", "state"]
    bodies = [3200, 3456, 3584, 6016, 1152]
    colds = [
        StridedSweep(alloc.base(), n_elements=24_576, stride_bytes=4),
        StridedSweep(alloc.base(), n_elements=20_480, stride_bytes=4),
        SequentialStream(alloc.base(), element_bytes=4, buffer_bytes=1 << 21),
        StridedSweep(alloc.base(), n_elements=32_768, stride_bytes=4),
        StridedSweep(alloc.base(), n_elements=16_384, stride_bytes=4),
    ]
    patterns = [mix(cold, 0.05, i) for i, cold in enumerate(colds)]
    loads = [0.28, 0.22, 0.32, 0.24, 0.18]
    stores = [0.08, 0.06, 0.04, 0.14, 0.06]
    phases = _code_phases(names, bodies, patterns, loads, stores, seed)
    schedule = [
        Visit(0, 46_000),
        Visit(1, 43_000),
        Visit(2, 50_000),
        Visit(3, 53_000),
        Visit(4, 42_000),
    ]
    return Workload("mesa", phases, schedule, rounds=_rounds(8, scale), seed=seed)


def make_vortex(scale: float = 1.0, seed: int = 41) -> Workload:
    """Object database: large code, pointer chasing, wide heap reuse."""
    alloc = PoolAllocator()
    hot = StridedSweep(alloc.base(448), n_elements=704, stride_bytes=8)
    dir_cache = ZipfReuse(alloc.base(640), n_lines=72, alpha=0.95, seed=seed)
    col = StridedSweep(alloc.base(832), n_elements=128, stride_bytes=24)
    cold_heap = RotatingPattern(
        [
            PointerChase(alloc.base(), n_nodes=16_384, node_bytes=16, seed=seed + r)
            for r in range(3)
        ]
    )

    def mix(cold: DataPattern, w: float, i: int):
        return [(hot, 0.71 - w), (col, 0.10), (cold, w), (dir_cache, 0.19)]

    bodies = [1536, 1792, 2048, 2304, 2560, 3264, 2304, 1088, 1792, 2048]
    names = [f"txn{i}" for i in range(len(bodies))]
    streams = [
        StridedSweep(alloc.base(), n_elements=20_480 + 2_048 * i, stride_bytes=4)
        for i in range(len(bodies))
    ]
    patterns = []
    for i in range(len(bodies)):
        base = mix(streams[i], 0.035, i)
        base.append((cold_heap, 0.006))
        patterns.append(base)
    loads = [0.26] * len(bodies)
    stores = [0.11] * len(bodies)
    phases = _code_phases(names, bodies, patterns, loads, stores, seed)
    schedule = [Visit(i, 18_000) for i in range(len(bodies))]
    return Workload("vortex", phases, schedule, rounds=_rounds(9, scale), seed=seed)


def make_ammp(scale: float = 1.0, seed: int = 53) -> Workload:
    """Molecular dynamics: tiny kernels, cold streaming molecule arrays."""
    alloc = PoolAllocator()
    hot = StridedSweep(alloc.base(192), n_elements=512, stride_bytes=8)
    locals_pool = ZipfReuse(alloc.base(80), n_lines=40, alpha=1.1, seed=seed)
    col = StridedSweep(alloc.base(352), n_elements=256, stride_bytes=24)

    def mix(cold: DataPattern, w: float, i: int):
        return [(hot, 0.70 - w), (col, 0.16), (cold, w), (locals_pool, 0.14)]

    names = ["nonbond", "bond", "nlist", "integrate"]
    bodies = [3328, 3456, 5888, 1152]
    colds = [
        StridedSweep(alloc.base(), n_elements=40_960, stride_bytes=4),
        StridedSweep(alloc.base(), n_elements=32_768, stride_bytes=4),
        StridedSweep(alloc.base(), n_elements=24_576, stride_bytes=8),
        StridedSweep(alloc.base(), n_elements=32_768, stride_bytes=4),
    ]
    patterns = [mix(cold, 0.05, i) for i, cold in enumerate(colds)]
    loads = [0.34, 0.30, 0.28, 0.26]
    stores = [0.10, 0.12, 0.06, 0.16]
    phases = _code_phases(names, bodies, patterns, loads, stores, seed)
    schedule = [
        Visit(0, 101_000),
        Visit(1, 51_000),
        Visit(2, 40_000),
        Visit(3, 38_000),
    ]
    return Workload("ammp", phases, schedule, rounds=_rounds(8, scale), seed=seed)


def make_applu(scale: float = 1.0, seed: int = 61) -> Workload:
    """LU solver: small kernels alternating sweeps over large grids."""
    alloc = PoolAllocator()
    hot = StridedSweep(alloc.base(320), n_elements=512, stride_bytes=8)
    pivots = ZipfReuse(alloc.base(896), n_lines=48, alpha=1.0, seed=seed)
    col = StridedSweep(alloc.base(64), n_elements=256, stride_bytes=24)

    def mix(cold: DataPattern, w: float, i: int):
        return [(hot, 0.69 - w), (col, 0.16), (cold, w), (pivots, 0.15)]

    names = ["jacld", "blts", "jacu", "buts", "rhs"]
    bodies = [3328, 3456, 1152, 3456, 5760]
    colds = [
        StridedSweep(alloc.base(), n_elements=36_864, stride_bytes=4),
        StridedSweep(alloc.base(), n_elements=36_864, stride_bytes=4),
        StridedSweep(alloc.base(), n_elements=28_672, stride_bytes=4),
        StridedSweep(alloc.base(), n_elements=28_672, stride_bytes=8),
        StridedSweep(alloc.base(), n_elements=40_960, stride_bytes=4),
    ]
    patterns = [mix(cold, 0.05, i) for i, cold in enumerate(colds)]
    loads = [0.30, 0.32, 0.30, 0.32, 0.28]
    stores = [0.12, 0.10, 0.12, 0.10, 0.08]
    phases = _code_phases(names, bodies, patterns, loads, stores, seed)
    schedule = [
        Visit(0, 43_000),
        Visit(1, 50_000),
        Visit(2, 43_000),
        Visit(3, 50_000),
        Visit(4, 47_000),
    ]
    return Workload("applu", phases, schedule, rounds=_rounds(8, scale), seed=seed)


#: Factory registry, keyed by benchmark name.
BENCHMARK_FACTORIES: Dict[str, Callable[..., Workload]] = {
    "ammp": make_ammp,
    "applu": make_applu,
    "gcc": make_gcc,
    "gzip": make_gzip,
    "mesa": make_mesa,
    "vortex": make_vortex,
}


def make_benchmark(name: str, scale: float = 1.0) -> Workload:
    """Build one paper benchmark by name."""
    try:
        factory = BENCHMARK_FACTORIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; known: {BENCHMARK_NAMES}"
        ) from None
    return factory(scale=scale)


def paper_suite(scale: float = 1.0) -> Dict[str, Workload]:
    """All six benchmarks of the paper's §4.1 suite."""
    return {name: make_benchmark(name, scale) for name in BENCHMARK_NAMES}
