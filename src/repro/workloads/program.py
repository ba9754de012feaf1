"""Synthetic program model: phases of loop nests over data patterns.

A :class:`Workload` is a schedule of :class:`Phase` visits.  Each phase
models one code region — a loop nest whose body spans a contiguous range
of instruction addresses — paired with one or more data-access behaviours.
The emitted trace is what the paper gets from running a SPEC2000 binary
through SimpleScalar: a stream of (pc, optional data access) records.

Phase structure is what produces the paper's interval distributions
(Figure 2's two-level loop is the canonical example):

* instructions *within* a loop body re-touch their I-cache line once per
  loop iteration — short intervals, proportional to body size;
* a region's lines idle between visits to its phase — long intervals,
  proportional to the schedule's revisit period;
* the data side inherits whatever the phase's patterns produce.

The memory-instruction layout is *static*, as in a real loop body: which
body positions are loads/stores, and which data structure each position
touches, is fixed when the phase is built.  A position bound to a strided
structure therefore emits a constant per-PC stride (the loop advances the
structure by a whole iteration between that PC's executions) — exactly
the regularity the paper's stride-based prefetcher (Farkas-style, per
static load) is designed to catch, while positions bound to irregular
structures stay unpredictable.

Everything is generated in vectorized batches and is deterministic given
the workload seed.  A phase lays out one loop iteration in execution
order once; each visit is then slices of that layout tiled over the
bodies it spans, with every pattern component drawing one address per
position bound to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cpu.trace import LOAD, NO_ACCESS, STORE, TraceChunk
from ..errors import ConfigurationError
from .patterns import DataPattern

#: Bytes per instruction (Alpha ISA: fixed 4-byte encoding).
INSTRUCTION_BYTES = 4

#: A phase's data behaviour: one pattern, or weighted (pattern, weight)
#: components statically assigned to the body's memory positions.
PatternSpec = Union[DataPattern, Sequence[Tuple[DataPattern, float]], None]


class Phase:
    """One code region plus its data behaviour.

    Parameters
    ----------
    name: label for reports.
    code_base: first instruction address of the region.
    body_instructions: loop-body length in instructions; the body's lines
        are re-fetched once per iteration, so the within-phase I-cache
        interval is roughly ``body_instructions * CPI`` cycles.
    load_fraction / store_fraction: fraction of body positions that are
        loads / stores (fixed positions, chosen at construction).
    pattern: a single :class:`DataPattern` or weighted components; each
        memory position is statically bound to one component.
    block_instructions: basic-block size; the body executes as a fixed
        *shuffled* sequence of blocks of this many instructions, modelling
        the taken branches that break a real program's sequential fetch
        stream (0 disables shuffling — a straight-line body).  Within a
        block, fetch is sequential.
    seed: seed for the static layout and any per-pattern randomness.
    """

    def __init__(
        self,
        name: str,
        code_base: int,
        body_instructions: int,
        load_fraction: float = 0.0,
        store_fraction: float = 0.0,
        pattern: PatternSpec = None,
        block_instructions: int = 64,
        seed: int = 0,
    ) -> None:
        if code_base < 0:
            raise ConfigurationError(
                f"code base cannot be negative, got {code_base!r}"
            )
        if body_instructions <= 0:
            raise ConfigurationError(
                f"loop body must contain instructions, got {body_instructions!r}"
            )
        if not 0.0 <= load_fraction <= 1.0 or not 0.0 <= store_fraction <= 1.0:
            raise ConfigurationError("load/store fractions must each lie in [0, 1]")
        if block_instructions < 0:
            raise ConfigurationError(
                f"basic-block size cannot be negative, got {block_instructions!r}"
            )
        if load_fraction + store_fraction > 1.0:
            raise ConfigurationError(
                f"load+store fraction {load_fraction + store_fraction:.2f} exceeds 1.0"
            )
        self.name = name
        self.code_base = code_base
        self.body_instructions = body_instructions
        self.load_fraction = load_fraction
        self.store_fraction = store_fraction
        self.block_instructions = block_instructions
        self.components = self._normalize_pattern(pattern)
        if (load_fraction + store_fraction) > 0 and not self.components:
            raise ConfigurationError(
                f"phase {name!r} has memory instructions but no data pattern"
            )
        self._body_offset = 0
        self._build_static_layout(seed)

    @staticmethod
    def _normalize_pattern(
        pattern: PatternSpec,
    ) -> List[Tuple[DataPattern, float]]:
        if pattern is None:
            return []
        if isinstance(pattern, DataPattern):
            return [(pattern, 1.0)]
        components = list(pattern)
        if not components:
            return []
        total = sum(weight for _, weight in components)
        if total <= 0 or any(weight < 0 for _, weight in components):
            raise ConfigurationError(
                "pattern component weights must be non-negative with a "
                f"positive sum, got {[w for _, w in components]!r}"
            )
        return [(p, w / total) for p, w in components]

    def _build_static_layout(self, seed: int) -> None:
        """Fix which body positions are loads/stores and what they touch."""
        body = self.body_instructions
        rng = np.random.default_rng((seed, self.code_base))
        draw = rng.random(body)
        is_load = draw < self.load_fraction
        is_store = (~is_load) & (draw < self.load_fraction + self.store_fraction)
        kinds = np.zeros(body, dtype=np.uint8)
        kinds[is_load] = LOAD
        kinds[is_store] = STORE
        component_of = np.full(body, -1, dtype=np.int64)
        mem_positions = np.flatnonzero(kinds != NO_ACCESS)
        if mem_positions.size and self.components:
            weights = np.array([w for _, w in self.components])
            component_of[mem_positions] = rng.choice(
                len(self.components), size=mem_positions.size, p=weights
            )
        # Execution order: a fixed shuffle of basic blocks (taken branches).
        if self.block_instructions and self.block_instructions < body:
            n_blocks = -(-body // self.block_instructions)
            order = rng.permutation(n_blocks)
            exec_order = np.concatenate(
                [
                    np.arange(
                        b * self.block_instructions,
                        min((b + 1) * self.block_instructions, body),
                        dtype=np.int64,
                    )
                    for b in order
                ]
            )
        else:
            exec_order = np.arange(body, dtype=np.int64)
        # One loop iteration in execution order: each slot's PC and kind,
        # and, per pattern component, the slots bound to it.
        self._pcs = self.code_base + exec_order * INSTRUCTION_BYTES
        self._kinds = kinds[exec_order]
        component_of = component_of[exec_order]
        self._component_slots = [
            np.flatnonzero(component_of == index)
            for index in range(len(self.components))
        ]

    @property
    def code_bytes(self) -> int:
        """Instruction-footprint of the region in bytes."""
        return self.body_instructions * INSTRUCTION_BYTES

    def emit(self, n_instructions: int) -> TraceChunk:
        """Emit ``n_instructions`` of this phase's execution as one chunk.

        The loop body resumes where the previous visit left off, so split
        visits still walk the body seamlessly; each pattern component
        advances only by the accesses of its own positions, keeping
        per-PC strides coherent.  The columns are slices of the
        execution-order layout tiled over the bodies the visit spans.
        """
        if n_instructions <= 0:
            raise ConfigurationError(f"cannot emit {n_instructions!r} instructions")
        body = self.body_instructions
        start = self._body_offset
        stop = start + n_instructions
        self._body_offset = stop % body
        # The visit covers execution slots start..stop of the body
        # repeated ``bodies`` times.
        bodies = -(-stop // body)
        pcs = np.tile(self._pcs, bodies)[start:stop]
        kinds = np.tile(self._kinds, bodies)[start:stop]
        addresses = np.full(n_instructions, -1, dtype=np.int64)
        for (pattern, _), slots in zip(self.components, self._component_slots):
            repeated = (slots + body * np.arange(bodies)[:, None]).ravel()
            lo, hi = np.searchsorted(repeated, (start, stop))
            if hi > lo:
                addresses[repeated[lo:hi] - start] = pattern.addresses(hi - lo)
        return TraceChunk(pcs, addresses, kinds)


@dataclass(frozen=True)
class Visit:
    """One schedule entry: run ``phase_index`` for ``instructions``."""

    phase_index: int
    instructions: int

    def __post_init__(self) -> None:
        if self.phase_index < 0 or self.instructions <= 0:
            raise ConfigurationError(
                f"invalid schedule visit {(self.phase_index, self.instructions)!r}"
            )


class Workload:
    """A named schedule of phase visits.

    Parameters
    ----------
    name: benchmark-style label (e.g. ``"gzip"``).
    phases: the program's code regions.
    schedule: visit order; when omitted, a round-robin over all phases.
    rounds: number of times the schedule repeats.
    seed: recorded for provenance (per-phase randomness is seeded at
        phase construction).
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[Phase],
        schedule: Optional[Sequence[Visit]] = None,
        rounds: int = 1,
        seed: int = 1234,
    ) -> None:
        if not phases:
            raise ConfigurationError("a workload needs at least one phase")
        if rounds <= 0:
            raise ConfigurationError(f"rounds must be positive, got {rounds!r}")
        self.name = name
        self.phases = list(phases)
        if schedule is None:
            schedule = [
                Visit(i, phase.body_instructions) for i, phase in enumerate(phases)
            ]
        for visit in schedule:
            if visit.phase_index >= len(self.phases):
                raise ConfigurationError(
                    f"schedule references phase {visit.phase_index} but the "
                    f"workload has only {len(self.phases)}"
                )
        self.schedule = list(schedule)
        self.rounds = rounds
        self.seed = seed

    @property
    def total_instructions(self) -> int:
        """Instructions emitted by a full run."""
        return self.rounds * sum(v.instructions for v in self.schedule)

    @property
    def code_footprint_bytes(self) -> int:
        """Total instruction footprint across regions (assumes disjoint)."""
        return sum(phase.code_bytes for phase in self.phases)

    def chunks(self) -> Iterator[TraceChunk]:
        """Generate the trace, one chunk per visit.

        Patterns are stateful, so a ``Workload`` should be rebuilt before
        being generated a second time.
        """
        for _ in range(self.rounds):
            for visit in self.schedule:
                yield self.phases[visit.phase_index].emit(visit.instructions)

    def describe(self) -> str:
        """Multi-line human-readable structure summary."""
        lines = [
            f"workload {self.name}: {len(self.phases)} phases, "
            f"{self.rounds} rounds, {self.total_instructions} instructions, "
            f"{self.code_footprint_bytes // 1024} KB code"
        ]
        for i, phase in enumerate(self.phases):
            mem = phase.load_fraction + phase.store_fraction
            lines.append(
                f"  [{i}] {phase.name}: body={phase.body_instructions} instr, "
                f"mem={100 * mem:.0f}%"
            )
        return "\n".join(lines)
