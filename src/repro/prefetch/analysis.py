"""Prefetchability analysis (the paper's §5.2 and Figure 9).

An interval is *prefetchable* when an implementable prefetcher could have
re-fetched (or woken) the line just in time for the access that closes
the interval, hiding the sleep/drowsy exit penalty:

* **next-line** (I- and D-cache): one or more accesses to the *previous*
  cache block occur inside the interval — the access to ``X - 1`` is the
  prefetch trigger for ``X``;
* **stride-based** (D-cache): the closing access was predicted by a
  per-static-load stride table whose stride had been confirmed at least
  twice (Farkas et al. [3]).

Intervals no longer than the active-drowsy point are always kept active,
need no prefetch, and are counted non-prefetchable, as in the paper.
The stride flag only marks intervals *not already* caught by next-line,
so the two are disjoint (Figure 9 reports them as separate shaded
areas).  A third flag, *tail*, marks the end-of-run intervals no access
closes: a tail has no closing access to delay, so any policy can gate it
at zero performance risk — charging Prefetch-A full active power for it
would only measure the finite length of the simulation.  The three flags
are class bits of the :class:`~repro.core.intervals.IntervalPopulation`
rows every analysis reads.

:class:`AnnotatingSimulator` is the trace simulator: it times a trace
through the pipeline model and the memory hierarchy, classifies every
interval as it closes, and returns each L1's population, in one pass.

It has two execution paths with bit-identical results.  The scalar path
walks every access through the caches, a :class:`_CacheAnnotator` per
cache and a :class:`~repro.prefetch.stride.StridePredictor`; it is the
oracle.  Its annotators are the one place it closes intervals: they
classify and flag each interval as it ends, then fold them with the
end-of-run tails once the trace is done.  The batched kernel
(:func:`~repro.cache.kernel.run_batched`) hands each chunk's events to
:class:`_ChunkAnnotator` and :class:`_StrideTable`, which resolve the
whole chunk with sorts and searches and fold its intervals into an
:class:`~repro.core.intervals.IntervalRows`, carrying only per-block,
stride-table and row state across chunks: a run's memory follows the
chunk and the distinct rows, not the trace.
``tests/test_kernel_equivalence.py`` and
``tests/test_annotation_oracle.py`` pin the two together, interval by
interval.
"""

from __future__ import annotations

import time as _time
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..cache.generations import closing_intervals
from ..cache.hierarchy import HierarchyConfig, MemoryHierarchy
from ..cache.kernel import (
    SimulationProfile,
    kernel_supported,
    resolve_kernel_mode,
    run_batched,
    stable_order,
    validated_chunks,
)
from ..core.intervals import IntervalKind, IntervalPopulation, IntervalRows
from ..cpu.pipeline import IssueClock, PipelineConfig
from ..cpu.simulator import SimulationResult
from ..cpu.trace import NO_ACCESS, STORE, TraceChunk
from ..errors import ConfigurationError, SimulationError
from .stride import CONFIRMATIONS_REQUIRED, StridePredictor

#: Intervals at or below this length are kept active and never counted
#: prefetchable (the active-drowsy point of the paper's parameters).
DEFAULT_ACTIVE_FLOOR = 6

_NORMAL, _DEAD, _COLD = (
    int(IntervalKind.NORMAL), int(IntervalKind.DEAD), int(IntervalKind.COLD)
)


class _CacheAnnotator:
    """One cache's scalar interval collector: the oracle's closing rule.

    Every access closes the interval its frame rested since the frame's
    previous access (or since cycle 0 for a frame never filled): NORMAL
    on a hit, COLD on a frame's first fill, DEAD on a refill.  Intervals
    of zero cycles are dropped.  Each kept interval is flagged as it
    closes and buffered in compact columns; :meth:`population` folds them
    with the end-of-run tails.
    """

    def __init__(self, n_frames: int, floor: int) -> None:
        self.floor = floor
        self._frame_last = [-1] * n_frames
        self._block_last: dict = {}
        self._lengths = array("q")
        self._kinds = bytearray()
        self._nextline = bytearray()
        self._stride = bytearray()

    def observe(
        self, block: int, frame: int, time: int, hit: bool, stride_hit: bool
    ) -> None:
        """Close and flag the interval (if any) this access ends."""
        last = self._frame_last[frame]
        if last < 0:
            start, kind = 0, _COLD
        elif time < last:
            raise SimulationError(
                f"time moved backwards on frame {frame}: {last} -> {time}"
            )
        else:
            start, kind = last, _NORMAL if hit else _DEAD
        gap = time - start
        if gap > 0:
            nextline = stride = False
            if gap > self.floor:
                nextline = self._block_last.get(block - 1, -1) >= start
                stride = stride_hit and not nextline
            self._lengths.append(gap)
            self._kinds.append(kind)
            self._nextline.append(nextline)
            self._stride.append(stride)
        self._frame_last[frame] = time
        self._block_last[block] = time

    def population(self, end_time: int) -> IntervalPopulation:
        """Every closed interval plus the frames' tails at ``end_time``,
        as population rows."""
        rows = IntervalRows()
        rows.fold(
            np.frombuffer(self._lengths, np.int64),
            np.frombuffer(self._kinds, np.uint8),
            np.frombuffer(self._nextline, np.bool_),
            np.frombuffer(self._stride, np.bool_),
        )
        lengths, kinds = closing_intervals(self._frame_last, end_time)
        rows.fold(lengths, kinds, tail=np.ones(len(lengths), dtype=bool))
        return rows.population()


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal sorted values."""
    first = np.empty(len(values), dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


class _ChunkAnnotator:
    """Chunk-vectorised twin of :class:`_CacheAnnotator` (batched kernel).

    Takes one chunk's events at a time, computes exactly the flags the
    scalar annotator would, and folds the chunk's intervals into
    :attr:`rows`.  Each event arrives with the gap of the interval it
    closes, so its window opens at its time minus that gap; a stable sort
    by block finds the last earlier touch of ``block - 1``.  Only events
    whose window opened before the chunk consult the carried per-block
    last-touch times.
    """

    def __init__(self, floor: int) -> None:
        self.floor = floor
        self.rows = IntervalRows()
        self._block_last: dict = {}
        self._last_time = -1  # latest event time of the earlier chunks

    def observe(
        self,
        blocks: np.ndarray,
        times: np.ndarray,
        gaps: np.ndarray,
        kinds: np.ndarray,
        stride_hits: Optional[np.ndarray] = None,
    ) -> None:
        """Flag and fold the intervals closed by one chunk of events.

        ``gaps[k]`` is the length of the interval event ``k`` closes
        (since the previous touch of its frame, or the run start for a
        cold frame) and ``kinds[k]`` its kind; a zero gap closes none.
        """
        if len(blocks) == 0:
            return
        closed = gaps > 0
        nextline, stride = self.flags(blocks, times, gaps, stride_hits)
        self.rows.fold(gaps[closed], kinds[closed], nextline, stride)

    def flags(
        self,
        blocks: np.ndarray,
        times: np.ndarray,
        gaps: np.ndarray,
        stride_hits: Optional[np.ndarray] = None,
    ):
        """``(nextline, stride)`` flags of the intervals one chunk closes.

        One flag pair per event with a positive gap, in event order; the
        carried per-block state moves on to the end of the chunk.
        """
        n = len(blocks)
        # Last earlier in-chunk touch of block - 1 for every probed event:
        # the key just below (previous distinct block, event index) is one
        # iff its block is block - 1.  Probing in (block, index) order
        # keeps the search ascending.
        border = stable_order(blocks)
        sblocks = blocks[border]
        bfirst = _run_starts(sblocks)
        rank = np.cumsum(bfirst) - 1
        keys = rank * n + border  # (block, event index), strictly ascending
        probed = (gaps > self.floor)[border]
        probe = border[probed]
        targets = sblocks[probed] - 1
        at = np.searchsorted(keys, (rank[probed] - 1) * n + probe) - 1
        earlier = (at >= 0) & (sblocks[at] == targets)
        neighbor = np.where(earlier, times[border[at]], -1)
        # Events without one fall back on the carried touch times, which
        # can only reach windows opening at or before the previous chunk.
        probe_window = times[probe] - gaps[probe]
        carried = np.flatnonzero(~earlier & (probe_window <= self._last_time))
        if len(carried):
            get = self._block_last.get
            neighbor[carried] = [
                get(block, -1) for block in targets[carried].tolist()
            ]
        nextline = np.zeros(n, dtype=bool)
        nextline[probe] = neighbor >= probe_window
        stride = np.zeros(n, dtype=bool)
        if stride_hits is not None:
            stride[probe] = stride_hits[probe]
            stride &= ~nextline

        blast = np.empty(n, dtype=bool)
        blast[-1] = True
        blast[:-1] = bfirst[1:]
        self._block_last.update(
            zip(sblocks[blast].tolist(), times[border[blast]].tolist())
        )
        self._last_time = int(times.max())
        closed = gaps > 0
        return nextline[closed], stride[closed]


class _StrideTable:
    """Chunk-vectorised twin of :class:`~repro.prefetch.stride.StridePredictor`.

    Exact, LRU eviction included.  A load is a stride hit iff its PC's
    entry is present and was confirmed twice, i.e. the PC's last three
    strides since the entry was created are equal.  The entry is present
    iff fewer than ``capacity`` distinct other load PCs were loaded since
    the PC's previous load.

    Each chunk's loads are appended to the carried entries (one position
    each, least recently used first), so distinct counts over windows of
    that sequence equal those over the whole run and memory stays bounded
    by the chunk.  Reuses at most ``capacity`` positions apart are present
    trivially.  New PCs and longer reuses are resolved in order against a
    pointer ``lru``: the table is exactly the positions ``>= lru`` that are
    still their PC's latest load, so a miss on a full table evicts by
    advancing ``lru`` past the oldest such position.
    """

    def __init__(self, capacity: Optional[int] = 4096) -> None:
        self.capacity = capacity
        empty = np.zeros(0, dtype=np.int64)
        # The carried entries, least recently used first.
        self._pcs = empty
        self._addrs = empty
        self._strides = empty
        self._confs = empty

    def hits(self, pcs: np.ndarray, addrs: np.ndarray) -> np.ndarray:
        """Stride-hit flags for one chunk's loads; trains the table."""
        count = len(pcs)
        if count == 0:
            return np.zeros(0, dtype=bool)
        carried = len(self._pcs)
        size = carried + count
        seq_pcs = np.concatenate([self._pcs, pcs])
        seq_addrs = np.concatenate([self._addrs, addrs])
        order = stable_order(seq_pcs)
        first = _run_starts(seq_pcs[order])
        prev = np.full(size, -1, dtype=np.int64)  # previous same-PC position
        prev[order[1:]] = np.where(first[1:], -1, order[:-1])
        later = np.full(size, size, dtype=np.int64)  # next same-PC position
        later[order[:-1]] = np.where(first[1:], size, order[1:])

        # Entry presence at each of this chunk's loads.
        back = prev[carried:]
        lru = 0
        if self.capacity is None:
            present = back >= 0
        else:
            capacity = self.capacity
            positions = np.arange(carried, size)
            present = (back >= 0) & (positions - back <= capacity)
            later_list = later.tolist()
            entries = carried
            revived = []
            walk = np.flatnonzero(~present)
            for q, p in zip(positions[walk].tolist(), back[walk].tolist()):
                if p >= lru:
                    revived.append(q)
                elif entries < capacity:
                    entries += 1
                else:
                    while later_list[lru] <= q:  # reloaded since: not an entry
                        lru += 1
                    lru += 1  # evict the least recently used entry
            present[np.asarray(revived, dtype=np.int64) - carried] = True

        # Stride and confirmation count after every load, in (PC, position)
        # order; a created entry starts at stride 0 with no confirmations.
        from_table = order < carried
        created = np.zeros(size, dtype=bool)
        created[carried:] = ~present
        follows = ~created[order]
        follows[first] = False
        saddrs = seq_addrs[order]
        strides = np.zeros(size, dtype=np.int64)
        strides[1:] = saddrs[1:] - saddrs[:-1]
        strides[~follows] = 0
        strides[from_table] = self._strides[order[from_table]]
        equal = np.zeros(size, dtype=bool)
        equal[1:] = follows[1:] & (strides[1:] == strides[:-1])
        base = follows.astype(np.int64)
        base[from_table] = self._confs[order[from_table]]
        index = np.arange(size)
        run_start = np.where(equal, 0, index)
        np.maximum.accumulate(run_start, out=run_start)
        confs = base[run_start] + (index - run_start)
        hit = np.zeros(size, dtype=bool)
        hit[1:] = equal[1:] & (confs[:-1] >= CONFIRMATIONS_REQUIRED)
        flags = np.empty(size, dtype=bool)
        flags[order] = hit

        # Carry the table's entries, least recently used first.
        live = np.flatnonzero(later[lru:] == size) + lru
        rank = np.empty(size, dtype=np.int64)
        rank[order] = index
        self._pcs = seq_pcs[live]
        self._addrs = seq_addrs[live]
        self._strides = strides[rank[live]]
        self._confs = confs[rank[live]]
        return flags[carried:]


@dataclass(frozen=True)
class AnnotatedSimulationResult:
    """A :class:`SimulationResult` plus prefetchability annotations.

    ``l1i``/``l1d`` and the result's interval fields are the same
    :class:`IntervalPopulation` objects, prefetch flags included.
    """

    result: SimulationResult
    l1i: IntervalPopulation
    l1d: IntervalPopulation

    def annotated_for(self, which: str) -> IntervalPopulation:
        """Annotated population by cache name (``'l1i'`` or ``'l1d'``)."""
        key = which.lower()
        if key in ("l1i", "icache", "i"):
            return self.l1i
        if key in ("l1d", "dcache", "d"):
            return self.l1d
        raise SimulationError(f"unknown cache selector {which!r}")


class AnnotatingSimulator:
    """Trace simulation with per-interval prefetchability classification.

    ``kernel`` selects the execution path.  ``None`` follows
    ``REPRO_KERNEL`` (default ``auto``) and falls back to the scalar
    oracle on a hierarchy the batched kernel does not support; an
    explicit ``"auto"``/``"scalar"``/``"batched"``/``"compiled"`` is
    obeyed, and a batched mode raises on such a hierarchy.
    """

    def __init__(
        self,
        hierarchy: Optional[MemoryHierarchy] = None,
        pipeline: Optional[PipelineConfig] = None,
        kernel: Optional[str] = None,
        stride_table_capacity: Optional[int] = 4096,
    ) -> None:
        self.hierarchy = (
            hierarchy
            if hierarchy is not None
            else MemoryHierarchy(HierarchyConfig.paper())
        )
        self.clock = IssueClock(pipeline)
        self.kernel = kernel
        if stride_table_capacity is not None and stride_table_capacity <= 0:
            raise ConfigurationError(
                "stride table capacity must be positive or None, got "
                f"{stride_table_capacity!r}"
            )
        self.stride_table_capacity = stride_table_capacity
        self._ran = False

    def run(self, trace: Iterable[TraceChunk] | TraceChunk) -> AnnotatedSimulationResult:
        """Consume the whole trace; return results with annotations.

        A simulator instance runs one trace; build a fresh instance (and
        hierarchy) per workload.  Chunks are validated as they are
        consumed on both paths: malformed input raises
        :class:`~repro.errors.TraceValidationError` naming the chunk.
        """
        if self._ran:
            raise SimulationError(
                "AnnotatingSimulator instances are single-use; build a new one"
            )
        self._ran = True
        if isinstance(trace, TraceChunk):
            trace = (trace,)
        mode = resolve_kernel_mode(self.kernel)
        if mode == "scalar" or (
            self.kernel is None and not kernel_supported(self.hierarchy)
        ):
            return self._run_scalar(trace)
        return self._run_batched(trace, mode)

    def _run_batched(
        self, trace: Iterable[TraceChunk], mode: str
    ) -> AnnotatedSimulationResult:
        """Kernel timing plus chunk-vectorised annotation.

        The kernel hands each chunk's (block, time, gap, kind) event
        stream to observers that flag and fold the whole chunk at once
        with :class:`_ChunkAnnotator` and :class:`_StrideTable`, the exact
        array twins of the scalar annotator and stride predictor.  The
        end-of-run tails fold in last.
        """
        hierarchy = self.hierarchy
        i_annotator = _ChunkAnnotator(DEFAULT_ACTIVE_FLOOR)
        d_annotator = _ChunkAnnotator(DEFAULT_ACTIVE_FLOOR)
        table = _StrideTable(self.stride_table_capacity)

        def d_observer(blocks, times, gaps, kinds, pcs, addrs, stores):
            loads = ~stores
            stride_hits = np.zeros(len(blocks), dtype=bool)
            stride_hits[loads] = table.hits(pcs[loads], addrs[loads])
            d_annotator.observe(blocks, times, gaps, kinds, stride_hits)

        outcome = run_batched(
            hierarchy, self.clock, trace, i_annotator.observe, d_observer,
            residual="compiled" if mode == "compiled" else "python",
        )
        started = _time.perf_counter()
        annotators = (i_annotator, d_annotator)
        for annotator, (lengths, kinds) in zip(annotators, outcome.tails):
            tail = np.ones(len(lengths), dtype=bool)
            annotator.rows.fold(lengths, kinds, tail=tail)
        l1i, l1d = (annotator.rows.population() for annotator in annotators)
        # The profile was sealed inside the kernel; folding the tails is
        # annotation work too.
        profile = outcome.profile
        profile.stage_seconds["annotate"] += _time.perf_counter() - started
        result = SimulationResult(
            cycles=outcome.cycles,
            instructions=outcome.instructions,
            stall_cycles=outcome.stall_cycles,
            l1i_intervals=l1i,
            l1d_intervals=l1d,
            stats=hierarchy.stats(),
            profile=profile,
        )
        return AnnotatedSimulationResult(result=result, l1i=l1i, l1d=l1d)

    def _run_scalar(self, trace: Iterable[TraceChunk]) -> AnnotatedSimulationResult:
        """The per-access oracle path: scalar caches, annotators and predictor."""
        hierarchy = self.hierarchy
        i_annotator = _CacheAnnotator(
            hierarchy.l1i.config.n_lines, DEFAULT_ACTIVE_FLOOR
        )
        d_annotator = _CacheAnnotator(
            hierarchy.l1d.config.n_lines, DEFAULT_ACTIVE_FLOOR
        )
        clock = self.clock
        config = clock.config
        l1i, l1d = hierarchy.l1i, hierarchy.l1d
        fill_latency = hierarchy.fill_latency
        offset_bits = hierarchy.config.l1i.offset_bits
        d_offset_bits = hierarchy.config.l1d.offset_bits
        l1i_hit = hierarchy.config.l1i.hit_latency
        l1d_hit = hierarchy.config.l1d.hit_latency
        load_mlp = config.load_mlp
        store_buffer = config.store_buffer
        issue = clock.issue
        stall = clock.stall
        stride_access = StridePredictor(self.stride_table_capacity).access
        # The fetch unit reads aligned instruction groups; the I-cache is
        # accessed once per group, not once per instruction.
        group_bits = config.fetch_group_bytes.bit_length() - 1
        prev_igroup = -1
        accesses_before = l1i.stats.accesses + l1d.stats.accesses
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
                    iblock = pc >> offset_bits
                    hit, frame = l1i.access_block_ex(iblock, now)
                    i_annotator.observe(iblock, frame, now, hit, False)
                    if not hit:
                        # Front-end misses stall the in-order fetch fully.
                        stall(fill_latency(iblock, now) - l1i_hit)
                kind = kinds[i]
                if kind != NO_ACCESS:
                    address = int(addrs[i])
                    block = address >> d_offset_bits
                    is_store = kind == STORE
                    stride_hit = False if is_store else stride_access(pc, address)
                    hit, frame = l1d.access_block_ex(block, now)
                    d_annotator.observe(block, frame, now, hit, stride_hit)
                    if not hit:
                        latency = fill_latency(block, now)
                        if not (is_store and store_buffer):
                            # Load misses overlap via the MLP divisor.
                            stall(-(-(latency - l1d_hit) // load_mlp))

        end_time = clock.cycle + 1
        accesses = l1i.stats.accesses + l1d.stats.accesses - accesses_before
        l1i_population = i_annotator.population(end_time)
        l1d_population = d_annotator.population(end_time)
        result = SimulationResult(
            cycles=end_time,
            instructions=clock.instructions,
            stall_cycles=clock.stall_cycles,
            l1i_intervals=l1i_population,
            l1d_intervals=l1d_population,
            stats=hierarchy.stats(),
            profile=SimulationProfile(
                mode="scalar",
                fast_path_accesses=0,
                slow_path_accesses=accesses,
                stage_seconds={"scalar": _time.perf_counter() - started},
                residual_impl="scalar",
            ),
        )
        return AnnotatedSimulationResult(
            result=result, l1i=l1i_population, l1d=l1d_population
        )


def annotate_workload_trace(
    trace: Iterable[TraceChunk] | TraceChunk,
    hierarchy: Optional[MemoryHierarchy] = None,
    pipeline: Optional[PipelineConfig] = None,
    kernel: Optional[str] = None,
) -> AnnotatedSimulationResult:
    """Simulate one trace: one-shot wrapper around :class:`AnnotatingSimulator`."""
    return AnnotatingSimulator(hierarchy, pipeline, kernel).run(trace)
