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
whole chunk with one sort each (events by block, loads by PC) and one
search, and fold its intervals into an
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


def _block_keys(blocks: np.ndarray, probed: np.ndarray):
    """``(keys, shift)``: a sentinel below every key, then the sorted keys
    ``rel << shift | index << 1 | probed`` of all events, with each block
    as a small non-negative ``rel``.  The keys are 32-bit when they fit.

    ``rel`` keeps block adjacency: ``rel[j] == rel[k] - 1`` iff
    ``blocks[j] == blocks[k] - 1``.  It is ``blocks - min(blocks)`` unless
    that span does not fit beside the index; then the distinct blocks are
    renumbered, one apart where they are adjacent and two apart where not.
    """
    count = len(blocks)
    shift = count.bit_length() + 1
    rel = blocks - blocks.min()
    bits = int(rel.max()).bit_length() + shift
    if bits > 62:
        values, inverse = np.unique(blocks, return_inverse=True)
        steps = np.minimum(np.diff(values), 2)
        rel = np.concatenate(([0], np.cumsum(steps)))[inverse]
    dtype = np.int32 if bits <= 30 else np.int64
    keys = np.empty(count + 1, dtype=dtype)
    keys[0] = np.iinfo(dtype).min
    np.left_shift(rel, shift, out=keys[1:], casting="unsafe")
    keys[1:] |= probed
    keys[1:] |= np.arange(0, 2 * count, 2, dtype=dtype)
    keys[1:].sort()
    return keys, shift


class _ChunkAnnotator:
    """Chunk-vectorised twin of :class:`_CacheAnnotator` (batched kernel).

    Takes one chunk's events at a time, computes exactly the flags the
    scalar annotator would, and folds the chunk's intervals into
    :attr:`rows`.  Each event arrives with the gap of the interval it
    closes, so its window opens at its time minus that gap; one sort of
    the events by (block, index) and one search of the probed events'
    ``(block - 1, index)`` keys find the last earlier touch of
    ``block - 1``.  Only events whose window opened before the chunk
    consult the carried per-block last-touch times.
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
        # Every event's (block, index, probed) key, sorted: the key just
        # below (block - 1, k) is the last earlier touch of block - 1
        # before event k, if it belongs to that block at all.
        keys, shift = _block_keys(blocks, gaps > self.floor)
        index = (1 << shift - 1) - 1
        probed = keys[np.flatnonzero(keys & 1)]
        probe = probed >> 1 & index
        below = probed - (1 << shift)
        key = keys[np.searchsorted(keys, below) - 1]
        earlier = key >= (below & -(1 << shift))
        neighbor = np.where(earlier, times[key >> 1 & index], -1)
        # Events without one fall back on the carried touch times, which
        # can only reach windows opening at or before the previous chunk.
        window = times[probe] - gaps[probe]
        carried = np.flatnonzero((neighbor < 0) & (window <= self._last_time))
        if len(carried):
            get = self._block_last.get
            neighbor[carried] = [
                get(block, -1) for block in (blocks[probe[carried]] - 1).tolist()
            ]
        covered = neighbor >= window
        nextline = np.zeros(n, dtype=bool)
        nextline[probe] = covered
        stride = np.zeros(n, dtype=bool)
        if stride_hits is not None:
            stride[probe] = stride_hits[probe] & ~covered

        # Each block's last touch: the last key of its run (the first run
        # boundary is the sentinel's).
        run_block = keys >> shift
        last = np.flatnonzero(run_block[1:] != run_block[:-1])[1:]
        last = keys[np.append(last, n)] >> 1 & index
        self._block_last.update(zip(blocks[last].tolist(), times[last].tolist()))
        self._last_time = int(times.max())
        closed = gaps > 0
        return nextline[closed], stride[closed]


class _StrideTable:
    """Chunk-vectorised twin of :class:`~repro.prefetch.stride.StridePredictor`.

    Exact, LRU eviction included.  A load is a stride hit iff its PC's
    entry is present and was confirmed twice, i.e. the PC's last three
    strides since the entry was created are equal.  The entry is present
    iff fewer than ``capacity`` distinct other load PCs were loaded since
    the PC's previous load, so the table always holds the ``capacity``
    most recently loaded PCs.

    The carried entries are kept least recently used first, with a
    PC-sorted index to look them up.  A chunk sorts only its own loads by
    PC and sees a sequence of positions: the carried entries' LRU ranks,
    then ``carried + i`` for its ``i``-th load.  Distinct counts over
    windows of that sequence equal those over the whole run, and memory
    stays bounded by the chunk.  Reuses at most ``capacity`` positions
    apart are present trivially, first loads of new PCs are misses, and
    only reuses further back need the eviction order (:meth:`_revive`).
    """

    def __init__(self, capacity: Optional[int] = 4096) -> None:
        self.capacity = capacity
        empty = np.zeros(0, dtype=np.int64)
        # The carried entries, least recently used first: PC, last
        # address, stride and confirmations (saturated at two); and the
        # PC-sorted order of the entries with their sorted PCs.
        self._table = (empty, empty, empty, np.zeros(0, dtype=np.int8))
        self._by_pc = self._sorted_pcs = empty

    def hits(self, pcs: np.ndarray, addrs: np.ndarray) -> np.ndarray:
        """Stride-hit flags for one chunk's loads; trains the table."""
        count = len(pcs)
        if count == 0:
            return np.zeros(0, dtype=bool)
        table = self._table
        carried = len(table[0])
        # The chunk's loads in (PC, position) order; everything below
        # works in that order.
        order = stable_order(pcs)
        spcs = pcs[order]
        saddrs = addrs[order]
        spos = order + carried
        starts = np.flatnonzero(_run_starts(spcs))
        ends = np.empty(len(starts), dtype=np.int64)
        ends[:-1] = starts[1:] - 1
        ends[-1] = count - 1
        # The carried entry (LRU rank) each PC's first load continues.
        at = np.searchsorted(self._sorted_pcs, spcs[starts])
        found = at < carried
        found[found] = self._sorted_pcs[at[found]] == spcs[starts[found]]
        entry = self._by_pc[at[found]]
        heads = starts[found]
        last_addrs, last_strides, last_confs = (column[entry] for column in table[1:])

        # The previous same-PC position of every load, and whether its
        # PC's entry is still present.
        sprev = np.empty(count, dtype=np.int64)
        sprev[1:] = spos[:-1]
        sprev[starts] = -1
        sprev[heads] = entry
        present = sprev >= 0
        if self.capacity is not None:
            present &= spos - sprev <= self.capacity
            self._revive(spos, sprev, ends, present, entry, heads)

        # Stride and confirmation count after every load; a created entry
        # starts at stride 0 with no confirmations, a PC's first load
        # continues its carried entry.  Counts saturate at two, which is
        # all a hit reads: one once the entry exists, two once its stride
        # has repeated since.
        before = np.empty(count, dtype=np.int64)
        before[1:] = saddrs[:-1]
        before[heads] = last_addrs
        strides = saddrs - before
        strides[~present] = 0
        before[1:] = strides[:-1]
        before[heads] = last_strides
        equal = present & (strides == before)
        existed = np.empty(count, dtype=bool)
        existed[1:] = present[:-1]
        existed[heads] = last_confs >= 1
        confs = present.astype(np.int8)
        confs += equal & existed
        prior = np.empty(count, dtype=np.int8)
        prior[1:] = confs[:-1]
        prior[heads] = last_confs
        flags = np.empty(count, dtype=bool)
        flags[order] = equal & (prior >= CONFIRMATIONS_REQUIRED)

        # Carry the entries least recently used first: the carried ones
        # this chunk did not reload, then each PC's last load, keeping the
        # ``capacity`` most recent.
        untouched = np.ones(carried, dtype=bool)
        untouched[entry] = False
        kept = np.flatnonzero(untouched)
        last = ends[np.argsort(spos[ends])]
        if self.capacity is not None:
            excess = len(kept) + len(last) - self.capacity
            if excess > 0:
                last = last[max(excess - len(kept), 0) :]
                kept = kept[excess:]
        table = tuple(
            np.concatenate((column[kept], chunk[last]))
            for column, chunk in zip(table, (spcs, saddrs, strides, confs))
        )
        self._table = table
        self._by_pc = np.argsort(table[0])
        self._sorted_pcs = table[0][self._by_pc]
        return flags

    def _revive(self, spos, sprev, ends, present, entry, heads):
        """Mark the loads whose entry outlived a reuse more than
        ``capacity`` positions back as present."""
        far = np.flatnonzero(~present & (sprev >= 0))
        if not len(far):
            return
        capacity = self.capacity
        carried = len(self._table[0])
        reuse, load = sprev[far], spos[far]
        head_at = spos[heads]
        by_position = np.argsort(head_at)
        if reuse.max() < carried and np.all(np.diff(entry[by_position]) > 0):
            # Carried PCs come back in their LRU order, so the distinct PCs
            # loaded since a carried entry's last use are the entries
            # above it, the new PCs loaded before, and the carried PCs
            # reloaded before (all of them below it).
            distinct = (
                (carried - 1 - reuse)
                + np.searchsorted(np.sort(spos[sprev < 0]), load)
                + np.searchsorted(head_at[by_position], load)
            )
            present[far] = distinct < capacity
            return
        # Otherwise replay the misses in position order up to the last far
        # reuse: the table is exactly the positions ``>= lru`` that are
        # still their PC's latest load, so a miss on a full table evicts by
        # advancing ``lru`` past the oldest of them.
        walk = np.flatnonzero(~present)
        walk = walk[np.argsort(spos[walk])]
        walk = walk[: np.flatnonzero(sprev[walk] >= 0)[-1] + 1]
        size = carried + len(spos)
        # The next same-PC position of every position.
        later = np.full(size, size, dtype=np.int64)
        later[entry] = head_at
        snext = np.empty(len(spos), dtype=np.int64)
        snext[:-1] = spos[1:]
        snext[ends] = size
        later[spos] = snext
        later_at = memoryview(later)
        lru = 0
        entries = carried
        revived = []
        for k, q, p in zip(walk.tolist(), spos[walk].tolist(), sprev[walk].tolist()):
            if p >= lru:
                revived.append(k)
            elif entries < capacity:
                entries += 1
            else:
                while later_at[lru] <= q:  # reloaded since: not an entry
                    lru += 1
                lru += 1  # evict the least recently used entry
        present[revived] = True


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

        def d_observer(blocks, times, gaps, kinds, load_pcs, load_addrs, loads):
            stride_hits = np.zeros(len(blocks), dtype=bool)
            stride_hits[loads] = table.hits(load_pcs, load_addrs)
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
