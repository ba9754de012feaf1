"""Cache access intervals (the paper's §3.1).

An *interval* is the time a cache line rests between two consecutive
accesses.  The limit analysis classifies every interval by length and
applies one operating mode to its whole duration, so intervals — not
individual accesses — are the unit the entire library works in.

Three interval kinds are distinguished (the paper discusses but then
deliberately ignores the live/dead distinction; we keep it for the dead
interval ablation):

* ``NORMAL`` — between two accesses to the same resident line.  Sleeping
  it destroys state that is still needed, so an induced-miss re-fetch is
  charged.
* ``DEAD`` — between the last access of a cache generation and its
  eviction (or end of simulation).  The data is never used again; sleeping
  costs no re-fetch.
* ``COLD`` — from the start of observation until a frame's first fill.
  The frame can rest unpowered at no cost; no entry ramp or re-fetch.

Every analysis works on an :class:`IntervalPopulation` — the distinct
(length, class) rows with counts, a sufficient statistic for the whole
limit study — and policies are priced from prefix sums over the
population's rows (its :class:`PricingView`).  Populations are built
only by folding per-interval columns into an :class:`IntervalRows`
(:meth:`IntervalPopulation.of` folds once): the batched kernel folds
each chunk's intervals as they close, the scalar oracle folds its
collected intervals at the end of the run, and tests fold whatever
intervals they construct.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import IntervalError


class IntervalKind(enum.IntEnum):
    """Position of an interval within a cache generation."""

    NORMAL = 0
    DEAD = 1
    COLD = 2


#: Class bits of an :class:`IntervalPopulation` row: the interval kind
#: sits above the next-line, stride and tail prefetch flags.
KIND_SHIFT = 3
NEXTLINE = 1 << 2
STRIDE = 1 << 1
TAIL = 1 << 0
PREFETCH_FLAGS = NEXTLINE | STRIDE | TAIL

#: Bits one class takes in a row key (``length << CLASS_BITS | class``).
CLASS_BITS = 5
CLASS_MASK = (1 << CLASS_BITS) - 1

#: Pricing classes ``kind << 1 | prefetchable``: two kind bits and the
#: prefetchable bit, all a policy's price depends on besides the length.
PRICING_CLASSES = 1 << (CLASS_BITS - KIND_SHIFT + 1)


@dataclass(frozen=True)
class PricingView:
    """A population's rows laid out for prefix-sum pricing.

    Every mode energy is affine in the interval length (Equations 1 and
    2), and every policy assigns modes by length cuts within a pricing
    class, so a policy's price is a few cumulative sums read at its
    cuts.  The rows are ordered stably by pricing class, so within a
    class they stay length-sorted.  ``counts`` and ``cycles`` are
    cumulative with a leading zero: rows ``[i, j)`` hold ``counts[j] -
    counts[i]`` intervals of ``cycles[j] - cycles[i]`` cycles in all.

    ``classes`` lists the non-empty pricing classes as ``(kind,
    prefetchable, first row, their lengths)``.
    """

    lengths: np.ndarray
    counts: np.ndarray
    cycles: np.ndarray
    classes: Tuple[Tuple[int, bool, int, np.ndarray], ...]

    @classmethod
    def of(cls, population: "IntervalPopulation") -> "PricingView":
        """Lay out ``population``'s rows."""
        pricing_class = (population.kinds << 1) | population.prefetchable
        order = np.argsort(pricing_class, kind="stable")
        lengths = population.lengths[order]
        counts = population.counts[order]
        offsets = np.searchsorted(
            pricing_class[order], np.arange(PRICING_CLASSES + 1)
        ).tolist()
        return cls(
            lengths=lengths,
            counts=np.concatenate(([0], np.cumsum(counts))),
            cycles=np.concatenate(([0], np.cumsum(lengths * counts))),
            classes=tuple(
                (c >> 1, bool(c & 1), lo, lengths[lo:hi])
                for c, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
                if lo < hi
            ),
        )

    def band(self, start: int, end: int) -> Tuple[int, int]:
        """(intervals, cycles) of rows ``[start, end)``, exact integers."""
        return (
            int(self.counts[end] - self.counts[start]),
            int(self.cycles[end] - self.cycles[start]),
        )


def _merge(keys: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order, with their summed ``counts``."""
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    if not keys.size:
        return keys, counts
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(counts, starts)


@dataclass(frozen=True, eq=False)
class IntervalPopulation:
    """An interval population reduced to its distinct (length, class) rows.

    Row ``i`` stands for ``counts[i]`` intervals of ``lengths[i]`` cycles
    whose class is ``classes[i]``: the :class:`IntervalKind` above
    :data:`KIND_SHIFT`, then the next-line, stride and tail prefetch
    flags (:mod:`repro.prefetch.analysis`).  Rows are sorted by length,
    then class, and no two are alike.  An interval's length and class are
    all the limit study reads of it, so every count, statistic, Figure 9
    breakdown and policy price comes from these rows: the simulator
    returns this reduction, folded as the run goes
    (:class:`IntervalRows`), and never its raw intervals.

    The :class:`PricingView` policies are priced on is built on first
    use and then reused; it is never pickled — a population pickles as
    its three columns.
    """

    lengths: np.ndarray
    classes: np.ndarray
    counts: np.ndarray
    _views: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def of(
        cls,
        lengths: Sequence[int] | np.ndarray,
        kinds: Sequence[int] | np.ndarray | None = None,
        nextline: np.ndarray | None = None,
        stride: np.ndarray | None = None,
        tail: np.ndarray | None = None,
    ) -> "IntervalPopulation":
        """Reduce per-interval columns in one fold (see
        :meth:`IntervalRows.fold`)."""
        rows = IntervalRows()
        rows.fold(lengths, kinds, nextline, stride, tail)
        return rows.population()

    def __reduce__(self):
        # Views are derived data: pickle the three columns only.
        return (type(self), (self.lengths, self.classes, self.counts))

    def __len__(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalPopulation):
            return NotImplemented
        return bool(
            np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.classes, other.classes)
            and np.array_equal(self.counts, other.counts)
        )

    # ------------------------------------------------------------------
    # Per-row class columns
    # ------------------------------------------------------------------

    @property
    def kinds(self) -> np.ndarray:
        """Each row's :class:`IntervalKind` value."""
        return self.classes >> KIND_SHIFT

    @property
    def nextline(self) -> np.ndarray:
        """Rows whose intervals a next-line prefetch covers."""
        return (self.classes & NEXTLINE) != 0

    @property
    def stride(self) -> np.ndarray:
        """Rows whose intervals only the stride prefetcher covers."""
        return (self.classes & STRIDE) != 0

    @property
    def prefetchable(self) -> np.ndarray:
        """Rows coverable without a performance penalty (any flag set)."""
        return (self.classes & PREFETCH_FLAGS) != 0

    # ------------------------------------------------------------------
    # Views and statistics
    # ------------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        """Sum of all interval lengths — the all-active baseline exposure."""
        return int((self.lengths * self.counts).sum())

    @property
    def prefetchability(self) -> float:
        """Prefetchable intervals over all intervals (the Figure 9 ratio)."""
        n = len(self)
        return float(self.counts[self.prefetchable].sum()) / n if n else 0.0

    def pricing_view(self) -> PricingView:
        """The rows laid out for prefix-sum pricing, built once."""
        view = self._views.get("pricing")
        if view is None:
            view = self._views["pricing"] = PricingView.of(self)
        return view

    def as_normal(self) -> "IntervalPopulation":
        """Every interval re-labelled ``NORMAL`` (the paper's view, §3.1)."""
        keys, counts = _merge(
            (self.lengths << CLASS_BITS) | (self.classes & PREFETCH_FLAGS),
            self.counts,
        )
        return IntervalPopulation(
            lengths=keys >> CLASS_BITS,
            classes=(keys & PREFETCH_FLAGS).astype(np.uint8),
            counts=counts,
        )

    def of_kind(self, kind: IntervalKind) -> "IntervalPopulation":
        """The rows of one interval kind."""
        mask = self.kinds == int(kind)
        return IntervalPopulation(
            self.lengths[mask], self.classes[mask], self.counts[mask]
        )

    def cycle_mass_by_class(self, boundaries: Sequence[float]) -> List[float]:
        """Fraction of total cycles falling in each length class.

        ``boundaries=[a, b]`` yields the shares of ``(0, a]``, ``(a, b]``
        and ``(b, inf)``.
        """
        boundaries = list(boundaries)
        if any(b <= 0 for b in boundaries) or sorted(boundaries) != boundaries:
            raise IntervalError(
                f"class boundaries must be positive and sorted, got {boundaries!r}"
            )
        running = np.concatenate(([0], np.cumsum(self.lengths * self.counts)))
        # The paper's classes are (lo, hi]: each edge sits half a cycle
        # above its boundary, and searchsorted counts the rows below it.
        edges = np.array([0.5] + [b + 0.5 for b in boundaries] + [np.inf])
        mass = np.diff(running[np.searchsorted(self.lengths, edges)])
        total = float(self.total_cycles)
        if total == 0:
            return [0.0] * len(mass)
        return [float(v) / total for v in mass]


#: Keys an :class:`IntervalRows` buffers before it merges them into its
#: rows (more once the rows outnumber them).
_FOLD_BUFFER = 1 << 18


class IntervalRows:
    """A running :class:`IntervalPopulation` that intervals fold into.

    A simulator folds each chunk's closed intervals as it goes, so its
    memory holds the distinct rows plus one bounded buffer of keys, never
    one entry per interval of the run.  Buffered keys merge into the rows
    once they outnumber both the rows and ``_FOLD_BUFFER``, which keeps
    the merges amortized.

    Every fold is checked first: lengths one-dimensional and positive,
    class columns aligned with them, kinds :class:`IntervalKind` values,
    flags 0 or 1, next-line and stride flags disjoint.  A violation raises
    :class:`~repro.errors.IntervalError`, since once folded a misaligned
    or out-of-range column can no longer be told from a real class.
    """

    def __init__(self) -> None:
        self._keys = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._buffer: List[np.ndarray] = []
        self._buffered = 0

    def fold(
        self,
        lengths: Sequence[int] | np.ndarray,
        kinds: Sequence[int] | np.ndarray | None = None,
        nextline: np.ndarray | None = None,
        stride: np.ndarray | None = None,
        tail: np.ndarray | None = None,
    ) -> None:
        """Fold per-interval columns in (absent kinds are NORMAL, absent
        flags False)."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1:
            raise IntervalError(
                f"lengths must be one-dimensional, got shape {lengths.shape}"
            )
        if lengths.size and int(lengths.min()) <= 0:
            raise IntervalError("interval lengths must be positive")
        classes = np.zeros(lengths.shape, dtype=np.uint8)
        for label, column, shift, top in (
            ("kinds", kinds, KIND_SHIFT, max(IntervalKind)),
            ("next-line flags", nextline, 2, 1),
            ("stride flags", stride, 1, 1),
            ("tail flags", tail, 0, 1),
        ):
            if column is None:
                continue
            column = np.asarray(column)
            if column.shape != lengths.shape:
                raise IntervalError(
                    f"{label} misaligned with the {lengths.size} interval(s)"
                )
            if column.dtype == np.bool_:
                column = column.view(np.uint8)
            else:
                if column.dtype.kind != "u":
                    column = column.astype(np.int64)
                    if column.size and column.min() < 0:
                        raise IntervalError(f"{label} outside 0..{int(top)}")
                if column.size and column.max() > top:
                    raise IntervalError(f"{label} outside 0..{int(top)}")
                column = column.astype(np.uint8, copy=False)
            classes |= column << shift
        if bool(np.any((classes & (NEXTLINE | STRIDE)) == NEXTLINE | STRIDE)):
            raise IntervalError("next-line and stride flags overlap")
        if lengths.size:
            keys = lengths << CLASS_BITS
            keys |= classes
            self._buffer.append(keys)
            self._buffered += keys.size
            if self._buffered > max(_FOLD_BUFFER, self._keys.size):
                self._merge_buffer()

    def _merge_buffer(self) -> None:
        if not self._buffer:
            return
        keys = np.concatenate(self._buffer)
        self._buffer, self._buffered = [], 0
        # Sorting 32-bit keys takes half the time.
        narrow = keys.max() < 1 << 32
        keys, counts = np.unique(
            keys.astype(np.uint32) if narrow else keys, return_counts=True
        )
        keys = keys.astype(np.int64)
        self._keys, self._counts = _merge(
            np.concatenate((self._keys, keys)),
            np.concatenate((self._counts, counts.astype(np.int64))),
        )

    def population(self) -> IntervalPopulation:
        """Everything folded so far, as population rows."""
        self._merge_buffer()
        return IntervalPopulation(
            lengths=self._keys >> CLASS_BITS,
            classes=(self._keys & CLASS_MASK).astype(np.uint8),
            counts=self._counts,
        )
