"""Instruction/data access traces.

The reproduction is trace-driven (the substitute for SimpleScalar running
Alpha binaries — see DESIGN.md §3.4): a trace is a sequence of retired
instructions, each carrying its fetch PC and at most one data access.
Traces are held column-wise in :class:`TraceChunk` objects (numpy arrays)
and streamed chunk-by-chunk so multi-million-instruction workloads never
materialize object lists.  On disk, traces live in the ``.rtr`` format
(:mod:`repro.traces.format`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import TraceError

#: Data-kind codes in a chunk's ``data_kinds`` column.
NO_ACCESS, LOAD, STORE = 0, 1, 2


class TraceChunk:
    """A column-wise batch of instructions.

    Attributes
    ----------
    pcs: fetch addresses (int64).
    data_addresses: data addresses, ``-1`` where the instruction has none.
    data_kinds: ``NO_ACCESS`` / ``LOAD`` / ``STORE`` per instruction.
    """

    def __init__(
        self,
        pcs: Sequence[int] | np.ndarray,
        data_addresses: Sequence[int] | np.ndarray | None = None,
        data_kinds: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        pcs = np.asarray(pcs, dtype=np.int64)
        if pcs.ndim != 1:
            raise TraceError(f"pcs must be one-dimensional, got shape {pcs.shape}")
        if pcs.size and int(pcs.min()) < 0:
            raise TraceError("pcs cannot be negative")
        n = pcs.size
        if data_addresses is None:
            data_addresses = np.full(n, -1, dtype=np.int64)
        else:
            data_addresses = np.asarray(data_addresses, dtype=np.int64)
        if data_kinds is None:
            data_kinds = np.where(data_addresses >= 0, LOAD, NO_ACCESS).astype(
                np.uint8
            )
        else:
            data_kinds = np.asarray(data_kinds, dtype=np.uint8)
        if data_addresses.shape != pcs.shape or data_kinds.shape != pcs.shape:
            raise TraceError("trace columns must share one shape")
        # A row has an address iff it has a data kind; find which way a
        # mismatch goes only once there is one.
        if bool(np.any((data_kinds == NO_ACCESS) != (data_addresses < 0))):
            if bool(np.any((data_kinds != NO_ACCESS) & (data_addresses < 0))):
                raise TraceError("a load/store row must carry a data address")
            raise TraceError("a no-access row cannot carry a data address")
        if data_kinds.size and int(data_kinds.max()) > STORE:
            raise TraceError("data_kinds contains an unknown code")
        self.pcs = pcs
        self.data_addresses = data_addresses
        self.data_kinds = data_kinds

    def __len__(self) -> int:
        return int(self.pcs.size)

    def slice(self, start: int, stop: int) -> "TraceChunk":
        """A sub-chunk covering instructions ``start..stop``."""
        return TraceChunk(
            self.pcs[start:stop],
            self.data_addresses[start:stop],
            self.data_kinds[start:stop],
        )


def merge_chunks(chunks: Iterable[TraceChunk]) -> TraceChunk:
    """Concatenate many chunks into one."""
    chunks = list(chunks)
    if not chunks:
        return TraceChunk(np.empty(0, dtype=np.int64))
    return TraceChunk(
        np.concatenate([c.pcs for c in chunks]),
        np.concatenate([c.data_addresses for c in chunks]),
        np.concatenate([c.data_kinds for c in chunks]),
    )
