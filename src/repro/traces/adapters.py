"""Adapters converting external trace dumps into the native format.

The only adapter so far parses gem5 ``Exec`` debug-flag text traces —
lines shaped like::

    500: system.cpu T0 : 0x400b94 : ldq r1, 0(r2) : MemRead : D=0x1 A=0x140008a90
    1000: system.cpu T0 : 0x400b98 : addq r1, r1, 1 : IntAlu :

Each line becomes one instruction: the PC after ``: 0x``, and — when the
line carries a ``MemRead``/``MemWrite`` class — a data access at the
``A=0x...`` address.  Lines that do not match (comments, stats output,
micro-op continuations without a PC) are counted and skipped, not
fatal: real dumps are messy and a converter that dies on line 3 of a
40 GB file is useless.  The output streams through a
:class:`~repro.traces.format.TraceWriter`, so conversion is constant
memory regardless of input size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable

import numpy as np

from ..cpu.trace import LOAD, NO_ACCESS, STORE, TraceChunk
from ..errors import TraceError
from .format import DEFAULT_CHUNK_INSTRUCTIONS, TraceInfo, TraceWriter

#: ``<tick>: <cpu> [Tn :] 0x<pc>`` — the prefix of a gem5 Exec line.
_EXEC_LINE = re.compile(
    r"^\s*\d+\s*:\s*\S+\s+(?:T\d+\s+:\s+)?0x(?P<pc>[0-9a-fA-F]+)"
)

#: ``A=0x<addr>`` — the data address of a memory micro-op.
_DATA_ADDR = re.compile(r"\bA=0x(?P<addr>[0-9a-fA-F]+)")


@dataclass(frozen=True)
class ConversionReport:
    """What a conversion produced, for logging and tests."""

    source: str
    instructions: int
    loads: int
    stores: int
    skipped_lines: int
    info: TraceInfo

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "skipped_lines": self.skipped_lines,
            "trace": self.info.to_dict(),
        }


def _parse_gem5_lines(lines: Iterable[str]):
    """Yield ``(pc, daddr, kind)`` per instruction; count skipped lines."""

    for line in lines:
        match = _EXEC_LINE.match(line)
        if match is None:
            yield None
            continue
        pc = int(match.group("pc"), 16)
        kind = NO_ACCESS
        daddr = -1
        if "MemRead" in line or "MemWrite" in line:
            addr = _DATA_ADDR.search(line)
            if addr is None:
                # A memory op whose address gem5 elided: treat as a plain
                # instruction rather than inventing an address.
                yield (pc, -1, NO_ACCESS)
                continue
            daddr = int(addr.group("addr"), 16)
            kind = STORE if "MemWrite" in line else LOAD
        yield (pc, daddr, kind)


def convert_gem5_text(
    source: Path | str,
    dest: Path | str,
    *,
    chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS,
) -> ConversionReport:
    """Convert a gem5 Exec-style text trace into the native format."""

    source = Path(source)
    if not source.is_file():
        raise TraceError(f"gem5 trace file {source} does not exist")

    pcs: list = []
    daddrs: list = []
    kinds: list = []
    instructions = 0
    loads = 0
    stores = 0
    skipped = 0

    def flush(writer: TraceWriter) -> None:
        if pcs:
            writer.append(
                TraceChunk(
                    np.asarray(pcs, dtype=np.int64),
                    np.asarray(daddrs, dtype=np.int64),
                    np.asarray(kinds, dtype=np.uint8),
                )
            )
            pcs.clear()
            daddrs.clear()
            kinds.clear()

    with TraceWriter(
        dest,
        chunk_instructions=chunk_instructions,
        provenance={"adapter": "gem5-text", "source": source.name},
    ) as writer:
        with source.open("r", errors="replace") as fh:
            for parsed in _parse_gem5_lines(fh):
                if parsed is None:
                    skipped += 1
                    continue
                pc, daddr, kind = parsed
                pcs.append(pc)
                daddrs.append(daddr)
                kinds.append(kind)
                instructions += 1
                if kind == LOAD:
                    loads += 1
                elif kind == STORE:
                    stores += 1
                if len(pcs) >= chunk_instructions:
                    flush(writer)
        if instructions == 0:
            raise TraceError(
                f"{source}: no gem5 Exec instructions recognized "
                f"({skipped} lines skipped) — is this an Exec-flag debug trace?"
            )
        flush(writer)
        info = writer.close()

    return ConversionReport(
        source=str(source),
        instructions=instructions,
        loads=loads,
        stores=stores,
        skipped_lines=skipped,
        info=info,
    )
