"""Prove the trace writer's and reader's memory stay bounded on huge traces.

Writes a trace much larger than the allowed resident set in one fresh
subprocess, streams it back in another, and asserts each child's peak
RSS (``ru_maxrss``) stayed under the budget.  The default sizing makes
the decoded trace at least 10x the RSS budget, so buffering the trace
— or any constant fraction of it — on either side would blow the
check immediately; only genuine chunk-at-a-time writing (the encoder
and its write-behind compression helpers) and streaming pass.

Usage::

    python scripts/trace_rss_check.py                 # ~1.3 GB decoded, 128 MB budget
    python scripts/trace_rss_check.py --accesses 80000000 --budget-mb 128

The generator writes synthetic chunks directly through the recording
writer, so producing the gigabyte-scale input takes about 25 seconds on
two cores, not a full workload simulation.  The reading child checks
the trace reader, which decodes one chunk ahead on a helper thread.
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Bytes one decoded access occupies (RECORD_DTYPE).
BYTES_PER_ACCESS = 17


def generate(path: Path, accesses: int) -> int:
    """Write ``accesses`` synthetic records to ``path``; returns file bytes."""
    import numpy as np

    from repro.cpu.trace import TraceChunk
    from repro.traces import TraceWriter

    block = 1_000_000
    rng = np.random.default_rng(7)
    pcs = (np.arange(block, dtype=np.int64) * 4) % (1 << 20)
    addrs = np.where(
        pcs % 8 == 0, rng.integers(0, 1 << 30, size=block), -1
    ).astype(np.int64)
    kinds = np.where(addrs >= 0, 1, 0).astype(np.uint8)
    chunk = TraceChunk(pcs, addrs, kinds)
    with TraceWriter(path) as writer:
        written = 0
        while written < accesses:
            take = min(block, accesses - written)
            writer.append(chunk if take == block else chunk.slice(0, take))
            written += take
        info = writer.close()
    return info.file_bytes


def check_own_rss(role: str, done: str, budget_mb: float) -> int:
    """Report what a child did and fail if its peak RSS broke the budget."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{done}; peak RSS {peak_mb:.1f} MB (budget {budget_mb:.0f} MB)")
    if peak_mb > budget_mb:
        print(
            f"FAIL: peak RSS {peak_mb:.1f} MB exceeds the {budget_mb:.0f} MB "
            f"budget — the {role} is not streaming",
            file=sys.stderr,
        )
        return 1
    return 0


def write_child(path: str, accesses: int, budget_mb: float) -> int:
    """Child mode: write the trace, then check our own peak RSS."""
    file_mb = generate(Path(path), accesses) / (1024 * 1024)
    return check_own_rss(
        "writer", f"wrote {accesses} accesses to a {file_mb:.0f} MB trace", budget_mb
    )


def read_child(path: str, budget_mb: float) -> int:
    """Child mode: stream the trace, then check our own peak RSS."""
    from repro.traces import TraceRecording

    accesses = 0
    for chunk in TraceRecording(path).chunks():
        accesses += len(chunk)
    file_mb = os.path.getsize(path) / (1024 * 1024)
    decoded_mb = accesses * BYTES_PER_ACCESS / (1024 * 1024)
    return check_own_rss(
        "reader",
        f"streamed {accesses} accesses ({decoded_mb:.0f} MB decoded) from a "
        f"{file_mb:.0f} MB trace",
        budget_mb,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--accesses", type=int, default=80_000_000,
        help="trace length in accesses (default 80M, ~1.3 GB decoded)",
    )
    parser.add_argument(
        "--budget-mb", type=float, default=128.0,
        help="peak-RSS budget for the writing and the streaming child "
        "(default 128 MB; measured about 62 MB writing and 35-40 MB "
        "reading, whatever the trace length)",
    )
    parser.add_argument(
        "--write-child", default=None, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--read-child", default=None, help=argparse.SUPPRESS
    )
    arguments = parser.parse_args()
    if arguments.write_child is not None:
        return write_child(arguments.write_child, arguments.accesses, arguments.budget_mb)
    if arguments.read_child is not None:
        return read_child(arguments.read_child, arguments.budget_mb)

    decoded_bytes = arguments.accesses * BYTES_PER_ACCESS
    budget_bytes = arguments.budget_mb * 1024 * 1024
    if decoded_bytes < 10 * budget_bytes:
        print(
            f"FAIL: trace would decode to {decoded_bytes / 2**20:.0f} MB, under 10x the "
            f"{arguments.budget_mb:.0f} MB budget; raise --accesses or lower "
            f"--budget-mb for a meaningful check",
            file=sys.stderr,
        )
        return 2

    with tempfile.TemporaryDirectory(prefix="trace-rss-") as tmp:
        path = Path(tmp) / "huge.rtr"
        print(
            f"generating {arguments.accesses} accesses "
            f"(~{decoded_bytes / 2**20:.0f} MB decoded) ..."
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(SRC) + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else str(SRC)
        )
        common = [
            sys.executable, __file__,
            "--accesses", str(arguments.accesses),
            "--budget-mb", str(arguments.budget_mb),
        ]
        for role in ("--write-child", "--read-child"):
            child = subprocess.run(common + [role, str(path)], env=env)
            if child.returncode:
                return child.returncode
        return 0


if __name__ == "__main__":
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    raise SystemExit(main())
