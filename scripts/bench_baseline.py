"""Record the substrate performance baseline.

Runs ``benchmarks/bench_substrate.py``, ``benchmarks/bench_traces.py``
and ``benchmarks/bench_remote.py`` through pytest-benchmark and writes
the JSON results to ``BENCH_substrate.json`` at the repo root — the
committed perf trajectory future changes are compared against (the
batched-kernel acceptance bar was ">= 2x over the recorded mean of the
plain trace simulator", a bench retired with that simulator;
``bench_remote.py`` prices framed-worker dispatch and the worker start
handshake on local ``subprocess`` workers).

Usage::

    python scripts/bench_baseline.py              # full substrate suite
    python scripts/bench_baseline.py -k simulator # subset, pytest -k style
    python scripts/bench_baseline.py --out /tmp/bench.json

Compare a fresh run against the committed baseline with::

    python scripts/bench_baseline.py --out /tmp/new.json
    python scripts/bench_baseline.py --compare /tmp/new.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_substrate.json"


def run_benchmarks(out: Path, keyword: str | None) -> int:
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(REPO_ROOT / "benchmarks" / "bench_substrate.py"),
        str(REPO_ROOT / "benchmarks" / "bench_traces.py"),
        str(REPO_ROOT / "benchmarks" / "bench_remote.py"),
        "-q",
        f"--benchmark-json={out}",
    ]
    if keyword:
        command += ["-k", keyword]
    env_path = str(REPO_ROOT / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        env_path + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else env_path
    )
    print(f"$ {' '.join(command)}")
    result = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if result.returncode == 0:
        print(f"baseline written to {out}")
    return result.returncode


def load_stats(path: Path) -> dict:
    """``{name: (min, mean)}`` per benchmark in a pytest-benchmark JSON."""
    document = json.loads(path.read_text(encoding="utf-8"))
    return {
        bench["name"]: (bench["stats"]["min"], bench["stats"]["mean"])
        for bench in document.get("benchmarks", [])
    }


def compare(baseline: Path, candidate: Path) -> int:
    """Flag a benchmark whose fastest round is over 10 % slower.

    The minimum is compared because it is the least noisy statistic on
    a shared host; the mean is printed beside it.
    """
    old, new = load_stats(baseline), load_stats(candidate)
    shared = sorted(set(old) & set(new))
    if not shared:
        print("no overlapping benchmarks to compare")
        return 1
    width = max(len(name) for name in shared)
    regressed = False
    for name in shared:
        (old_min, old_mean), (new_min, new_mean) = old[name], new[name]
        ratio = old_min / new_min if new_min else float("inf")
        flag = ""
        if ratio < 0.9:
            flag = "  <-- regression"
            regressed = True
        print(
            f"{name:<{width}}  min {old_min * 1e3:9.2f} ms -> "
            f"{new_min * 1e3:9.2f} ms  ({ratio:5.2f}x)  mean "
            f"{old_mean * 1e3:9.2f} ms -> {new_mean * 1e3:9.2f} ms{flag}"
        )
    return 1 if regressed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", dest="keyword", default=None,
                        help="pytest -k expression selecting benchmarks")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default: {DEFAULT_OUT})")
    parser.add_argument("--compare", type=Path, default=None, metavar="JSON",
                        help="compare JSON against the committed baseline "
                             "instead of running benchmarks")
    arguments = parser.parse_args()
    if arguments.compare is not None:
        return compare(DEFAULT_OUT, arguments.compare)
    return run_benchmarks(arguments.out, arguments.keyword)


if __name__ == "__main__":
    raise SystemExit(main())
