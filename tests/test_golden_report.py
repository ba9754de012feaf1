"""Golden report: the whole paper report must not drift by a single byte.

``tests/golden/run_all_scale0.05.txt`` is the stdout of ``repro-leakage
run all --scale 0.05 --jobs 1``.  Any change to simulation, pricing or
rendering that moves a printed number fails here instead of going
unnoticed.  Regenerate the file only for a deliberate, documented change
of the numbers.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "run_all_scale0.05.txt"


def test_run_all_matches_golden_report(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run", "all", "--scale", "0.05", "--jobs", "1"],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr.decode(errors="replace")
    assert completed.stdout == GOLDEN.read_bytes()
