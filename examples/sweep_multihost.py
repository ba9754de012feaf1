"""A sharded technology sweep, end to end (the `repro.sweep` subsystem).

The paper's scaling study (Table 2 / Figures 7-9) is a grid: every
benchmark at every technology node.  This example drives that grid the
way a multi-host run would — plan the shard split, run each shard
against one shared cache directory, watch global status, merge — and
then verifies the sweep contract: the merged report is byte-identical
to an unsharded single-host run, and re-running a finished shard
simulates nothing.

Everything here also works from the command line::

    repro-leakage sweep plan   --spec spec.json --shard-count 2
    repro-leakage sweep run    --spec spec.json --shard-index 0 --shard-count 2
    repro-leakage sweep run    --spec spec.json --shard-index 1 --shard-count 2
    repro-leakage sweep status --spec spec.json
    repro-leakage sweep merge  --spec spec.json

Run:  python examples/sweep_multihost.py  [scale]
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sweep import (
    ShardAssignment,
    SweepSpec,
    merge,
    plan_text,
    run_shard,
    status_text,
)

SCALE = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
SHARDS = 2


def main() -> None:
    spec = SweepSpec(
        "scaling-demo",
        benchmarks=("gzip", "ammp", "mesa"),
        scales=(SCALE,),
        nodes=(70, 100, 130, 180),
    )

    print("=== plan ===")
    print(plan_text(spec, shard_count=SHARDS))

    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
        shared_cache = Path(tmp) / "shared"

        # Each of these would run on its own host; they only need to
        # agree on the spec and mount the same cache directory.
        print(f"\n=== run {SHARDS} shards against {shared_cache} ===")
        for index in range(SHARDS):
            run = run_shard(
                spec, ShardAssignment(index, SHARDS), cache_dir=shared_cache
            )
            print(f"{run.assignment.describe()}: ran {run.jobs_run} job(s)")

        print("\n=== status ===")
        print(status_text(spec, cache_dir=shared_cache))

        print("\n=== merge ===")
        merged = merge(spec, cache_dir=shared_cache)
        print(merged.report)

        # The contract: sharding is invisible in the numbers.
        solo_cache = Path(tmp) / "solo"
        run_shard(spec, cache_dir=solo_cache)
        solo = merge(spec, cache_dir=solo_cache)
        assert merged.report == solo.report, "sharded != unsharded report"
        print("\nverified: merged 2-shard report is byte-identical to an "
              "unsharded run")

        # Re-running a finished shard finds every point in the cache.
        rerun = run_shard(spec, ShardAssignment(0, SHARDS),
                          cache_dir=shared_cache)
        assert rerun.telemetry.simulated == 0
        print("verified: re-running a finished shard simulated nothing "
              f"({rerun.telemetry.cached} cache hit(s))")


if __name__ == "__main__":
    main()
