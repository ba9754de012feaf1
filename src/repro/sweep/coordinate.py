"""Shared sweep directories: many hosts, one cache, one record of progress.

A sweep owns a directory under ``<cache_dir>/sweeps/<name>/`` shared by
every shard (on one host, or many hosts mounting the same cache):

* ``spec.json`` — the sweep spec, written atomically by the first shard
  to arrive.  Every later shard (and ``status``/``merge``) verifies its
  own spec against it by fingerprint, so two hosts can never silently
  run *different* grids under one sweep name.
* ``shard-<i>-of-<n>/manifest.json`` — that shard's telemetry manifest,
  written atomically when the shard's run finishes.
* ``manifest.json`` — the merged sweep manifest, written atomically by
  ``sweep merge`` (flagged ``"merged": true`` so the cross-run sharing
  statistics count only its ``merge_totals``, never the duplicated
  ``shard_totals``).

Progress lives in the content-addressed result cache alone: a grid point
is done when the :class:`~repro.engine.ResultStore` holds its key at the
current schema version.  Re-running a shard is a cache hit for every
finished point, ``status`` checks entry headers, and ``merge`` reads results from the cache (recomputing
transparently if an entry is missing or rotted), which is what makes a
merged report byte-identical to an unsharded run.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..engine import ResultStore, atomic_write_bytes, resolve_cache_dir
from ..errors import EngineError
from .grid import expand
from .shard import ShardAssignment
from .spec import SweepSpec

#: Subdirectory of the cache dir holding one directory per sweep name.
SWEEPS_SUBDIR = "sweeps"

_SHARD_DIR_PATTERN = re.compile(r"^shard-(\d+)-of-(\d+)$")


def atomic_write_json(path: os.PathLike, payload: Dict) -> Optional[str]:
    """Write ``payload`` as indented JSON via temp file + rename.

    Returns the path written, or ``None`` when the filesystem refuses —
    sweep bookkeeping must never break the run that produces it.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        atomic_write_bytes(path, text.encode("utf-8"))
    except OSError:
        return None
    return str(path)


def iter_run_manifests(
    cache_dir: os.PathLike,
) -> Iterator[Tuple[Path, Dict]]:
    """Yield every sweep shard and merged sweep manifest under a cache.

    Covers ``sweeps/<name>/<shard>/manifest.json`` and merged sweep
    manifests (``sweeps/<name>/manifest.json``, flagged
    ``"merged": true``).  Callers aggregating totals must not
    double-count merged manifests — their ``shard_totals`` summarise
    shard manifests yielded separately; only their ``merge_totals``
    (the merge run itself) are additive.
    """
    root = Path(cache_dir)
    for pattern in (
        f"{SWEEPS_SUBDIR}/*/*/manifest.json",
        f"{SWEEPS_SUBDIR}/*/manifest.json",
    ):
        try:
            paths = sorted(root.glob(pattern))
        except OSError:
            continue
        for path in paths:
            try:
                manifest = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if isinstance(manifest, dict):
                yield path, manifest


def collect_sharing_stats(cache_dir: os.PathLike) -> Dict:
    """Cross-run cache sharing totals, aggregated from sweep manifests.

    Every sweep shard and merge leaves a telemetry manifest in the sweep
    directory; summing their totals shows how much work the
    content-addressed cache let later runs skip — the ``repro-leakage
    cache info`` "sharing" section.  A merged sweep manifest contributes
    only its ``merge_totals`` (the merge run's own engine pass); its
    ``shard_totals`` duplicate the shard manifests counted directly.
    """
    stats = {
        "manifests": 0,
        "jobs": 0,
        "simulated": 0,
        "cached": 0,
        "hits_from_earlier_runs": 0,
        "hits_from_this_run": 0,
    }
    for _, manifest in iter_run_manifests(cache_dir):
        totals = manifest.get(
            "merge_totals" if manifest.get("merged") else "totals"
        )
        if not isinstance(totals, dict):
            continue
        stats["manifests"] += 1
        for field, source in (
            ("jobs", "jobs"),
            ("simulated", "simulated"),
            ("cached", "cached"),
            ("hits_from_earlier_runs", "cache_hits_from_earlier_runs"),
            ("hits_from_this_run", "cache_hits_from_this_run"),
        ):
            value = totals.get(source)
            if isinstance(value, (int, float)):
                stats[field] += int(value)
    return stats


class SweepCoordinator:
    """Manages one sweep's shared directory under the cache."""

    def __init__(
        self, spec: SweepSpec, cache_dir: Optional[os.PathLike] = None
    ) -> None:
        self.spec = spec
        self.cache_dir = resolve_cache_dir(cache_dir)
        self.directory = self.cache_dir / SWEEPS_SUBDIR / spec.name
        self.spec_path = self.directory / "spec.json"
        self.manifest_path = self.directory / "manifest.json"

    # ------------------------------------------------------------------
    # Spec pinning
    # ------------------------------------------------------------------
    def ensure_spec(self) -> None:
        """Pin this sweep's spec on disk, or verify it matches the pin.

        The first shard writes ``spec.json``; everyone after must carry
        an identical spec (by fingerprint).  A mismatch is a hard error:
        merging shards of two different grids would silently drop or
        duplicate points.
        """
        recorded = self._load_recorded_spec()
        if recorded is None:
            if atomic_write_json(self.spec_path, self.spec.to_dict()) is None:
                raise EngineError(
                    f"cannot write sweep spec under {self.describe()}; "
                    "is the cache directory writable?"
                )
            return
        if recorded.fingerprint() != self.spec.fingerprint():
            raise EngineError(
                f"sweep {self.spec.name!r} already exists under "
                f"{self.describe()} with a different spec "
                f"(recorded {recorded.fingerprint()[:12]}, "
                f"yours {self.spec.fingerprint()[:12]}); use a new sweep "
                "name or delete the old sweep directory"
            )

    def _load_recorded_spec(self) -> Optional[SweepSpec]:
        try:
            text = self.spec_path.read_text(encoding="utf-8")
        except OSError:
            return None
        return SweepSpec.from_json(text)

    # ------------------------------------------------------------------
    # Shard manifests
    # ------------------------------------------------------------------
    def write_shard_manifest(
        self, assignment: ShardAssignment, manifest: Dict
    ) -> Optional[str]:
        """Atomically write one shard's telemetry manifest."""
        return atomic_write_json(
            self.directory / assignment.dir_name / "manifest.json", manifest
        )

    def shard_names(self) -> List[str]:
        """Names of every shard directory present, sorted."""
        try:
            entries = sorted(p.name for p in self.directory.iterdir())
        except OSError:
            return []
        return [n for n in entries if _SHARD_DIR_PATTERN.match(n)]

    # ------------------------------------------------------------------
    # Status and merge
    # ------------------------------------------------------------------
    def status(self) -> Dict:
        """Global progress: grid size, and which points the cache holds.

        A point counts as done when the result store holds its key at the
        current schema version; only entry headers are read, nothing is
        unpickled.
        """
        points = expand(self.spec)
        store = ResultStore(self.cache_dir)
        grid_keys = {point.key() for point in points}
        cached = {key for key in grid_keys if store.contains(key)}
        shards = []
        for name in self.shard_names():
            assignment = parse_shard_name(name)
            owned = None
            done = 0
            if assignment is not None:
                mine = {key for key in grid_keys if assignment.owns(key)}
                owned = len(mine)
                done = len(mine & cached)
            shards.append(
                {
                    "name": name,
                    "cached": done,
                    "owned": owned,
                    "manifest": (
                        self.directory / name / "manifest.json"
                    ).exists(),
                }
            )
        missing = [p.describe() for p in points if p.key() not in cached]
        return {
            "sweep": self.spec.name,
            "directory": self.describe(),
            "spec_fingerprint": self.spec.fingerprint(),
            "grid_jobs": len(grid_keys),
            "completed": len(cached),
            "missing": missing,
            "shards": shards,
        }

    def write_merged_manifest(self, payload: Dict) -> Optional[str]:
        """Atomically write the sweep-level manifest (``"merged": true``)."""
        merged = dict(payload)
        merged["merged"] = True
        return atomic_write_json(self.manifest_path, merged)

    def describe(self) -> str:
        """Location string for errors and telemetry."""
        return str(self.directory)


def parse_shard_name(name: str) -> Optional[ShardAssignment]:
    """The assignment a shard directory name encodes, if valid."""
    match = _SHARD_DIR_PATTERN.match(name)
    if not match:
        return None
    index, count = int(match.group(1)), int(match.group(2))
    if not 0 <= index < count:
        return None
    return ShardAssignment(index, count)
