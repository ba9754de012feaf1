"""Result-integrity guardrails: the invariant-validation gate.

The gate has two halves.  Inside the job, the first half runs on every
chunk: before the simulator folds a chunk's intervals into (length,
class) population rows (:meth:`~repro.core.intervals.IntervalRows.fold`),
it checks that the annotation flags align with the chunk's intervals,
that the lengths are positive, and that next-line and stride flags are
disjoint.  Once folded, a misaligned flag can no longer be told from a
real class.  A violation
raises :class:`~repro.errors.IntervalError`, which
:func:`~repro.engine.jobs.execute_job` turns into
:class:`InvalidResultError`.

In the parent, every fresh result — whatever backend produced it —
passes through :func:`check_result` before it is cached or handed to an
experiment.  The checks are the model's own physics and accounting
identities, so a worker that silently returns garbage (bit flips, a
miscompiled numpy, a buggy kernel) is caught *here*
rather than poisoning the content-addressed store every later run
reads from:

* cycle/instruction/stall counts are positive and consistent;
* per-cache access statistics balance (``hits + misses == accesses``,
  compulsory misses bounded by misses);
* the reduced populations are well-formed: rows sorted by length, then
  class, with no two alike; positive lengths no longer than the run and
  positive counts; valid class bits (a known kind, never next-line and
  stride together); and an interval count consistent with the
  access/eviction counts that generated it;
* energies derived from the populations stay inside the oracle
  envelope: the OPT lower bound lies in ``[0, baseline]`` and a full
  policy evaluation yields non-negative mode energies whose cycle shares
  sum to one.

A failing result is *quarantined*: recorded in telemetry (manifest v5's
``quarantine`` section), never written to the store, and the job is
rerun in-process.  On the in-process path a failing result raises
:class:`InvalidResultError`, which fails the job like any other error —
a mangled result surfaces as a clean per-job failure instead of a
corrupt cache entry.

The gate evaluates the energy checks at one fixed technology node (70 nm,
the paper's headline node); the envelope identities it asserts are
node-independent, so one node suffices and the model/policy pair is
built once and cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

from ..core.intervals import (
    CLASS_BITS,
    KIND_SHIFT,
    NEXTLINE,
    STRIDE,
    IntervalKind,
)
from ..errors import EngineError, ReproError

#: Technology node (nm) the energy-envelope checks are evaluated at.
GATE_NODE_NM = 70

#: Absolute tolerance for floating-point identity checks.
TOLERANCE = 1e-6

#: Slack on the interval-count bound: a cache can close one tail/cold
#: interval per frame at the end of simulation on top of the per-access
#: intervals; no configured L1 in this repository has more frames.
_FRAME_SLACK = 4096


class InvalidResultError(EngineError):
    """A simulation result failed the invariant-validation gate."""


@lru_cache(maxsize=1)
def _gate_context():
    """The (energy model, reference policy) pair the energy checks use.

    Imported lazily and cached: building the model calibrates re-fetch
    energies, which is cheap but not free, and the gate runs once per
    fresh result.
    """
    from ..core.energy import ModeEnergyModel
    from ..core.policy import OptHybrid
    from ..power.technology import paper_nodes

    model = ModeEnergyModel(paper_nodes()[GATE_NODE_NM])
    return model, OptHybrid(model)


def check_result(annotated) -> List[str]:
    """Validate one reduced simulation result; returns violations.

    An empty list means the result passes every invariant.  The checks
    never raise: anything the result's own malformedness breaks is
    reported as a violation, so a deeply-corrupt payload is quarantined
    rather than crashing the engine.
    """
    try:
        return _check(annotated)
    except ReproError as error:
        return [f"invariant evaluation rejected the result: {error}"]
    except Exception as error:  # noqa: BLE001 — corrupt payloads may break anything
        return [
            f"invariant evaluation crashed: {type(error).__name__}: {error}"
        ]


def _check(annotated) -> List[str]:
    violations: List[str] = []
    result = getattr(annotated, "result", None)
    if result is None:
        return ["payload carries no simulation result"]

    cycles = int(result.cycles)
    instructions = int(result.instructions)
    stalls = int(result.stall_cycles)
    if cycles <= 0:
        violations.append(f"cycles must be positive, got {cycles}")
    if instructions <= 0:
        violations.append(f"instructions must be positive, got {instructions}")
    if stalls < 0:
        violations.append(f"stall cycles must be non-negative, got {stalls}")
    elif cycles > 0 and stalls > cycles:
        violations.append(
            f"stall cycles ({stalls}) exceed total cycles ({cycles})"
        )

    for cache_name, level in (("l1i", "L1I"), ("l1d", "L1D")):
        population = getattr(annotated, cache_name, None)
        if population is None:
            violations.append(f"{cache_name}: annotations missing")
            continue
        violations.extend(
            _check_cache(cache_name, level, population, result, cycles)
        )
    return violations


def _check_cache(cache_name, level, population, result, cycles) -> List[str]:
    violations: List[str] = []
    lengths = np.asarray(population.lengths)
    classes = np.asarray(population.classes)
    counts = np.asarray(population.counts)
    # Pickling bypasses every constructor, so a mangled payload can carry
    # ragged, unsorted or impossible rows.
    if not (lengths.ndim == 1 and lengths.shape == classes.shape == counts.shape):
        violations.append(f"{cache_name}: population columns misaligned")
        return violations
    count = int(counts.sum())
    if len(lengths):
        keys = (lengths.astype(np.int64) << CLASS_BITS) | classes
        if bool(np.any(keys[1:] <= keys[:-1])):
            violations.append(
                f"{cache_name}: rows not sorted by length then class, "
                "or repeated"
            )
        if int(counts.min()) <= 0:
            violations.append(f"{cache_name}: row counts must be positive")
        shortest = int(lengths.min())
        longest = int(lengths.max())
        if shortest <= 0:
            violations.append(
                f"{cache_name}: interval lengths must be positive, "
                f"got {shortest}"
            )
        if cycles > 0 and longest > cycles:
            violations.append(
                f"{cache_name}: longest interval ({longest} cycles) "
                f"exceeds the run ({cycles} cycles)"
            )
        if int(classes.max()) >> KIND_SHIFT > max(IntervalKind):
            violations.append(f"{cache_name}: unknown interval kinds")
        both = NEXTLINE | STRIDE
        if bool(np.any((classes & both) == both)):
            violations.append(
                f"{cache_name}: next-line and stride flags overlap"
            )

    stats = result.stats.levels.get(level)
    if stats is None:
        violations.append(f"{cache_name}: {level} statistics missing")
        return violations
    accesses = int(stats.accesses)
    hits = int(stats.hits)
    misses = int(stats.misses)
    evictions = int(stats.evictions)
    compulsory = int(stats.compulsory_misses)
    if min(accesses, hits, misses, evictions, compulsory) < 0:
        violations.append(f"{cache_name}: negative access statistics")
    elif hits + misses != accesses:
        violations.append(
            f"{cache_name}: hits ({hits}) + misses ({misses}) != "
            f"accesses ({accesses})"
        )
    elif compulsory > misses:
        violations.append(
            f"{cache_name}: compulsory misses ({compulsory}) exceed "
            f"misses ({misses})"
        )
    # Every interval is closed by an access or by end-of-run cleanup
    # (at most one dead/cold interval per frame), so a population far
    # larger than the access stream is fabricated.
    if count > 2 * max(accesses, 0) + max(evictions, 0) + _FRAME_SLACK:
        violations.append(
            f"{cache_name}: {count} interval(s) inconsistent with "
            f"{accesses} access(es) and {evictions} eviction(s)"
        )

    if violations or not count:
        return violations
    return violations + _check_energy(cache_name, population)


def _gate_energies(population):
    """``(all-active baseline, oracle)`` energy of a population at the gate node.

    Both are count-weighted sums over the population's rows, priced per
    row independently of the prefix sums
    :func:`~repro.core.savings.evaluate_policy` reads.
    """
    from ..core.envelope import envelope_array
    from ..core.modes import Mode

    model, _ = _gate_context()
    lengths, counts = population.lengths, population.counts
    baseline = float((model.energy(Mode.ACTIVE, lengths) * counts).sum())
    oracle = float((envelope_array(model, lengths) * counts).sum())
    return baseline, oracle


def _check_energy(cache_name, population) -> List[str]:
    from ..core.savings import evaluate_policy

    violations: List[str] = []
    _, policy = _gate_context()
    baseline, oracle = _gate_energies(population)
    if not np.isfinite(baseline) or baseline < 0.0:
        violations.append(
            f"{cache_name}: baseline energy is not finite and non-negative "
            f"({baseline!r})"
        )
        return violations
    if not np.isfinite(oracle) or oracle < -TOLERANCE:
        violations.append(
            f"{cache_name}: oracle energy must be non-negative, got {oracle!r}"
        )
    elif oracle > baseline * (1.0 + 1e-9) + TOLERANCE:
        violations.append(
            f"{cache_name}: oracle energy ({oracle:.3f}) escapes the "
            f"all-active baseline envelope ({baseline:.3f})"
        )

    report = evaluate_policy(policy, population)
    breakdown = report.breakdown.values()
    if any(entry.energy < -TOLERANCE for entry in breakdown):
        violations.append(f"{cache_name}: negative per-mode energy")
    share = sum(entry.cycle_share for entry in breakdown)
    if abs(share - 1.0) > TOLERANCE:
        violations.append(
            f"{cache_name}: mode cycle shares sum to {share:.9f}, not 1"
        )
    if sum(entry.interval_count for entry in breakdown) != len(population):
        violations.append(
            f"{cache_name}: mode breakdown drops or duplicates intervals"
        )
    return violations
