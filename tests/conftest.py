"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

# Allow running the tests without installing the package.
_TESTS = Path(__file__).resolve().parent
_SRC = _TESTS.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np
import pytest

from repro.core.energy import ModeEnergyModel, TransitionDurations
from repro.power.technology import make_paper_node, paper_nodes


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    """One result cache for the whole session, never the developer's.

    Set before any store is built, so a test that reads the default cache
    simulates with the code under test instead of reading entries an
    older checkout left in ``~/.cache``.  Tests that need a cache of
    their own still point ``REPRO_CACHE_DIR`` at a per-test directory.
    """
    directory = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(directory))
        yield directory


@pytest.fixture(scope="session")
def nodes():
    """The four calibrated paper technology nodes."""
    return paper_nodes()


@pytest.fixture(scope="session")
def node70(nodes):
    """The 70 nm node the paper's main experiments use."""
    return nodes[70]


@pytest.fixture(scope="session")
def model70(node70):
    """Energy model at 70 nm with the paper's durations."""
    return ModeEnergyModel(node70)


@pytest.fixture()
def durations():
    """The paper's transition durations."""
    return TransitionDurations()


@pytest.fixture()
def rng():
    """Seeded RNG for deterministic randomized tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def uncalibrated_node70():
    """A 70 nm node without a calibrated re-fetch energy."""
    return make_paper_node(70)


def broken(execute_job, modes):
    """``execute_job`` that fails as ``modes[job.benchmark]`` says: ``crash``
    kills the process, ``raise`` raises, ``garbage`` returns negative
    cycle counts for the validation gate to reject."""

    def execute(job):
        mode = modes.get(job.benchmark)
        if mode == "crash":
            os._exit(3)
        if mode == "raise":
            raise RuntimeError(f"planted failure in {job.describe()}")
        annotated = execute_job(job)
        if mode == "garbage":
            result = replace(annotated.result, cycles=-1, stall_cycles=-1)
            annotated = replace(annotated, result=result)
        return annotated

    return execute


#: A worker process: the real worker loop around a broken ``execute_job``;
#: its arguments are ``benchmark=mode`` pairs.
_BROKEN_WORKER = (
    "import sys, conftest, repro.engine.jobs as jobs; "
    "from repro.engine.worker import main; "
    "modes = dict(arg.rpartition('=')[::2] for arg in sys.argv[1:]); "
    "jobs.execute_job = conftest.broken(jobs.execute_job, modes); "
    "sys.exit(main())"
)


@contextmanager
def broken_workers(**modes):
    """Workers started inside the block break ``benchmark=mode`` jobs."""
    from repro.engine import backends

    spawn = backends._spawn_command

    def broken_spawn():
        command, env = spawn()
        env["PYTHONPATH"] = f"{_TESTS}{os.pathsep}{env['PYTHONPATH']}"
        pairs = [f"{name}={mode}" for name, mode in modes.items()]
        return [*command[:-1], _BROKEN_WORKER, *pairs], env

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "_spawn_command", broken_spawn)
        yield


@contextmanager
def broken_in_process(**modes):
    """In-process runs inside the block break ``benchmark=mode`` jobs."""
    from repro.engine import parallel

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "execute_job", broken(parallel.execute_job, modes))
        yield


def damage_entry(store, key, how):
    """Damage one cache entry: ``flip`` its payload tail or ``truncate`` it."""
    path = store.path_for(key)
    raw = path.read_bytes()
    if how == "flip":
        raw = raw[:-8] + bytes(b ^ 0xFF for b in raw[-8:])
    else:
        raw = raw[: len(raw) // 3]
    path.write_bytes(raw)


@dataclass(eq=False)
class RawIntervals:
    """One cache's intervals as a simulator folded them, in fold order."""

    lengths: np.ndarray
    kinds: np.ndarray
    nextline: np.ndarray
    stride: np.ndarray
    tail: np.ndarray

    @property
    def prefetchable(self):
        return self.nextline | self.stride | self.tail

    def columns(self):
        return tuple(getattr(self, field.name) for field in fields(self))

    def population(self):
        from repro.core.intervals import IntervalPopulation

        return IntervalPopulation.of(*self.columns())

    def assert_same(self, other, label=""):
        """Column for column, interval for interval."""
        for field, mine, theirs in zip(fields(self), self.columns(), other.columns()):
            assert np.array_equal(mine, theirs), (label, field.name)


#: The columns of a fold that folded nothing, with their dtypes.
_NO_FOLD = RawIntervals(
    np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8),
    *(np.zeros(0, dtype=bool) for _ in range(3)),
)


@contextmanager
def folded_intervals():
    """Record every fold into an ``IntervalRows`` inside the block.

    Yields a list that gains one :class:`RawIntervals` per
    ``population()`` call, in call order: a simulator run adds its L1I's,
    then its L1D's.
    """
    from repro.core.intervals import IntervalRows

    fold, population = IntervalRows.fold, IntervalRows.population
    parts, recorded = {}, []

    def recording_fold(
        self, lengths, kinds=None, nextline=None, stride=None, tail=None
    ):
        fold(self, lengths, kinds, nextline, stride, tail)
        parts.setdefault(self, []).append(
            tuple(
                np.zeros(len(lengths), dtype=empty.dtype)
                if column is None
                else np.asarray(column).astype(empty.dtype)
                for column, empty in zip(
                    (lengths, kinds, nextline, stride, tail), _NO_FOLD.columns()
                )
            )
        )

    def recording_population(self):
        folds = [_NO_FOLD.columns(), *parts.pop(self, [])]
        recorded.append(RawIntervals(*map(np.concatenate, zip(*folds))))
        return population(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntervalRows, "fold", recording_fold)
        patch.setattr(IntervalRows, "population", recording_population)
        yield recorded


def run_recorded(simulator, trace):
    """``(result, {cache: RawIntervals})`` of one simulator run.

    Each cache's recorded intervals reduce to exactly the population the
    run returned for it.
    """
    with folded_intervals() as recorded:
        annotated = simulator.run(trace)
    assert len(recorded) == 2
    raw = dict(zip(("l1i", "l1d"), recorded))
    for cache, intervals in raw.items():
        assert intervals.population() == annotated.annotated_for(cache)
    return annotated, raw


def assignment_cost(model, lengths, codes):
    """Total energy of a per-interval mode assignment, priced per mode.

    What no assignment may beat: Theorem 1 puts the envelope
    (``envelope_array``) below every one.
    """
    from repro.core.policy import CODE_MODES

    return sum(
        float(model.energy(mode, lengths[codes == code]).sum())
        for code, mode in CODE_MODES.items()
        if np.any(codes == code)
    )
