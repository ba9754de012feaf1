"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import replace
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
