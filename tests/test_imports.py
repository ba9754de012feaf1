"""What importing the package loads, and the names that must stay importable.

``repro``, ``repro.core``, ``repro.cache``, ``repro.engine`` and
``repro.traces`` re-export lazily, and the CLI imports the ``sweep``
verb's modules only when it runs, so a paper run never loads the sweep
driver, the trace arenas, ``subprocess`` or the analysis
modules it does not call.  Each check starts a fresh interpreter: this test
process has imported everything already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_unused_layers_unloaded():
    loaded = json.loads(
        run_python(
            "import json, sys; import repro.cli; "
            "print(json.dumps(sorted(sys.modules)))"
        )
    )
    for name in (
        "repro.sweep",
        "repro.engine.transport",
        "repro.engine.backends",
        "subprocess",
    ):
        assert name not in loaded, name


def run_figure9(cache_dir) -> list:
    """Modules loaded by one ``run figure9 --scale 0.02 --jobs 1``."""
    loaded, code = json.loads(
        run_python(
            "import contextlib, io, json, os, sys\n"
            f"os.environ['REPRO_CACHE_DIR'] = {str(cache_dir)!r}\n"
            "from repro.cli import main\n"
            "sink = io.StringIO()\n"
            "with contextlib.redirect_stdout(sink), "
            "contextlib.redirect_stderr(sink):\n"
            "    code = main(['run', 'figure9', '--scale', '0.02', "
            "'--jobs', '1'])\n"
            "print(json.dumps([sorted(sys.modules), code]))\n"
        )
    )
    assert code == 0
    return loaded


def test_in_process_run_leaves_the_worker_backend_unloaded(tmp_path):
    # A --jobs 1 run never starts workers, so it must not pay for them.
    loaded = run_figure9(tmp_path)
    for name in ("repro.engine.backends", "repro.engine.worker"):
        assert name not in loaded, name


def test_cached_run_leaves_the_oracles_unloaded(tmp_path):
    # A cached run only prices policies: it never calls the generalized
    # model or the decay cache.
    run_figure9(tmp_path)
    loaded = run_figure9(tmp_path)
    for name in ("repro.core.model", "repro.cache.decay"):
        assert name not in loaded, name
    out = run_python(
        "import repro.cache, repro.core; "
        "print(repro.core.OptHybrid.__name__, repro.cache.DecayCache.__name__)"
    )
    assert out == "OptHybrid DecayCache\n"


def test_package_attributes_resolve_lazily():
    out = run_python(
        "import repro; "
        "print(repro.core.OptHybrid.__name__, repro.core.envelope_modes.__name__, "
        "repro.experiments.__name__); "
        "from repro import engine, ConfigurationError; "
        "from repro.engine import ExecutionEngine, BACKEND_NAMES; "
        "print(ExecutionEngine.__name__, BACKEND_NAMES); "
        "print(repro.sweep.SweepSpec.__name__, repro.traces.TraceRecording.__name__)"
    )
    assert out.split("\n")[:3] == [
        "OptHybrid envelope_modes repro.experiments",
        "ExecutionEngine ('pool', 'subprocess')",
        "SweepSpec TraceRecording",
    ]


def test_unknown_package_attribute_raises():
    run_python(
        "import repro, repro.engine\n"
        "for module in (repro, repro.engine):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(1)\n"
    )


def test_traced_layer_names_stay_importable():
    """The layer functions a span tracer wraps, at their module paths."""
    import repro.core.savings as savings
    import repro.engine.jobs as jobs
    import repro.engine.parallel as parallel
    import repro.engine.store as store
    import repro.engine.transport as transport
    import repro.engine.validate as validate
    import repro.experiments.reporting as reporting
    import repro.experiments.runner as runner
    import repro.traces.format as trace_format
    import repro.workloads.program as program

    for owner, name in (
        (savings, "evaluate_policy"),
        (jobs, "execute_job"),
        (validate, "check_result"),
        (transport, "publish_for_jobs"),
        (parallel.ExecutionEngine, "run"),
        (store.ResultStore, "get"),
        (store.ResultStore, "put"),
        (reporting.ExperimentResult, "render"),
        (program.Workload, "chunks"),
        (trace_format.TraceRecording, "chunks"),
    ):
        assert callable(getattr(owner, name)), name
    assert runner._STATIC and runner._SUITE
    assert all(callable(fn) for fn in runner._STATIC.values())
    assert all(callable(fn) for fn in runner._SUITE.values())


def test_cached_results_unpickle_from_their_module_paths():
    from repro.cache.kernel import SimulationProfile
    from repro.cpu.simulator import SimulationResult
    from repro.prefetch.analysis import AnnotatedSimulationResult

    for cls, module in (
        (SimulationProfile, "repro.cache.kernel"),
        (SimulationResult, "repro.cpu.simulator"),
        (AnnotatedSimulationResult, "repro.prefetch.analysis"),
    ):
        assert cls.__module__ == module
