"""The CLI's machine-readable output: ``--json`` documents and exit codes.

Every ``--json`` document goes through one canonical serializer
(:func:`repro.cli.dumps_stable`), so identical payloads print identical
bytes; ``cache info --json`` and ``sweep status --json`` keep a fixed
key set; usage and runtime errors exit 2 with the reason on stderr.
"""

import json

import pytest

from repro.cli import dumps_stable, main

#: Small enough that one simulation takes well under a second.
SMALL = 0.02


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Each test gets its own cache dir and a clean engine environment."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RETRY_DELAY", "0.01")
    for var in (
        "REPRO_FAULTS",
        "REPRO_RETRIES",
        "REPRO_JOB_TIMEOUT",
        "REPRO_CACHE_MAX_MB",
        "REPRO_JOBS",
        "REPRO_BACKEND",
    ):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


class TestProtocol:
    def test_dumps_stable_is_byte_stable(self):
        a = dumps_stable({"b": 1, "a": {"y": 2, "x": 3}})
        b = dumps_stable({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b
        assert a.endswith("\n")


class TestCliJson:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "repro-leakage" in capsys.readouterr().out

    def test_cache_info_json_is_stable_machine_output(self, capsys):
        assert main(["cache", "info", "--json"]) == 0
        first = capsys.readouterr().out
        document = json.loads(first)
        assert set(document) == {
            "bytes",
            "directory",
            "entries",
            "max_bytes",
            "quarantined",
            "sharing",
            "trace_bytes",
            "trace_files",
            "traces",
        }
        assert document["traces"] == {
            "files": document["trace_files"],
            "bytes": document["trace_bytes"],
        }
        assert main(["cache", "info", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_cache_clear_rejects_json(self, capsys):
        assert main(["cache", "clear", "--json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_status_json(self, capsys):
        spec_args = [
            "--sweep-name", "cli-status",
            "--benchmarks", "gzip",
            "--scales", str(SMALL),
        ]
        assert main(["sweep", "run"] + spec_args + ["--backend", "serial"]) == 0
        capsys.readouterr()
        assert main(["sweep", "status"] + spec_args + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["sweep"] == "cli-status"
        assert document["completed"] == document["grid_jobs"]
        assert document["missing"] == []
        assert [sorted(shard) for shard in document["shards"]] == [
            ["cached", "manifest", "name", "owned"]
        ]
        assert document["shards"][0]["cached"] == document["grid_jobs"]

    def test_run_output_write_failure_is_exit_2(self, tmp_path, capsys):
        target = tmp_path / "not-a-dir" / "deep" / "report.txt"
        code = main(
            [
                "run", "table1",
                "--output", str(target),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
