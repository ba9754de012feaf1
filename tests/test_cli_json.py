"""The CLI's machine-readable output: ``--json`` documents and exit codes.

Every ``--json`` document goes through one canonical serializer
(:func:`repro.cli.dumps_stable`), so identical payloads print identical
bytes; ``cache info --json`` keeps a fixed key set; usage and runtime
errors exit 2 with the reason on stderr.
"""

import json

import pytest

from repro.cli import dumps_stable, main


@pytest.fixture(autouse=True)
def isolated_env(tmp_path, monkeypatch):
    """Each test gets its own cache dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
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
            "quarantined",
            "trace_bytes",
            "trace_files",
        }
        for key, value in document.items():
            assert isinstance(value, str if key == "directory" else int), key
        assert main(["cache", "info", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_cache_clear_rejects_json(self, capsys):
        assert main(["cache", "clear", "--json"]) == 2
        assert "error:" in capsys.readouterr().err

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
