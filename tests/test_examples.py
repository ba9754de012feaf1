"""Every example and script imports against the current public API.

Loading an example or a script runs its imports and module-level code
but not its ``main()``, which each guards behind
``__name__ == "__main__"``; a renamed public name then fails here rather
than only when the file is run end to end.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def load_main(path: Path):
    """Execute ``path`` as a module (not as ``__main__``); return its main."""
    spec = importlib.util.spec_from_file_location(f"loaded_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_examples_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    assert callable(load_main(path))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_script_imports(path):
    assert callable(load_main(path))
