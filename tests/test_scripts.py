"""Every example script imports against the current library API.

Importing runs a script's top level, its ``from entroflow... import``
lines included, but not ``main``: a renamed or deleted library name then
fails here and not only when the scripts are run at small sizes.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert [path.name for path in SCRIPTS] == [
        "fp_relaxation.py", "jko_vs_pde.py", "sobolev_saturation.py"]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
