"""Every function that the benchmark's traced entry wraps still resolves.

``perfbench/traced_entry.py`` replaces each ``WRAPS`` target, a module
attribute or a ``Class.method``, by a timing wrapper; a renamed or deleted
target would crash every traced job.  The entry is read as text and run in
a fresh namespace, so no bytecode is written next to it.
"""

import importlib
from pathlib import Path

import pytest

ENTRY = Path(__file__).resolve().parents[1] / "perfbench" / "traced_entry.py"


def _wraps():
    namespace = {"__name__": "traced_entry"}
    exec(compile(ENTRY.read_text(), str(ENTRY), "exec"), namespace)
    return namespace["WRAPS"]


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in _wraps()])
def test_trace_target_resolves(module, attr):
    target = importlib.import_module(module)
    for name in attr.split("."):
        target = getattr(target, name)
    assert callable(target)
