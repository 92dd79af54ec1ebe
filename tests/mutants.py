"""The mutant gate: each planted defect in ``MUTANTS`` must fail a test.

Usage: python tests/mutants.py

Each entry loosens one tolerance or spoils one constant of ``src/entroflow``
by exact text replacement; its old text must occur exactly once in its file.
The runner copies ``src/`` and ``tests/`` to a temporary directory, runs
each named test file there once unmutated, then applies one mutant at a
time and runs its test file with ``pytest -x``.  A mutant is killed when
that run fails, and survives when it passes.  The script prints one line
per mutant and exits 1 if any survives, 2 on a malformed entry, a test file
that fails unmutated or a pytest run that ends in neither pass nor failure.

pytest does not collect this file.  A change that adds a tolerance or a
constant adds its entry here; a change that must edit a listed line updates
the entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str     # relative to the repository root
    old: str      # occurs exactly once in ``file``
    new: str
    tests: str    # the test file that must fail with ``new`` in place
    reason: str


MUTANTS = [
    Mutant("src/entroflow/pde.py", "BOUND_TOL = 0.05", "BOUND_TOL = 0.5",
           "tests/test_pde.py",
           "the dissipation bound forgives a production 50% above it"),
    Mutant("src/entroflow/pde.py", "np.diff(values) <= 1e-10 * vscale",
           "np.diff(values) <= 1e-4 * vscale", "tests/test_pde.py",
           "value_monotone forgives a free energy that rises by 1e-4 of its scale"),
    Mutant("src/entroflow/inequalities.py", "return 1e-6 * max(1.0, abs(reference))",
           "return 1e-3 * max(1.0, abs(reference))", "tests/test_inequalities.py",
           "a bank verdict forgives an lhs 1e-3 relative above its rhs"),
    Mutant("src/entroflow/finite_flow.py", "DECAY_TOL = 1e-6", "DECAY_TOL = 1e-2",
           "tests/test_finite_flow.py",
           "the decay checks forgive a ratio 1% above exp(-2 rho t)"),
]


def _pytest(tree: Path, tests: str) -> int:
    """pytest's exit code for ``tests`` run with ``-x`` in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for tests in sorted({m.tests for m in MUTANTS}):
            if _pytest(tree, tests) != 0:
                print(f"{tests} fails unmutated")
                return 2
        survivors = 0
        for m in MUTANTS:
            path = tree / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.file}: {m.old!r} occurs {text.count(m.old)} times, not once")
                return 2
            path.write_text(text.replace(m.old, m.new))
            try:
                code = _pytest(tree, m.tests)
            finally:
                path.write_text(text)
            if code not in (0, 1):
                print(f"{m.tests} ended with pytest exit code {code} under "
                      f"{m.old!r} -> {m.new!r}")
                return 2
            survivors += code == 0
            print(f"{'SURVIVED' if code == 0 else 'killed'}: {m.file}: "
                  f"{m.old!r} -> {m.new!r} ({m.reason}; {m.tests})")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
