"""Range contract: every input of the advertised range ends in a documented
outcome (ROADMAP item 14).

A seeded generator draws an argv for each of the five commands over their
advertised range (any positive step, grids up to 8192 nodes or cells,
fast-diffusion dimensions around and beyond the supported ones, densities
that underflow, flags the command rejects) and runs it in process through
``cli.main`` in a temporary directory.  Each outcome must be one of:

* exit 0 or 1, with ``manifest.json`` and ``summary.json`` written and
  every float of the summary finite (None allowed);
* exit 2, with stderr starting ``config error:`` and no output directory;
* a traceback whose last line matches a class of ``KNOWN_FAILURES``, each a
  defect that an open bullet of ROADMAP item 1 names, raised by the command
  it was found in (the same message from another command is broken).  An
  exit 2 after output was written is broken unless such a class lists it.

Any other traceback breaks the contract.  A class leaves ``KNOWN_FAILURES``
when item 1 mends it; a new class is shrunk to a minimal argv and listed.

Step counts stay small (at most 6 steps, 3 JKO steps, 200 ``diagnose``
steps) so that a config runs in milliseconds: the suite runs ``SUITE_SEEDS``
of them in about 2.5 s.  ``--compare-pde`` runs tau / 1e-3 PDE steps per JKO
step, so with it tau is drawn up to 1.  The longer pass runs the same
generator as a script, prints the count of each outcome class and each
class of ``KNOWN_FAILURES`` that no config hit ("listed, not seen": a class
a fix has mended is a stale entry), and exits 1 on any outcome outside the
contract:

    PYTHONPATH=src python tests/test_range_contract.py 1000
"""

import contextlib
import io
import json
import math
import os
import random
import re
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path
from tempfile import TemporaryDirectory

from entroflow import banks, pde
from entroflow.cli import JKO_FUNCTIONALS, main

# (the command it was found in, the last line of the failure) -> the open
# ROADMAP item-1 bullet of its defect, with a minimal argv where the sweep
# found one; both are regexes, the command matched at the start of the argv
LINEAR = r"simulate --flow (heat|fokker_planck) "
FAST_DIFFUSION = r"simulate --flow fast_diffusion "
KNOWN_FAILURES = {
    (FAST_DIFFUSION, r"SolverError: fast-diffusion Newton line search stalled"):
        "Fast-diffusion Newton: the stop test does not scale with the face-flux "
        "roundoff (simulate --flow fast_diffusion --N 8192 --diagnose)",
    (FAST_DIFFUSION, r"SolverError: dptsv failed"):
        "Fast-diffusion Newton: at a large step the Newton band is not positive "
        "definite in doubles (simulate --flow fast_diffusion --dt 1e13 --T 1e13)",
    (LINEAR, r"SolverError: mass drifted"): "Mass drift of the linear step",
    (LINEAR, r"SolverError: dpttrf failed"):
        "Mass drift of the linear step: larger single steps end in tracebacks",
    (r"simulate --flow fokker_planck ", r"SolverError: positivity lost"):
        "Fokker-Planck on wide domains",
    (r"check --inequality zugmeyer ", r"HypothesisViolation"):
        "Zugmeyer hypothesis check: an absolute slack",
    (r"diagnose ", r"FlowDivergence"):
        "CLI: an internal RuntimeError is a traceback, not exit 3; here RK4 "
        "beyond its stability limit (diagnose --dt 1 --T 2)",
}

SUITE_SEEDS = range(400)
NUMBER = r"[-+]?\d[\d.e+-]*"   # a broken outcome's class leaves its numbers out


def _log_uniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def _nodes(rng):
    return str(round(_log_uniform(rng, 2, 8192)))


def _line_density(rng):
    """A density spec of the line, underflowing ones included."""
    return rng.choice([
        lambda: f"gaussian:{rng.uniform(-10, 10)!r}:{_log_uniform(rng, 1e-3, 10)!r}",
        lambda: f"gaussian:{rng.uniform(-10, 10)!r}",
        lambda: "gaussian", lambda: "uniform", lambda: "dirac",
    ])()


def _domain(rng):
    return ["--domain", repr(-_log_uniform(rng, 0.1, 80)), repr(_log_uniform(rng, 0.1, 80))]


def _time_grid(rng, dt, most):
    """--dt and a --T of 1 to ``most`` of its steps."""
    return ["--dt", repr(dt), "--T", repr(rng.randint(1, most) * dt)]


def _simulate(rng):
    flow = rng.choice(list(pde.FLOWS))
    # any positive step: mostly 1e-6 to 1e3, one in ten up to 1e300
    dt = _log_uniform(rng, 1e-6, 1e3) if rng.random() < 0.9 else _log_uniform(rng, 1e3, 1e300)
    argv = ["simulate", "--flow", flow, *_time_grid(rng, dt, 6), "--N", _nodes(rng),
            "--snapshot-every", str(rng.randint(1, 6))]
    if rng.random() < 0.5:
        argv.append("--diagnose")
    radial = flow == "fast_diffusion"
    if radial or rng.random() < 0.05:   # geometry flags, now and then the wrong ones
        argv += ["--radius", repr(_log_uniform(rng, 1e-2, 1e4)),
                 "--dim", str(rng.choice([1, 2, *range(3, 13), rng.randint(13, 400)]))]
    if not radial or rng.random() < 0.05:
        argv += _domain(rng)
    if radial and rng.random() < 0.9:
        argv += ["--init", rng.choice(["stationary", f"stationary-perturbed:"
                                                     f"{rng.uniform(-1.5, 4.0)!r}"])]
    elif rng.random() < 0.9:
        argv += ["--init", _line_density(rng)]
    return argv


def _diagnose(rng):
    return ["diagnose", "--seed", str(rng.randint(0, 2**32 - 1)),
            *_time_grid(rng, _log_uniform(rng, 1e-5, 1.0), 200)]


def _jko(rng):
    compare = rng.random() < 0.3
    tau = _log_uniform(rng, 1e-5, 1.0 if compare else 1e3)
    argv = ["jko", "--functional", rng.choice(list(JKO_FUNCTIONALS)), "--tau", repr(tau),
            "--steps", str(rng.randint(1, 3)),
            "--quantiles", str(round(_log_uniform(rng, 16, 8192))),
            "--init", _line_density(rng), "--N", _nodes(rng), *_domain(rng)]
    return argv + ["--compare-pde"] * compare


def _check(rng):
    argv = ["check", "--inequality", rng.choice(list(banks.DEFAULT_COUNTS)),
            "--seed", str(rng.randint(-2, 2**32 - 1))]
    return argv + ["--count", str(rng.randint(-1, 6))] * (rng.random() < 0.8)


def _w2(rng):
    return ["w2", "--mu", _line_density(rng), "--nu", _line_density(rng),
            "--N", _nodes(rng), *_domain(rng),
            "--quantiles", str(round(_log_uniform(rng, 2, 16384)))]


COMMANDS = (_simulate, _diagnose, _jko, _check, _w2)


def config(seed: int) -> list[str]:
    """The argv of ``seed``: its command and flags."""
    rng = random.Random(seed)
    return rng.choice(COMMANDS)(rng)


def _known(where: str, pattern: str) -> str:
    """The outcome class of the ``KNOWN_FAILURES`` entry (where, pattern)."""
    return f"{pattern} ({where.strip()})"


def _failure(argv: list[str], kind: str, last: str) -> str:
    """The class of ``KNOWN_FAILURES`` that ``argv`` and ``last`` match, else a
    broken outcome of that ``kind`` whose class leaves the numbers of ``last`` out."""
    command = " ".join(argv) + " "
    known = [_known(where, pattern) for where, pattern in KNOWN_FAILURES
             if re.match(where, command) and re.search(pattern, last)]
    return known[0] if known else f"broken: {kind} {re.sub(NUMBER, '#', last.strip())}"


def outcome(argv: list[str], out: Path) -> str:
    """The outcome class of running ``argv`` with its output in ``out``:
    ``exit 0``, ``exit 1``, ``exit 2`` or a class of ``KNOWN_FAILURES``;
    anything else is returned as ``broken: <why>``."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([*argv, "--out", str(out)])
    except Exception as err:   # every traceback is classified
        return _failure(argv, "traceback", traceback.format_exception_only(err)[-1])
    if code == 2:
        if not stderr.getvalue().startswith("config error:"):
            return f"broken: exit 2 with stderr {stderr.getvalue()!r}"
        return _failure(argv, "exit 2 after output", stderr.getvalue()) if out.exists() else "exit 2"
    if code not in (0, 1):
        return f"broken: exit {code}"
    if not ((out / "manifest.json").is_file() and (out / "summary.json").is_file()):
        return f"broken: exit {code} without manifest.json and summary.json"
    summary = json.loads((out / "summary.json").read_text())
    if not all(math.isfinite(value) for value in summary.values()
               if isinstance(value, float)):
        return f"broken: exit {code} with a non-finite summary {summary}"
    return f"exit {code}"


def sweep(seeds, folder: Path) -> tuple[Counter, dict[str, list[str]]]:
    """Outcome counts over ``seeds`` and, for each broken outcome, its argv."""
    counts, broken = Counter(), {}
    for seed in seeds:
        argv = config(seed)
        label = outcome(argv, folder / f"run{seed}")
        counts[label] += 1
        if label.startswith("broken"):
            broken.setdefault(label, argv)
    return counts, broken


def test_every_config_ends_in_a_documented_outcome(tmp_path, monkeypatch):
    assert {config(seed)[0] for seed in SUITE_SEEDS} == {
        "simulate", "diagnose", "jko", "check", "w2"}
    monkeypatch.delenv("ENTROFLOW_OUT", raising=False)
    counts, broken = sweep(SUITE_SEEDS, tmp_path)
    assert broken == {}
    assert {"exit 0", "exit 1", "exit 2"} <= set(counts)


if __name__ == "__main__":
    os.environ.pop("ENTROFLOW_OUT", None)
    with TemporaryDirectory() as folder:
        counts, broken = sweep(range(int(sys.argv[1])), Path(folder))
    for label, count in counts.most_common():
        print(f"{count:6d}  {label}")
    for label in (_known(*entry) for entry in KNOWN_FAILURES):
        if label not in counts:   # a stale entry, or a class these seeds miss
            print(f"listed, not seen: {label}")
    for label, argv in broken.items():
        print(f"{label}\n    first argv: {' '.join(argv)}")
    sys.exit(1 if broken else 0)
