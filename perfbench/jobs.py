"""Workloads, work accounting, expected call counts and oracles.

A job is one fresh ``python -m entroflow.cli`` process.  Every job carries
the parameters it was built from, so that the work it does, the calls the
traced run should see and the output it must produce all follow from the
same values that made its argv.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli_default", "linear_fine", "nonlinear_fine")

# CLI defaults, mirrored so that work and expected outputs can be derived
# for jobs that do not pass a flag.
LINE_DOMAIN = (-8.0, 8.0)
SIM_DEFAULTS = {"dt": 1e-3, "T": 1.5, "snapshot_every": 50}
LINE_NODES, RADIAL_CELLS = 1025, 512
CSV_INIT_NODES = 16385  # grid of the linear_fine job that reads --init csv:
JKO_DEFAULTS = {"tau": 0.02, "steps": 50, "quantiles": 1024, "N": 1025}
DIAGNOSE_DEFAULTS = {"potentials": 3, "checks": 4}
BANK_CASES = {"lsi": 200, "sobolev": 51, "eep_fp": 200, "eep_fd": 200,
              "zugmeyer": 200}  # sobolev: 50 random cases plus the extremal

# Oracle tolerances.
# |W2^2 - exact| <= W2_TOL * (1 + exact): about 4x the largest error seen
# over 400 seeded Gaussian pairs (quantile and domain-truncation error).
W2_TOL = 5e-4
# The fitted production rate of a diagnosed run must reach 2 rho up to this
# relative slack, which absorbs the O(dt) bias of backward Euler (the
# Fokker-Planck fit is 1.9989 at the default init).
RATE_SLACK = 0.01
# Bound on the JKO-to-PDE L1 gap: 1.5x the largest gap seen over seeded
# inits (M=1024: 0.0080 seeded, 0.0054 at the default init; M=65536:
# 0.0060 seeded, 0.0028 at the default init).
JKO_GAP_BOUND = {1024: 0.012, 65536: 0.009}

# Banks whose --seed the benchmark seed drives.  The zugmeyer bank and the
# diagnose command keep their default seeds (7 and 0): at most other seeds
# they fail at this commit (a HypothesisViolation from an unscaled roundoff
# test in the zugmeyer hypothesis check; a de Bruijn residual above the
# fixed 1e-3 for the quartic potential).  The self-check runs both failures.
SEEDED_BANKS = ("lsi", "sobolev", "eep_fp", "eep_fd")


@dataclass(frozen=True)
class Job:
    command: str
    params: dict
    argv: tuple
    label: str


def _gaussian(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(-2.0, 2.0), 6), round(rng.uniform(0.7, 1.5), 6)


def _simulate(flow, rng=None, N=None, T=None, snapshot_every=None, dim=None,
              init=None) -> Job:
    if init is None and flow != "fast_diffusion":
        mean, sigma = _gaussian(rng)
        init = f"gaussian:{mean}:{sigma}"
    params = {"flow": flow, "init": init,
              "N": N or (RADIAL_CELLS if flow == "fast_diffusion" else LINE_NODES),
              "T": T or SIM_DEFAULTS["T"], "dt": SIM_DEFAULTS["dt"],
              "snapshot_every": snapshot_every or SIM_DEFAULTS["snapshot_every"],
              "dim": dim or 1}
    argv = ["simulate", "--flow", flow, "--diagnose"]
    if init is not None:
        argv += ["--init", init]
    for flag, value in (("--dim", dim), ("--N", N), ("--T", T),
                        ("--snapshot-every", snapshot_every)):
        if value is not None:
            argv += [flag, str(value)]
    label = f"simulate-{flow}" + (f"-d{dim}" if dim else "") + f"-N{params['N']}"
    if init and init.startswith("csv:"):
        label += "-csv"
    return Job("simulate", params, tuple(argv), label)


def _jko(rng, functional=None, quantiles=None, steps=None, compare=True) -> Job:
    mean, sigma = _gaussian(rng)
    init = f"gaussian:{mean}:{sigma}"
    params = {"functional": functional or "fokker_planck", "init": init,
              "tau": JKO_DEFAULTS["tau"], "N": JKO_DEFAULTS["N"],
              "steps": steps or JKO_DEFAULTS["steps"],
              "quantiles": quantiles or JKO_DEFAULTS["quantiles"],
              "compare": compare}
    argv = ["jko", "--init", init]
    for flag, value in (("--functional", functional), ("--quantiles", quantiles),
                        ("--steps", steps)):
        if value is not None:
            argv += [flag, str(value)]
    if compare:
        argv.append("--compare-pde")
    label = f"jko-{params['functional']}-M{params['quantiles']}"
    return Job("jko", params, tuple(argv), label)


def _w2(rng) -> Job:
    (m1, s1), (m2, s2) = _gaussian(rng), _gaussian(rng)
    params = {"mu": (m1, s1), "nu": (m2, s2)}
    argv = ("w2", "--mu", f"gaussian:{m1}:{s1}", "--nu", f"gaussian:{m2}:{s2}")
    return Job("w2", params, argv, "w2")


def _check(rng, inequality, seed=None) -> Job:
    argv = ("check", "--inequality", inequality)
    if seed is None and inequality in SEEDED_BANKS:
        seed = rng.randrange(1, 2**31)
    if seed is not None:
        argv += ("--seed", str(seed))
    return Job("check", {"inequality": inequality, "seed": seed}, argv,
               f"check-{inequality}")


def _diagnose(seed=None) -> Job:
    argv = ("diagnose",) + (("--seed", str(seed)) if seed is not None else ())
    return Job("diagnose", {"seed": seed}, argv, "diagnose")


def make_pass(workload: str, rng: random.Random, init_csv: Path | None) -> list[Job]:
    """One pass over a workload's jobs, drawn from ``rng``."""
    if workload == "cli_default":
        jobs = [_w2(rng)]
        jobs += [_check(rng, name) for name in BANK_CASES]
        jobs += [_simulate("heat", rng), _simulate("fokker_planck", rng),
                 _simulate("fast_diffusion", dim=3)]
        jobs += [_diagnose(), _jko(rng)]
        rng.shuffle(jobs)
        return jobs
    if workload == "linear_fine":
        jobs = [_simulate(flow, rng, N=n)
                for n in (16385, 65537) for flow in ("heat", "fokker_planck")]
        jobs.append(_simulate("fokker_planck", N=CSV_INIT_NODES,
                              init=f"csv:{init_csv}"))
        return jobs
    if workload == "nonlinear_fine":
        return [_simulate("fast_diffusion", N=4096, T=4, snapshot_every=400, dim=3),
                _simulate("fast_diffusion", N=4096, T=4, snapshot_every=400, dim=5),
                _jko(rng, "fokker_planck", quantiles=65536, steps=150),
                _jko(rng, "entropy", quantiles=65536, steps=100, compare=False)]
    raise ValueError(f"unknown workload {workload!r}")


def csv_nodes(n: int) -> list[float]:
    """Nodes equal bit for bit to ``make_uniform_grid(-8, 8, n).nodes``."""
    a, b = LINE_DOMAIN
    spacing = (b - a) / (n - 1)
    return [a + spacing * k for k in range(n)]


def write_init_csv(path: Path, n: int, rng: random.Random) -> None:
    """A seeded two-Gaussian mixture, unit mass under the trapezoid rule,
    written as ``x,value`` with 17 significant digits."""
    nodes = csv_nodes(n)
    bumps = [(rng.uniform(0.2, 1.0), *_gaussian(rng)) for _ in range(2)]
    values = [sum(w * math.exp(-0.5 * ((x - m) / s) ** 2) for w, m, s in bumps)
              for x in nodes]
    h = nodes[1] - nodes[0]
    mass = h * (math.fsum(values) - 0.5 * (values[0] + values[-1]))
    lines = ["x,value"] + [f"{x:.17g},{v / mass:.17g}" for x, v in zip(nodes, values)]
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------------ work

def _steps(T: float, dt: float) -> int:
    return int(round(T / dt))


def _snapshots(steps: int, every: int) -> int:
    return steps // every + 1 + (1 if steps % every else 0)


def _compare_steps(p: dict) -> int:
    pde_dt = min(1e-3, p["tau"] / 10.0)
    per_step = max(1, int(round(p["tau"] / pde_dt)))
    return p["steps"] * per_step


def work(job: Job) -> int:
    """Grid nodes x PDE steps, or quantiles x JKO steps plus the compare-PDE
    run; commands without a time stepper count no work."""
    p = job.params
    if job.command == "simulate":
        return p["N"] * _steps(p["T"], p["dt"])
    if job.command == "jko":
        total = p["quantiles"] * p["steps"]
        if p["compare"]:
            total += p["N"] * _compare_steps(p)
        return total
    return 0


# ------------------------------------------------------------- call counts

# Spans whose count depends on the data, not on the argv.
DATA_DEPENDENT_CALLS = frozenset({"pde.fd_newton_solve"})


def expected_calls(job: Job) -> dict[str, int]:
    """Span counts the traced run must record for this job.

    Every span name the trace produces, this table omits and
    DATA_DEPENDENT_CALLS does not list must occur zero times, so a call that
    bypasses its wrapper, or an unexpected extra call, shows up as a
    mismatch.
    """
    p = job.params
    calls = {"cli.main": 1}
    if job.command == "simulate":
        steps = _steps(p["T"], p["dt"])
        snaps = _snapshots(steps, p["snapshot_every"])
        calls.update({"pde.solve": 1, "grids.csv_write": snaps, "pde.report": 2})
        if p["flow"] == "fast_diffusion":
            calls.update({"pde.fd_step": steps, "pde.stationary": 1})
        else:
            calls["pde.linear_step"] = steps
        # value and production per snapshot, plus the minimizer's value
        calls["functionals.eval"] = 2 * snaps + (p["flow"] != "heat")
        if str(p["init"]).startswith("csv:"):
            calls["grids.csv_read"] = 1
    elif job.command == "jko":
        calls.update({"jko.trajectory": 1, "jko.step": p["steps"], "jko.csv": 1,
                      "grids.quantile": p["steps"] + 2, "grids.csv_write": 1})
        if p["compare"]:
            calls.update({"pde.solve": 1, "pde.linear_step": _compare_steps(p)})
    elif job.command == "w2":
        calls.update({"transport.w2": 1, "grids.quantile": 2})
    elif job.command == "check":
        name = p["inequality"]
        cases = BANK_CASES[name]
        calls.update({"banks.run": 1, "banks.generate": 1,
                      "inequalities.check": cases})
        if name == "sobolev":
            calls["inequalities.oracle"] = cases
        if name == "eep_fd":
            calls.update({"pde.stationary": 1, "functionals.eval": 2 * cases})
        if name == "eep_fp":
            calls["functionals.eval"] = 3 * cases
    elif job.command == "diagnose":
        n = DIAGNOSE_DEFAULTS["potentials"]
        calls.update({"finite_flow.integrate": n, "finite_flow.csv": n,
                      "finite_flow.check": n * DIAGNOSE_DEFAULTS["checks"]})
    return calls


# ------------------------------------------------------------------ oracles

OK = "ok"


def _stdout_keys(text: str) -> dict[str, str]:
    keys = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            keys[key.strip()] = value.strip()
    return keys


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise _Wrong(reason)


class _Wrong(Exception):
    pass


def _summary(out: Path) -> dict:
    path = out / "summary.json"
    _require(path.is_file(), "summary.json missing")
    return json.loads(path.read_text())


def _rho(p: dict) -> float:
    if p["flow"] == "fokker_planck":
        return 1.0
    if p["flow"] == "fast_diffusion":
        return (p["dim"] - 1.0) / p["dim"]
    return 0.0


def _check_simulate(job, keys, out, slack=RATE_SLACK):
    p = job.params
    for key in ("fitted_production_rate", "fitted_value_rate", "passed"):
        _require(key in keys, f"stdout lacks {key}")
    _require(keys["passed"] == "True", "dissipation report did not pass")
    summary = _summary(out)
    steps = _steps(p["T"], p["dt"])
    snaps = _snapshots(steps, p["snapshot_every"])
    _require(summary.get("passed") is True, "summary passed is not true")
    _require(summary.get("snapshots") == snaps,
             f"expected {snaps} snapshots, summary says {summary.get('snapshots')}")
    _require(abs(summary.get("final_time", -1.0) - steps * p["dt"]) < 1e-9,
             "final time differs from the horizon")
    floor = 2.0 * _rho(p) * (1.0 - slack)
    rate = summary.get("fitted_production_rate")
    _require(rate is not None and rate >= floor,
             f"fitted production rate {rate} below 2 rho = {floor:.6g} (with slack)")
    files = sorted(out.glob("snapshot_*.csv"))
    _require(len(files) == snaps, f"{len(files)} snapshot files for {snaps} snapshots")
    with open(files[-1]) as fh:
        header = fh.readline().strip()
    _require(header == ("r,value" if p["flow"] == "fast_diffusion" else "x,value"),
             f"bad snapshot header {header!r}")
    _require(_lines(files[-1]) == p["N"] + 1, "final snapshot row count differs from N")
    _require(_lines(out / "report.csv") == snaps + 1, "report.csv row count")


def exact_w2_squared(p: dict) -> float:
    (m1, s1), (m2, s2) = p["mu"], p["nu"]
    return (m1 - m2) ** 2 + (s1 - s2) ** 2


def _check_w2(job, keys, out, exact=None):
    _require("w2" in keys and "w2_squared" in keys, "stdout lacks w2 keys")
    exact = exact_w2_squared(job.params) if exact is None else exact
    got = float(keys["w2_squared"])
    _require(abs(got - exact) <= W2_TOL * (1.0 + exact),
             f"W2^2 = {got!r}, closed form {exact!r}")
    _require(abs(float(keys["w2"]) ** 2 - got) <= 1e-12 * (1.0 + got),
             "w2 and w2_squared disagree")


def _check_check(job, keys, out):
    cases = BANK_CASES[job.params["inequality"]]
    _require(keys.get("cases") == str(cases), f"expected {cases} cases, "
             f"stdout says {keys.get('cases')}")
    _require(keys.get("failures") == "0", f"{keys.get('failures')} failures")
    summary = _summary(out)
    _require(summary.get("cases") == cases and summary.get("failures") == 0,
             "summary disagrees with stdout")
    _require(_lines(out / "report.csv") == cases + 1, "report.csv row count")


def _check_diagnose(job, keys, out):
    _require(keys.get("all_pass") == "True", "all_pass is not True")
    n = DIAGNOSE_DEFAULTS["potentials"]
    _require(len(list(out.glob("trajectory_*.csv"))) == n, "trajectory CSVs missing")
    _require(_lines(out / "finite_checks.csv")
             == n * DIAGNOSE_DEFAULTS["checks"] + 1, "finite_checks.csv row count")


def _check_jko(job, keys, out):
    p = job.params
    _require(keys.get("energy_monotone") == "True", "energy not monotone")
    summary = _summary(out)
    _require(summary.get("energy_monotone") is True, "summary energy_monotone")
    _require(summary.get("steps") == p["steps"], "step count differs")
    _require(_lines(out / "jko_steps.csv") == p["steps"] + 1, "jko_steps.csv rows")
    if p["compare"]:
        bound = JKO_GAP_BOUND[p["quantiles"]]
        gap = summary.get("max_l1_gap_to_pde")
        _require(gap is not None and "max_l1_gap_to_pde" in keys,
                 "PDE gap not reported")
        _require(gap <= bound, f"JKO-to-PDE gap {gap} above {bound}")


_CHECKS = {"simulate": _check_simulate, "w2": _check_w2, "check": _check_check,
           "diagnose": _check_diagnose, "jko": _check_jko}


def classify(job: Job, returncode: int | None, stdout: str, stderr: str,
             out: Path, oracle=None) -> tuple[str, str]:
    """Return ``(status, reason)``; status ``ok`` is the only success.

    Exit code 1 means both "inequality violated" and an uncaught exception,
    so the traceback decides: ``solver_error`` (a SolverError escaped),
    ``crash`` (any other traceback), ``violated`` (exit 1 without one),
    ``config_error`` (exit 2), ``timeout`` (killed) and ``wrong`` (exit 0
    but the output fails its oracle).  ``oracle`` replaces the job's check,
    which the self-check uses to plant a wrong expected value.
    """
    if returncode is None:
        return "timeout", "killed at the job deadline"
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1]
        kind = "solver_error" if "SolverError" in last else "crash"
        return kind, last
    if returncode == 2:
        return "config_error", stderr.strip()[-200:]
    if returncode != 0:
        return "violated", f"exit code {returncode}"
    try:
        (oracle or _CHECKS[job.command])(job, _stdout_keys(stdout), out)
    except _Wrong as err:
        return "wrong", str(err)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return "wrong", f"unreadable output: {err!r}"
    return OK, ""
