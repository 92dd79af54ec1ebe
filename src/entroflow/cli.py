"""Command-line front end: reproducible runs, JSON configs, CSV artifacts.

Commands: simulate, diagnose, jko, check, w2.  Each parameter is declared
once, with its default, in ``build_parser``; ``main`` installs the values of
--config (JSON) as the command's defaults, so a flag beats the file and the
file beats the default.  The ENTROFLOW_OUT environment variable overrides
the output directory.  Every run writes a manifest.json echoing its
flags as resolved, which reruns it as a config, and ends on summary.json
with its verdict.  Exit codes: 0 all checks passed, 1 some inequality or
diagnostic violated (the report CSV names the worst case), 2 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import banks, finite_flow, jko, pde, transport
from .grids import (
    DEFAULT_LINE_DOMAIN,
    DEFAULT_RADIUS,
    GridDensity,
    fmt_float,
    gaussian_density,
    integrate,
    make_uniform_grid,
    normalize,
    read_density_csv,
    staggered_radial_grid,
    text_column,
    write_csv,
    write_density_csv,
)


class ConfigError(ValueError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")


def _positive(value, field):
    if value is None or not value > 0:
        raise ConfigError(field, f"must be positive, got {value}")
    return value


def _time_grid(horizon, dt):
    """Reject a ``--T`` that is not a multiple of ``--dt``."""
    try:
        pde.step_count(horizon, dt)
    except ValueError as err:
        raise ConfigError("T", str(err)) from None
    return horizon


# config-file aliases of flag destinations; the destination's own key wins
ALIASES = {"kind": "flow", "n": "dim", "N": "num_nodes", "K": "steps",
           "M": "quantiles"}

# flag type -> the JSON types of the values it takes (a switch takes a bool)
JSON_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _config_value(action, key, value):
    """``value`` of config ``key`` checked against the type, arity and
    choices of its flag ``action`` and converted as the flag's text would be;
    null stands for a default of None."""
    if value is None and action.default is None:
        return None
    kind = bool if action.nargs == 0 else action.type or str
    items = value if action.nargs and type(value) is list else [value]
    if (len(items) != (action.nargs or 1)
            or any(type(item) not in JSON_TYPES[kind] for item in items)
            or action.choices is not None and value not in action.choices):
        raise ConfigError(key, f"{action.option_strings[0]} does not take "
                               f"{json.dumps(value)}")
    items = [kind(item) for item in items]
    return items if action.nargs else items[0]


def _install_config(path, parser):
    """Install the values of a JSON config file as the defaults of the
    command ``parser``; an unknown key or a value its flag would not take is
    a config error.  A manifest's ``command`` key is skipped."""
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError("config", str(err)) from err
    if not isinstance(config, dict):
        raise ConfigError("config", "must be a JSON object")
    config.pop("command", None)
    actions = {a.dest: a for a in parser._actions if a.dest != "help"}
    values = {}
    # aliases first, so that the destination's own key overrides its alias
    for key in sorted(config, key=lambda name: name not in ALIASES):
        dest = ALIASES.get(key, key)
        if dest not in actions:
            raise ConfigError(key, f"not a parameter of {parser.prog}")
        values[dest] = _config_value(actions[dest], key, config[key])
    parser.set_defaults(**values)


def _write_json(path, data):
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _start_run(args):
    """Make the output directory and write the manifest: the command and its
    flags as the command resolved them, but --config and --out."""
    out = Path(os.environ.get("ENTROFLOW_OUT") or args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {
        key: value for key, value in vars(args).items()
        if key not in ("config", "out", "func", "command_parser")})
    return out


def _finish(out, summary, echo, passed=True):
    """End a run: write ``summary`` to summary.json, print those of its keys
    in ``echo`` as key=value lines and return the exit code of ``passed``."""
    _write_json(out / "summary.json", summary)
    for key in echo:
        if key in summary:
            value = summary[key]
            print(f"{key}={fmt_float(value) if isinstance(value, float) else value}")
    return 0 if passed else 1


def _line_grid(domain, num):
    """The line grid of ``--domain`` and ``--N``."""
    a, b = domain
    try:
        return make_uniform_grid(a, b, num)
    except ValueError as err:   # finite a < b is checked first
        raise ConfigError("N" if -np.inf < a < b < np.inf and num < 8 else "domain",
                          str(err)) from None


# density spec shape -> its form; a bracketed field may be left out
SPEC_FORMS = {"gaussian": "gaussian[:mean[:sigma]]", "uniform": "uniform",
              "dirac": "dirac", "csv": "csv:path", "stationary": "stationary",
              "stationary-perturbed": "stationary-perturbed[:eps]"}


def _parse_density(field, spec, grid, stationary=None):
    """The density of ``spec`` on ``grid``, a config error of flag ``field``
    if the spec is bad or its density is not of unit mass; an ``init``, the
    start of a flow or of JKO steps, must also be strictly positive.  The
    stationary specs need ``stationary``."""
    shape, _, path = spec.partition(":")   # a csv path may hold colons
    fields = [path] if shape == "csv" else spec.split(":")[1:]
    if shape not in SPEC_FORMS or stationary is None and "stationary" in shape:
        raise ConfigError(field, f"unknown density spec {spec!r}")
    if len(fields) > SPEC_FORMS[shape].count(":") or "" in fields:
        raise ConfigError(field, f"{spec!r} does not match {SPEC_FORMS[shape]}")
    try:
        if shape == "csv":
            nodes, values = read_density_csv(path)   # density is False off the grid
            density = np.array_equal(nodes, grid.nodes) and GridDensity(grid, values)
        elif shape == "gaussian":
            density = gaussian_density(grid, *map(float, fields))
        elif shape == "stationary-perturbed":
            eps = float(fields[0]) if fields else 0.05
            bump = 1.0 + eps * np.exp(-0.5 * (grid.nodes - 2.0) ** 2)
            density = normalize(stationary.values * bump, grid)
        elif shape == "uniform":
            density = normalize(np.ones_like(grid.nodes), grid)
        else:
            density = pde.dirac_like_density(grid) if shape == "dirac" else stationary
    except (OSError, ValueError) as err:
        raise ConfigError(field, str(err)) from None
    if not density:
        raise ConfigError("N", f"{path} is not on the {grid.num_nodes}"
                               f" nodes of --N and --domain")
    noun = "initial density" if field == "init" else "density"
    if abs(density.mass - 1.0) > 1e-8:
        raise ConfigError(field, f"{noun} must have unit mass, got {density.mass!r}")
    if field == "init" and np.any(density.values <= 0.0):
        raise ConfigError(field, "initial density must be strictly positive")
    return density


# ------------------------------------------------------------------ simulate

def _cmd_simulate(args):
    flow = args.flow
    model = pde.FLOWS[flow]
    radial = model.power_law   # a power law runs on radial grids
    # --dim, --N and --init default by the flow; the manifest records them
    # resolved and leaves out the geometry flag the flow ignores
    dim = args.dim = (3 if radial else 1) if args.dim is None else args.dim
    num = args.num_nodes = ((512 if radial else 1025) if args.num_nodes is None
                            else args.num_nodes)
    init = args.init = (("stationary-perturbed:0.05" if radial else "gaussian:2:1")
                        if args.init is None else args.init)
    dt = _positive(args.dt, "dt")
    horizon = _time_grid(args.T, dt)
    snapshot_every = _positive(args.snapshot_every, "snapshot_every")

    if radial:
        if tuple(args.domain) != DEFAULT_LINE_DOMAIN:
            raise ConfigError("domain", f"{flow} runs on radial grids; "
                                        f"--radius sets their truncation")
        del args.domain
        radius = args.radius
        if not 0.0 < radius < np.inf:
            raise ConfigError("radius", f"must be positive and finite, got {radius}")
        try:
            grid = staggered_radial_grid(radius, num, dim)
        except ValueError as err:   # too few cells, or weights beyond a double
            raise ConfigError("N" if num < 8 else "dim", str(err)) from None
        if not init.startswith("stationary"):
            raise ConfigError("init", f"fast diffusion supports stationary "
                                      f"inits, got {init!r}")
    else:
        if dim != 1:
            raise ConfigError("dim", f"{flow} runs on the line; --dim sets "
                                     f"the fast-diffusion dimension")
        if args.radius != DEFAULT_RADIUS:
            raise ConfigError("radius", f"{flow} runs on the line; --domain "
                                        f"sets its truncation")
        del args.radius
        grid = _line_grid(args.domain, num)
    try:
        stationary = pde.stationary_state(model, grid)
    except ValueError as err:   # n <= 2 or beyond doubles; a Gaussian off the domain
        raise ConfigError("dim" if radial else "domain", str(err)) from None
    mu0 = _parse_density("init", init, grid, stationary)

    # snapshots are written as solve makes them, the first after its checks
    out, times, values, productions = None, [], [], []

    def emit(t, state):
        nonlocal out
        out = out or _start_run(args)
        write_density_csv(state, out / f"snapshot_{len(times):04d}.csv")
        times.append(t)
        if args.diagnose:
            values.append(model.value(state))
            productions.append(model.production(state))

    pde.solve(model, mu0, dt, horizon, snapshot_every, emit)
    summary = {"flow": flow, "snapshots": len(times), "final_time": times[-1]}
    if args.diagnose:
        report = pde.dissipation_report(model, grid, times, values, productions,
                                        stationary)
        pde.write_report_csv(report, out / "report.csv")
        summary.update(
            fitted_production_rate=report.fitted_production_rate,
            fitted_value_rate=report.fitted_value_rate,
            production_bounded=report.production_bounded,
            value_monotone=report.value_monotone,
            passed=report.passed)
    return _finish(out, summary, ("fitted_production_rate", "fitted_value_rate",
                                  "passed"), summary.get("passed", True))


# ------------------------------------------------------------------ diagnose

def _cmd_diagnose(args):
    dt = _positive(args.dt, "dt")
    horizon = _time_grid(args.T, dt)
    if round(horizon / dt) < 2:   # de Bruijn's centered difference needs 3 points
        raise ConfigError("T", f"need at least 2 steps of dt {dt}, got {horizon}")
    out = _start_run(args)

    rng = np.random.default_rng(args.seed)
    rows = []
    for spec in finite_flow.builtin_potential_bank():
        x0 = rng.uniform(-1.5, 1.5, size=spec.dim)
        traj = finite_flow.integrate_flow(spec, x0, dt, horizon)
        finite_flow.write_trajectory_csv(traj, out / f"trajectory_{spec.name}.csv")
        residual = finite_flow.de_bruijn_residual(traj)
        prod = finite_flow.production_decay_check(spec, traj)
        ent = finite_flow.entropy_decay_check(spec, traj)
        lhs, rhs = finite_flow.eep_inequality_check(spec, x0)
        checks = [
            ("de_bruijn_residual", residual, residual <= 1e-3),
            ("production_decay_ratio", prod, prod <= 1.0 + finite_flow.DECAY_TOL),
            ("entropy_decay_ratio", ent, ent <= 1.0 + finite_flow.DECAY_TOL),
            ("eep_margin", rhs - lhs, lhs <= rhs + 1e-9),
        ]
        rows += [(spec.name, *check) for check in checks]

    potentials, names, values, passed = zip(*rows)
    all_pass = all(passed)
    write_csv(out / "finite_checks.csv", "potential,check,value,pass",
              text_column(potentials), text_column(names), values,
              text_column("true" if p else "false" for p in passed))
    return _finish(out, {"all_pass": all_pass}, ("all_pass",), all_pass)


# ------------------------------------------------------------------ jko

# jko --functional name -> the free energy of each flow that JKO steps;
# the unconfined one goes by its name, the entropy
JKO_FUNCTIONALS = {flow if model.confined else "entropy": model
                   for flow, model in pde.FLOWS.items() if not model.power_law}


def _cmd_jko(args):
    tau = args.tau   # jko_trajectory's checks, before --compare-pde runs
    if not 0.0 < tau < np.inf:
        raise ConfigError("tau", f"must be positive and finite, got {tau}")
    steps = args.steps
    if not 1 <= steps <= pde.MAX_STEPS:
        raise ConfigError("steps", f"need at least 1 and at most {pde.MAX_STEPS} steps")
    if args.quantiles < 64:
        raise ConfigError("quantiles", "need at least 64 quantile nodes")
    grid = _line_grid(args.domain, args.num_nodes)
    mu0 = _parse_density("init", args.init, grid)
    model = JKO_FUNCTIONALS[args.functional]

    if args.compare_pde:   # first, so that solve rejects its input before JKO steps
        per_step = max(10, round(tau / 1e-3))
        ref = pde.solve(model, mu0, tau / per_step, tau * steps, per_step)
    traj = jko.jko_trajectory(model, mu0, tau, steps, args.quantiles)

    out = _start_run(args)
    jko.write_step_log_csv(traj, out / "jko_steps.csv")
    write_density_csv(traj.states[-1], out / "final_density.csv")

    logs = traj.metadata["steps"]
    energies = [row["F"] for row in logs]
    monotone = all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    summary = {"steps": steps, "tau": tau, "energy_monotone": monotone,
               "final_F": energies[-1]}
    if args.compare_pde:
        summary["max_l1_gap_to_pde"] = max(
            integrate(np.abs(s.values - r.values), grid)
            for s, r in zip(traj.states, ref.states))
    return _finish(out, summary, ("max_l1_gap_to_pde", "energy_monotone"),
                   monotone)


# ------------------------------------------------------------------ check

def _cmd_check(args):
    if args.inequality is None:
        raise ConfigError("inequality", f"choose one of {', '.join(banks.BANK_NAMES)}")
    if args.count is not None:
        _positive(args.count, "count")

    out = _start_run(args)
    rows = banks.run_inequality_bank(args.inequality, args.seed, args.count)

    write_csv(out / "report.csv", "case_id,lhs,rhs,margin,pass",
              text_column(row.case_id for row in rows),
              [(row.lhs, row.rhs, row.margin) for row in rows],
              text_column("true" if row.passed else "false" for row in rows))

    worst = min(rows, key=lambda r: r.margin)
    failures = sum(not r.passed for r in rows)
    summary = {"inequality": args.inequality, "cases": len(rows),
               "failures": failures, "worst_case": worst.case_id,
               "worst_margin": worst.margin}
    return _finish(out, summary, ("cases", "failures", "worst_case"),
                   not failures)


# ------------------------------------------------------------------ w2

def _cmd_w2(args):
    if args.quantiles < 8:   # the floor of the quantile transform
        raise ConfigError("quantiles", "need at least 8 quantile nodes")
    grid = _line_grid(args.domain, args.num_nodes)
    mu = _parse_density("mu", args.mu, grid)
    nu = _parse_density("nu", args.nu, grid)
    value = transport.w2_1d(mu, nu, args.quantiles)
    return _finish(_start_run(args), {"w2": value, "w2_squared": value**2},
                   ("w2", "w2_squared"))


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="Entropy-dissipating gradient flows: solvers, transport, "
                    "JKO stepping and inequality checkers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default="entroflow_out",
                       help="output directory (ENTROFLOW_OUT overrides)")
        # main installs the config file's values on the parser that ran
        p.set_defaults(func=func, command_parser=p)
        return p

    def line_grid(p, num_nodes):
        p.add_argument("--N", dest="num_nodes", type=int, default=num_nodes,
                       help="grid nodes")
        p.add_argument("--domain", nargs=2, type=float,
                       default=DEFAULT_LINE_DOMAIN, help="line domain a b")

    p = command("simulate", _cmd_simulate, "run a PDE flow, optionally with "
                                           "dissipation diagnostics")
    p.add_argument("--flow", choices=list(pde.FLOWS), default="fokker_planck")
    p.add_argument("--init", help=" | ".join(SPEC_FORMS.values())
                   + " (default by flow)")
    p.add_argument("--dim", type=int, help="ambient dimension (fast diffusion)")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=1.5, help="time horizon")
    line_grid(p, None)   # 512 radial cells, 1025 line nodes
    p.add_argument("--radius", type=float, default=DEFAULT_RADIUS,
                   help="radial truncation radius")
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int,
                   default=50)
    p.add_argument("--diagnose", action="store_true",
                   help="write the dissipation report and gate the exit code")

    p = command("diagnose", _cmd_diagnose, "finite-dimensional gradient-flow "
                                           "diagnostics over the built-in "
                                           "potential bank")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed (PCG64) of the starting points")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=3.0)

    p = command("jko", _cmd_jko, "minimizing-movement trajectory")
    p.add_argument("--functional", choices=list(JKO_FUNCTIONALS),
                   default="fokker_planck")
    p.add_argument("--tau", type=float, default=0.02)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--quantiles", type=int, default=1024)
    p.add_argument("--init", default="gaussian:1:1")
    line_grid(p, 1025)
    p.add_argument("--compare-pde", dest="compare_pde", action="store_true",
                   help="also run the matching PDE flow and report the gap")

    p = command("check", _cmd_check, "run an inequality checker over its "
                                     "seeded bank")
    p.add_argument("--seed", type=int, default=7, help="PRNG seed (PCG64)")
    p.add_argument("--inequality", choices=list(banks.BANK_NAMES))
    p.add_argument("--count", type=int,
                   help="number of cases (default by bank)")

    p = command("w2", _cmd_w2, "Wasserstein distance between two densities")
    p.add_argument("--mu", default="gaussian:0:1", help="density spec")
    p.add_argument("--nu", default="gaussian:1:1", help="density spec")
    line_grid(p, 2049)
    p.add_argument("--quantiles", type=int, default=4096)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's values become the command's defaults and the flags
            # are parsed again: flag > config > default
            _install_config(args.config, args.command_parser)
            args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:   # PCG64 takes no negative seed
            raise ConfigError("seed", f"must be non-negative, got {args.seed}")
        return args.func(args)
    except SystemExit as err:
        return int(err.code) if err.code else 0
    except (ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
