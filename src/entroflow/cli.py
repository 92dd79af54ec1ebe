"""Command-line front end: reproducible runs, JSON configs, CSV artifacts.

Commands: simulate, diagnose, jko, check, w2.  Flags override values from
--config (JSON); the ENTROFLOW_OUT environment variable overrides the
output directory.  Every run writes a manifest.json echoing the resolved
configuration.  Exit codes: 0 all checks passed, 1 some inequality or
diagnostic violated (the report CSV names the worst case), 2 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import banks, finite_flow, jko, pde, transport
from .grids import (
    DEFAULT_LINE_DOMAIN,
    DEFAULT_RADIAL_DOMAIN,
    fmt_float,
    gaussian_density,
    make_uniform_grid,
    normalize,
    read_density_csv,
    staggered_radial_grid,
    write_csv,
    write_density_csv,
)


class ConfigError(ValueError):
    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config error: {field}: {message}")


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


def _resolve(args, config, key, default, aliases=()):
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    for name in (key, *aliases):
        if name in config:
            return config[name]
    return default


def _load_config(path):
    if path is None:
        return {}
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError("config", str(err)) from err


def _out_dir(args, config):
    out = os.environ.get("ENTROFLOW_OUT") or _resolve(args, config, "out",
                                                      "entroflow_out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out, command, resolved):
    resolved = {"command": command, **resolved}
    (out / "manifest.json").write_text(
        json.dumps(resolved, sort_keys=True, indent=2) + "\n")


def _emit(key, value):
    if isinstance(value, float):
        value = fmt_float(value)
    print(f"{key}={value}")


def _line_grid(args, config, default_num):
    """The line grid of ``--domain`` and ``--N``, and its manifest fields."""
    a, b = _resolve(args, config, "domain", list(DEFAULT_LINE_DOMAIN))
    num = int(_resolve(args, config, "num_nodes", default_num, aliases=("N",)))
    grid = make_uniform_grid(float(a), float(b), num)
    return grid, {"domain": [float(a), float(b)], "num_nodes": num}


def _parse_density(spec, grid, stationary=None):
    """A density spec on ``grid``; the stationary specs need ``stationary``."""
    parts = str(spec).split(":")
    shape = parts[0]
    if stationary is not None and parts == ["stationary"]:
        return stationary
    if stationary is not None and shape == "stationary-perturbed":
        eps = float(parts[1]) if len(parts) > 1 else 0.05
        bump = 1.0 + eps * np.exp(-0.5 * (grid.nodes - 2.0) ** 2)
        return normalize(stationary.values * bump, grid)
    if shape == "gaussian":
        mean = float(parts[1]) if len(parts) > 1 else 0.0
        sigma = float(parts[2]) if len(parts) > 2 else 1.0
        return gaussian_density(grid, mean, sigma)
    if shape == "uniform":
        return normalize(np.ones_like(grid.nodes), grid)
    if shape == "dirac":
        return pde.dirac_like_density(grid)
    if shape == "csv":
        return read_density_csv(parts[1], ambient_dim=grid.ambient_dim)
    raise ConfigError("init", f"unknown density spec {spec!r}")


# ------------------------------------------------------------------ simulate

def _cmd_simulate(args):
    config = _load_config(args.config)
    flow = _resolve(args, config, "flow", "fokker_planck", aliases=("kind",))
    if flow not in pde.FLOWS:
        raise ConfigError("flow", f"unknown flow {flow!r}")
    model = pde.FLOWS[flow]   # a power law runs on radial grids
    dim = int(_resolve(args, config, "dim", model.ambient_dim or 1, aliases=("n",)))
    dt = float(_resolve(args, config, "dt", 1e-3))
    _positive(dt, "dt")
    horizon = _time_grid(float(_resolve(args, config, "T", 1.5)), dt)
    snapshot_every = int(_resolve(args, config, "snapshot_every", 50))
    _positive(snapshot_every, "snapshot_every")

    resolved = {"flow": flow, "dim": dim, "dt": dt, "T": horizon,
                "snapshot_every": snapshot_every,
                "seed": int(_resolve(args, config, "seed", 0)),
                "diagnose": bool(args.diagnose or config.get("diagnose", False))}

    if model.ambient_dim is not None:
        radius = float(_resolve(args, config, "radius", DEFAULT_RADIAL_DOMAIN[1]))
        num = int(_resolve(args, config, "num_nodes", 512, aliases=("N",)))
        _positive(radius, "radius")
        grid = staggered_radial_grid(radius, num, dim)
        resolved.update(radius=radius, num_nodes=num)
        init = str(_resolve(args, config, "init", "stationary-perturbed:0.05"))
        if not init.startswith("stationary"):
            raise ConfigError("init", f"fast diffusion supports stationary "
                                      f"inits, got {init!r}")
    else:
        if dim != 1:
            raise ConfigError("dim", f"{flow} runs on the line; --dim sets "
                                     f"the fast-diffusion dimension")
        grid, fields = _line_grid(args, config, 1025)
        resolved.update(fields)
        init = str(_resolve(args, config, "init", "gaussian:2:1"))
    stationary = pde.stationary_state(model, grid)   # checks n > 2 first
    if model.ambient_dim is not None:
        model = replace(model, ambient_dim=dim)
    mu0 = _parse_density(init, grid, stationary)
    resolved["init"] = init

    out = _out_dir(args, config)
    _write_manifest(out, "simulate", resolved)
    spec = pde.FlowSpec(flow, grid, dt=dt, horizon=horizon,
                        snapshot_every=snapshot_every)
    traj = pde.solve(spec, mu0)
    for idx, state in enumerate(traj.states):
        write_density_csv(state, out / f"snapshot_{idx:04d}.csv")

    summary = {"flow": flow, "snapshots": len(traj.states),
               "final_time": float(traj.times[-1])}
    code = 0
    if resolved["diagnose"]:
        report = pde.dissipation_report(traj, model, stationary)
        pde.write_report_csv(report, out / "report.csv")
        summary.update(
            fitted_production_rate=report.fitted_production_rate,
            fitted_value_rate=report.fitted_value_rate,
            production_bounded=report.production_bounded,
            value_monotone=report.value_monotone,
            passed=report.passed)
        _emit("fitted_production_rate", report.fitted_production_rate)
        _emit("fitted_value_rate", report.fitted_value_rate)
        _emit("passed", report.passed)
        code = 0 if report.passed else 1
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True,
                                                 indent=2) + "\n")
    return code


# ------------------------------------------------------------------ diagnose

def _cmd_diagnose(args):
    config = _load_config(args.config)
    dt = float(_resolve(args, config, "dt", 1e-3))
    _positive(dt, "dt")
    horizon = _time_grid(float(_resolve(args, config, "T", 3.0)), dt)
    seed = int(_resolve(args, config, "seed", 0))
    out = _out_dir(args, config)
    _write_manifest(out, "diagnose", {"dt": dt, "T": horizon, "seed": seed})

    rng = np.random.default_rng(seed)
    rows = []
    all_pass = True
    for spec in finite_flow.builtin_potential_bank():
        x0 = rng.uniform(-1.5, 1.5, size=spec.dim)
        traj = finite_flow.integrate_flow(spec, x0, dt, horizon)
        finite_flow.write_trajectory_csv(spec, traj,
                                         out / f"trajectory_{spec.name}.csv")
        residual = finite_flow.de_bruijn_residual(spec, traj)
        prod = finite_flow.production_decay_check(spec, traj)
        ent = finite_flow.entropy_decay_check(spec, traj)
        lhs, rhs = finite_flow.eep_inequality_check(spec, x0)
        checks = [
            ("de_bruijn_residual", residual, residual <= 1e-3),
            ("production_decay_ratio", prod.worst_ratio, prod.passed),
            ("entropy_decay_ratio", ent.worst_ratio, ent.passed),
            ("eep_margin", rhs - lhs, lhs <= rhs + 1e-9),
        ]
        for name, value, passed in checks:
            rows.append((spec.name, name, value, passed))
            all_pass &= bool(passed)

    write_csv(out / "finite_checks.csv", "potential,check,value,pass",
              "%s,%s,%.17g,%s",
              ((potential, check, value, "true" if passed else "false")
               for potential, check, value, passed in rows))
    _emit("all_pass", all_pass)
    return 0 if all_pass else 1


# ------------------------------------------------------------------ jko

# jko --functional name -> flow, for each flow whose free energy JKO steps;
# the unconfined one goes by its free energy, the entropy
JKO_FUNCTIONALS = {flow if model.confined else "entropy": flow
                   for flow, model in pde.FLOWS.items() if jko.supports(model)}


def _cmd_jko(args):
    config = _load_config(args.config)
    functional_name = _resolve(args, config, "functional", "fokker_planck")
    tau = float(_resolve(args, config, "tau", 0.02))
    _positive(tau, "tau")
    steps = int(_resolve(args, config, "steps", 50, aliases=("K",)))
    _positive(steps, "steps")
    quantiles = int(_resolve(args, config, "quantiles", 1024, aliases=("M",)))
    grid, fields = _line_grid(args, config, 1025)
    init = str(_resolve(args, config, "init", "gaussian:1:1"))
    compare = bool(args.compare_pde or config.get("compare_pde", False))

    mu0 = _parse_density(init, grid)
    flow = JKO_FUNCTIONALS.get(functional_name)
    if flow is None:
        raise ConfigError("functional", f"unknown functional {functional_name!r}")

    out = _out_dir(args, config)
    _write_manifest(out, "jko", {
        "functional": functional_name, "tau": tau, "steps": steps,
        "quantiles": quantiles, **fields, "init": init, "compare_pde": compare})

    cfg = jko.JkoConfig(tau=tau, steps=steps, num_quantiles=quantiles)
    traj = jko.jko_trajectory(pde.FLOWS[flow], mu0, cfg)
    jko.write_step_log_csv(traj, out / "jko_steps.csv")
    write_density_csv(traj.states[-1], out / "final_density.csv")

    logs = traj.metadata["steps"]
    energies = [row["F"] for row in logs]
    monotone = all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    summary = {"steps": steps, "tau": tau, "energy_monotone": monotone,
               "final_F": energies[-1]}
    if compare:
        pde_dt = min(1e-3, tau / 10.0)
        per_step = max(1, int(round(tau / pde_dt)))
        pde_dt = tau / per_step
        ref = pde.solve(pde.FlowSpec(flow, grid, dt=pde_dt,
                                     horizon=cfg.horizon,
                                     snapshot_every=per_step), mu0)
        from .grids import integrate
        gap = max(integrate(np.abs(s.values - r.values), grid)
                  for s, r in zip(traj.states, ref.states))
        summary["max_l1_gap_to_pde"] = gap
        _emit("max_l1_gap_to_pde", gap)
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True,
                                                 indent=2) + "\n")
    _emit("energy_monotone", monotone)
    return 0 if monotone else 1


# ------------------------------------------------------------------ check

def _cmd_check(args):
    config = _load_config(args.config)
    inequality = _resolve(args, config, "inequality", None)
    if inequality not in banks.BANK_NAMES:
        raise ConfigError("inequality",
                          f"choose one of {', '.join(banks.BANK_NAMES)}")
    bank = _resolve(args, config, "bank", "default")
    if bank != "default":
        raise ConfigError("bank", f"unknown bank {bank!r}")
    seed = int(_resolve(args, config, "seed", 7))
    count = _resolve(args, config, "count", None)
    if count is not None:
        count = int(count)
        _positive(count, "count")

    out = _out_dir(args, config)
    _write_manifest(out, "check", {"inequality": inequality, "bank": bank,
                                   "seed": seed, "count": count})
    rows = banks.run_inequality_bank(inequality, seed=seed, count=count)

    write_csv(out / "report.csv", "case_id,lhs,rhs,margin,pass",
              "%s,%.17g,%.17g,%.17g,%s",
              ((row.case_id, row.lhs, row.rhs, row.margin,
                "true" if row.passed else "false") for row in rows))

    worst = min(rows, key=lambda r: r.margin)
    failures = [r for r in rows if not r.passed]
    summary = {"inequality": inequality, "cases": len(rows),
               "failures": len(failures), "worst_case": worst.case_id,
               "worst_margin": worst.margin}
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True,
                                                 indent=2) + "\n")
    _emit("cases", len(rows))
    _emit("failures", len(failures))
    _emit("worst_case", worst.case_id)
    return 0 if not failures else 1


# ------------------------------------------------------------------ w2

def _cmd_w2(args):
    config = _load_config(args.config)
    grid, fields = _line_grid(args, config, 2049)
    quantiles = int(_resolve(args, config, "quantiles", 4096))
    mu_spec = _resolve(args, config, "mu", "gaussian:0:1")
    nu_spec = _resolve(args, config, "nu", "gaussian:1:1")
    mu = _parse_density(mu_spec, grid)
    nu = _parse_density(nu_spec, grid)
    out = _out_dir(args, config)
    _write_manifest(out, "w2", {"mu": mu_spec, "nu": nu_spec, **fields,
                                "quantiles": quantiles})
    value = transport.w2_1d(mu, nu, quantiles)
    _emit("w2", value)
    _emit("w2_squared", value**2)
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="Entropy-dissipating gradient flows: solvers, transport, "
                    "JKO stepping and inequality checkers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default entroflow_out; "
                                     "ENTROFLOW_OUT overrides)")
        p.add_argument("--seed", type=int, help="PRNG seed (PCG64, default 7 "
                                                "for banks, 0 elsewhere)")

    p = sub.add_parser("simulate", help="run a PDE flow, optionally with "
                                        "dissipation diagnostics")
    common(p)
    p.add_argument("--flow", choices=list(pde.FLOWS))
    p.add_argument("--init", help="gaussian:m:s | uniform | dirac | csv:path | "
                                  "stationary | stationary-perturbed:eps")
    p.add_argument("--dim", type=int, help="ambient dimension (fast diffusion)")
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float, help="time horizon")
    p.add_argument("--N", dest="num_nodes", type=int, help="grid nodes")
    p.add_argument("--domain", nargs=2, type=float, help="line domain a b")
    p.add_argument("--radius", type=float, help="radial truncation radius")
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int)
    p.add_argument("--diagnose", action="store_true",
                   help="write the dissipation report and gate the exit code")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diagnose", help="finite-dimensional gradient-flow "
                                        "diagnostics over the built-in "
                                        "potential bank")
    common(p)
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("jko", help="minimizing-movement trajectory")
    common(p)
    p.add_argument("--functional", choices=list(JKO_FUNCTIONALS))
    p.add_argument("--tau", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--quantiles", type=int)
    p.add_argument("--init")
    p.add_argument("--N", dest="num_nodes", type=int)
    p.add_argument("--domain", nargs=2, type=float)
    p.add_argument("--compare-pde", dest="compare_pde", action="store_true",
                   help="also run the matching PDE flow and report the gap")
    p.set_defaults(func=_cmd_jko)

    p = sub.add_parser("check", help="run an inequality checker over its "
                                     "seeded bank")
    common(p)
    p.add_argument("--inequality", choices=list(banks.BANK_NAMES))
    p.add_argument("--bank", help="bank name (default)")
    p.add_argument("--count", type=int, help="number of cases")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("w2", help="Wasserstein distance between two densities")
    common(p)
    p.add_argument("--mu", help="density spec")
    p.add_argument("--nu", help="density spec")
    p.add_argument("--N", dest="num_nodes", type=int)
    p.add_argument("--domain", nargs=2, type=float)
    p.add_argument("--quantiles", type=int)
    p.set_defaults(func=_cmd_w2)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else 0
    try:
        return args.func(args)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
