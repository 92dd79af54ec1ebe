import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entroflow
from entroflow import banks, finite_flow, jko, pde
from entroflow.cli import JKO_FUNCTIONALS, build_parser, main
from entroflow.grids import (
    GridDensity,
    gaussian_density,
    make_uniform_grid,
    read_density_csv,
    write_density_csv,
)


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_check_lsi_small_bank(tmp_path, capsys):
    code = main(["check", "--inequality", "lsi", "--seed", "7", "--count", "30",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "case_id,lhs,rhs,margin,pass"
    assert len(lines) == 31
    assert all(line.endswith("true") for line in lines[1:])
    assert (tmp_path / "manifest.json").exists()
    out = capsys.readouterr().out
    assert "failures=0" in out


def test_check_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["check", "--inequality", "zugmeyer", "--seed", "11",
                 "--count", "12", "--out", str(a)]) == 0
    assert main(["check", "--inequality", "zugmeyer", "--seed", "11",
                 "--count", "12", "--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_simulate_fp_diagnose(tmp_path, capsys):
    code = main(["simulate", "--flow", "fokker_planck", "--init", "gaussian:2:1",
                 "--dt", "0.002", "--T", "1.5", "--N", "513",
                 "--snapshot-every", "50", "--diagnose", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["fitted_production_rate"] == pytest.approx(2.0, rel=0.05)
    assert summary["passed"] is True
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == "t,value,production,bound"
    assert (tmp_path / "snapshot_0000.csv").exists()


def test_simulate_rejects_negative_dt(tmp_path, capsys):
    code = main(["simulate", "--flow", "heat", "--dt", "-1", "--out",
                 str(tmp_path)])
    assert code == 2
    assert "dt" in capsys.readouterr().err


def test_unknown_command_is_config_error():
    assert main(["frobnicate"]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inequality": "lsi", "count": 10, "seed": 3}))
    out = tmp_path / "out"
    code = main(["check", "--config", str(cfg), "--count", "5",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 5      # flag wins
    assert manifest["seed"] == 3       # config value survives
    assert len((out / "report.csv").read_text().splitlines()) == 6


def test_env_var_overrides_out(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("ENTROFLOW_OUT", str(env_dir))
    code = main(["w2", "--mu", "gaussian:0:1", "--nu", "gaussian:1:1",
                 "--out", str(tmp_path / "flag_out")])
    assert code == 0
    assert (env_dir / "manifest.json").exists()


def test_w2_prints_key_value(tmp_path, capsys):
    code = main(["w2", "--mu", "gaussian:0:1", "--nu", "gaussian:1:1",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("w2=")][0]
    assert float(line.split("=")[1]) == pytest.approx(1.0, abs=1e-4)


def test_diagnose_command(tmp_path, capsys):
    code = main(["diagnose", "--dt", "0.001", "--T", "2.0", "--out",
                 str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "finite_checks.csv").read_text().splitlines()
    assert lines[0] == "potential,check,value,pass"
    assert len(lines) == 1 + 3 * 4  # three potentials, four checks each
    assert all(line.endswith("true") for line in lines[1:])


def test_diagnose_trajectory_csvs_match_row_oracle(tmp_path):
    assert main(["diagnose", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    rng = np.random.default_rng(manifest["seed"])   # as diagnose draws its starts
    for spec in finite_flow.builtin_potential_bank():
        traj = finite_flow.integrate_flow(spec, rng.uniform(-1.5, 1.5, size=spec.dim),
                                          manifest["dt"], manifest["T"])
        table = np.column_stack((traj.times, traj.states, traj.energies,
                                 traj.grad_norms_sq))
        header = ",".join(["t", *(f"x_{i + 1}" for i in range(spec.dim)), "E",
                           "gradnorm2"])
        rows = [",".join("%.17g" % v for v in row) for row in table.tolist()]
        text = (tmp_path / f"trajectory_{spec.name}.csv").read_text()
        assert text == "\n".join([header, *rows]) + "\n"


def test_check_report_csv_matches_row_oracle(tmp_path):
    assert main(["check", "--inequality", "lsi", "--seed", "3", "--count", "20",
                 "--out", str(tmp_path)]) == 0
    rows = ["%s,%.17g,%.17g,%.17g,%s" % (row.case_id, row.lhs, row.rhs, row.margin,
                                          "true" if row.passed else "false")
            for row in banks.run_inequality_bank("lsi", 3, 20)]
    text = (tmp_path / "report.csv").read_text()
    assert text == "\n".join(["case_id,lhs,rhs,margin,pass", *rows]) + "\n"


def test_jko_step_log_csv_matches_row_oracle(tmp_path):
    assert main(["jko", "--steps", "3", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    grid = make_uniform_grid(*manifest["domain"], manifest["num_nodes"])
    traj = jko.jko_trajectory(JKO_FUNCTIONALS[manifest["functional"]],
                              gaussian_density(grid, 1.0, 1.0), manifest["tau"],
                              manifest["steps"], manifest["quantiles"])
    assert manifest["init"] == "gaussian:1:1"
    rows = ["%s,%.17g,%.17g,%s" % (row["k"], row["F"], row["W2_step"], row["inner_iters"])
            for row in traj.metadata["steps"]]
    text = (tmp_path / "jko_steps.csv").read_text()
    assert text == "\n".join(["k,F,W2_step,inner_iters", *rows]) + "\n"


def test_jko_command_with_pde_comparison(tmp_path, capsys):
    code = main(["jko", "--functional", "fokker_planck", "--init", "gaussian:1:1",
                 "--tau", "0.04", "--steps", "10", "--quantiles", "512",
                 "--N", "513", "--compare-pde", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["energy_monotone"] is True
    assert summary["max_l1_gap_to_pde"] < 0.1
    steps = (tmp_path / "jko_steps.csv").read_text().splitlines()
    assert steps[0] == "k,F,W2_step,inner_iters"
    assert len(steps) == 11


def test_bad_inequality_name(tmp_path, capsys):
    code = main(["check", "--inequality", "nope", "--out", str(tmp_path)])
    assert code == 2


def test_check_lsi_default_bank_has_200_cases(tmp_path):
    code = main(["check", "--inequality", "lsi", "--seed", "7",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 201
    assert all(line.endswith("true") for line in lines[1:])


def test_config_key_aliases(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "heat", "N": 129, "dt": 1e-3,
                               "T": 0.01, "init": "gaussian:0:1"}))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flow"] == "heat"
    assert manifest["num_nodes"] == 129


def test_simulate_rejects_horizon_off_the_time_grid(tmp_path, capsys):
    code = main(["simulate", "--flow", "heat", "--T", "0.0015", "--dt", "0.001",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error: T:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("horizon", ["0.001", "0.0010000000000001"])
def test_diagnose_rejects_a_single_step(horizon, tmp_path, capsys):
    # de Bruijn's centered difference in t needs 3 time points
    code = main(["diagnose", "--T", horizon, "--out", str(tmp_path)])
    assert code == 2
    assert "config error: T: need at least 2 steps" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_diagnose_accepts_two_steps(tmp_path):
    assert main(["diagnose", "--T", "0.002", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "trajectory_quadratic.csv").read_text().splitlines()) == 4


def test_diagnose_rejects_horizon_off_the_time_grid(tmp_path, capsys):
    code = main(["diagnose", "--T", "1.0004", "--dt", "0.001",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error: T:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", [["simulate", "--flow", "heat"], ["diagnose"]])
@pytest.mark.parametrize("flag, message", [
    (["--T", "inf"], "must be finite"), (["--T", "nan"], "must be finite"),
    (["--dt", "inf"], "must be finite"),
    # finite, but 1e303 steps: simulate would step for ever
    (["--T", "1e300"], "more than 100000000 steps"),
], ids=["flag0", "flag1", "flag2", "flag3"])
def test_non_finite_horizon_or_dt_is_a_config_error(command, flag, message,
                                                    tmp_path, capsys):
    code = main([*command, *flag, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: T:" in err and message in err
    assert not (tmp_path / "manifest.json").exists()


def test_simulate_accepts_horizon_multiple_up_to_roundoff(tmp_path):
    # 1.5 / 1e-3 is 1500 only up to roundoff
    code = main(["simulate", "--flow", "heat", "--T", "1.5", "--dt", "1e-3",
                 "--N", "129", "--snapshot-every", "500", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final_time"] == pytest.approx(1.5, rel=1e-12)
    assert summary["snapshots"] == 4


SCIPY_PROBE = """
import sys
import entroflow.cli
argv = sys.argv[1:]
if argv:
    code = entroflow.cli.main(argv)
    assert code == 0, code
print("lapack=" + str("entroflow._flapack" in sys.modules))
print("scipy_modules=" + ",".join(
    sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print("extensions=" + ",".join(
    sorted(m[len("entroflow."):] for m in sys.modules if m.startswith("entroflow._"))))
print("polynomial=" + str("numpy.polynomial" in sys.modules))
"""


# No command imports a scipy module: a banded solve loads scipy's LAPACK
# extension file under the private name entroflow._flapack, and only then;
# the fast-diffusion stationary state loads Brent's entroflow._zeros, and
# its tail mass numpy.polynomial's Gauss-Legendre nodes.
@pytest.mark.parametrize("argv, solves_banded", [
    ([], False),
    (["w2"], False),
    (["check", "--inequality", "eep_fd", "--count", "5"], False),
    (["diagnose", "--T", "0.1"], False),
    (["simulate", "--flow", "heat", "--N", "129", "--T", "0.01"], True),
    (["jko", "--steps", "2", "--compare-pde"], True),
    (["simulate", "--flow", "fast_diffusion", "--N", "64", "--T", "0.01"], True),
    (["check", "--inequality", "lsi", "--count", "5"], False),
])
def test_scipy_loaded_only_by_banded_solves(argv, solves_banded, tmp_path):
    src = str(Path(entroflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "ENTROFLOW_OUT": str(tmp_path), "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, lapack, loaded, extensions, polynomial = proc.stdout.splitlines()
    assert lapack == f"lapack={solves_banded}"
    assert loaded == "scipy_modules="
    brent = "eep_fd" in argv or "fast_diffusion" in argv   # stationary_fd
    expected = ["_flapack"] * solves_banded + ["_zeros"] * brent
    assert extensions == "extensions=" + ",".join(expected)
    assert polynomial == f"polynomial={brent}"   # its Gauss-Legendre tail mass


# ------------------------------------------------------------ initial densities

SMALL_RUN = ["--N", "129", "--dt", "0.005", "--T", "0.01", "--snapshot-every", "1"]


@pytest.mark.parametrize("flow", ["heat", "fokker_planck"])
def test_line_flow_rejects_dim(flow, tmp_path, capsys):
    code = main(["simulate", "--flow", flow, "--dim", "2", *SMALL_RUN,
                 "--out", str(tmp_path)])
    assert code == 2
    assert "config error: dim:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("init", ["uniform", "dirac"])
def test_simulate_builtin_inits(init, tmp_path):
    assert main(["simulate", "--flow", "heat", "--init", init, *SMALL_RUN,
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "snapshot_0002.csv").exists()


def test_simulate_csv_init_reproduces_the_snapshot(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "--flow", "heat", *SMALL_RUN, "--out", str(first)]) == 0
    source = first / "snapshot_0000.csv"
    assert main(["simulate", "--flow", "heat", "--init", f"csv:{source}",
                 *SMALL_RUN, "--out", str(second)]) == 0
    assert (second / "snapshot_0000.csv").read_bytes() == source.read_bytes()


@pytest.mark.parametrize("argv", [
    ["simulate", "--flow", "heat", *SMALL_RUN, "--init"],
    ["jko", "--steps", "2", "--quantiles", "128", "--init"],
    ["jko", "--steps", "2", "--quantiles", "128", "--compare-pde", "--init"],
    ["w2", "--quantiles", "256", "--mu"],
], ids=["simulate", "jko", "jko-compare-pde", "w2"])
def test_csv_density_on_another_grid_writes_nothing(argv, tmp_path, capsys):
    # a density on 65 nodes, read by commands on 129, 1025 or 2049 nodes
    source = tmp_path / "density.csv"
    write_density_csv(gaussian_density(make_uniform_grid(-8.0, 8.0, 65)), source)
    out = tmp_path / "out"
    assert main([*argv, f"csv:{source}", "--out", str(out)]) == 2
    assert "config error: N:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("node, value, fragment", [
    (0.0, -1e-3, "init: density values must be nonnegative"),
    (0.01, 0.0, "N: {path} is not on the 129 nodes of --N and --domain"),
], ids=["negative-value", "non-uniform-nodes"])
def test_csv_init_names_the_flag_of_its_fault(node, value, fragment, tmp_path,
                                               capsys):
    # the Gaussian on the 129 nodes of SMALL_RUN, node 5 moved by ``node``
    # and its value set to ``value``
    grid = make_uniform_grid(-8.0, 8.0, 129)
    nodes, values = grid.nodes.tolist(), gaussian_density(grid).values.tolist()
    nodes[5] += node
    values[5] = value
    path = tmp_path / "density.csv"
    path.write_text("x,value\n" + "".join(f"{x!r},{v!r}\n"
                                          for x, v in zip(nodes, values)))
    out = tmp_path / "out"
    assert main(["simulate", "--flow", "heat", *SMALL_RUN, "--init",
                 f"csv:{path}", "--out", str(out)]) == 2
    assert f"config error: {fragment.format(path=path)}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fast_diffusion_from_dimension_133(tmp_path, capsys):
    # from n = 133 the stationary mass at C = 1e-8 is nan, and the
    # normalization constant is bracketed from a larger C; from n = 250 no
    # C has a finite grid mass above 1
    argv = ["simulate", "--flow", "fast_diffusion", "--T", "0.01", "--diagnose"]
    assert main([*argv, "--dim", "133", "--out", str(tmp_path / "a")]) == 0
    assert "passed=True" in capsys.readouterr().out
    assert main([*argv, "--dim", "309", "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err == (
        "config error: dim: the stationary state of dimension 309 has no "
        "finite grid mass above 1 for C in [1e-08, 1]\n")
    assert not (tmp_path / "b").exists()
    # from n = 191 the state underflows to 0 at the outer nodes
    assert main([*argv, "--dim", "195", "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == (
        "config error: dim: the stationary state of dimension 195 underflows "
        "to 0 at 23 grid nodes\n")
    assert not (tmp_path / "c").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fast_diffusion_grid_with_a_zero_newton_row_is_config_error(tmp_path, capsys):
    # from n = 150 the first cell and its face have no measure in doubles at
    # the default radius and cells; n = 147 has a subnormal first face
    argv = ["simulate", "--flow", "fast_diffusion", "--T", "0.01", "--diagnose"]
    assert main([*argv, "--dim", "147", "--out", str(tmp_path / "a")]) == 0
    assert "passed=True" in capsys.readouterr().out
    assert main([*argv, "--dim", "150", "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err == (
        "config error: at dimension 150, radius 10 and 512 cells the inner cells "
        "have neither measure nor face area in doubles: lower --dim or widen "
        "the cells, --radius / --N\n")
    assert not (tmp_path / "b").exists()


def test_simulate_unknown_init_is_config_error(tmp_path, capsys):
    code = main(["simulate", "--flow", "heat", "--init", "cauchy:0:1",
                 *SMALL_RUN, "--out", str(tmp_path)])
    assert code == 2
    assert "config error: init:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("mu, nu", [
    ("gaussian", "gaussian:0:1"),
    ("gaussian:0.5", "gaussian:0.5:1"),
    ("gaussian:0.5:2.0", "gaussian:0.5:2"),
])
def test_density_spec_fields_default_as_before(mu, nu, tmp_path, capsys):
    assert main(["w2", "--mu", mu, "--nu", nu, "--quantiles", "256",
                 "--out", str(tmp_path)]) == 0
    assert "w2=0\n" in capsys.readouterr().out


def test_csv_init_path_may_hold_colons(tmp_path):
    source = tmp_path / "a:b" / "density.csv"
    source.parent.mkdir()
    write_density_csv(gaussian_density(make_uniform_grid(-8.0, 8.0, 129)), source)
    out = tmp_path / "out"
    assert main(["simulate", "--flow", "heat", "--init", f"csv:{source}",
                 *SMALL_RUN, "--out", str(out)]) == 0
    assert (out / "snapshot_0000.csv").read_bytes() == source.read_bytes()


def test_stationary_perturbed_default_eps_is_0_05(tmp_path):
    runs = {}
    for init in ("stationary-perturbed", "stationary-perturbed:0.05"):
        out = tmp_path / init.replace(":", "_")
        assert main(["simulate", "--flow", "fast_diffusion", "--N", "32",
                     "--dt", "0.005", "--T", "0.005", "--init", init,
                     "--out", str(out)]) == 0
        runs[init] = (out / "snapshot_0000.csv").read_bytes()
    assert runs["stationary-perturbed"] == runs["stationary-perturbed:0.05"]


def test_fokker_planck_stationary_init_is_the_gaussian(tmp_path):
    assert main(["simulate", "--flow", "fokker_planck", "--init", "stationary",
                 *SMALL_RUN, "--out", str(tmp_path)]) == 0
    _, start = read_density_csv(tmp_path / "snapshot_0000.csv")
    gamma = gaussian_density(make_uniform_grid(-8.0, 8.0, 129))
    assert np.array_equal(start, gamma.values)


def test_heat_has_no_stationary_init(tmp_path, capsys):
    code = main(["simulate", "--flow", "heat", "--init", "stationary",
                 *SMALL_RUN, "--out", str(tmp_path)])
    assert code == 2
    assert "config error: init:" in capsys.readouterr().err


# ------------------------------------------------------------ config files

def write_config(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return str(path)


@pytest.mark.parametrize("values, flags, expected", [
    ({"N": 129, "num_nodes": 257}, [], 257),     # the flag's own name wins
    ({"N": 129}, [], 129),                       # an alias beats the default
    ({"num_nodes": 257}, ["--N", "129"], 129),   # a flag beats the file
])
def test_config_precedence(values, flags, expected, tmp_path):
    out = tmp_path / "out"
    assert main(["w2", "--config", write_config(tmp_path, values), *flags,
                 "--quantiles", "256", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["num_nodes"] == expected


def test_w2_reads_the_quantile_alias(tmp_path):
    out = tmp_path / "out"
    assert main(["w2", "--config", write_config(tmp_path, {"M": 256}),
                 "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["quantiles"] == 256


@pytest.mark.parametrize("diagnose, code", [(True, 1), (False, 0)])
def test_config_diagnose_gates_the_exit_code(diagnose, code, tmp_path, capsys):
    # on a 9-node grid at dt = 0.5 the discrete production breaks its bound
    values = {"flow": "fokker_planck", "init": "uniform", "N": 9, "dt": 0.5,
              "T": 2.0, "snapshot_every": 1, "diagnose": diagnose}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, values),
                 "--out", str(out)]) == code
    assert ("passed=False" in capsys.readouterr().out) == diagnose
    assert (out / "report.csv").exists() == diagnose


def test_config_compare_pde_reports_the_gap(tmp_path, capsys):
    values = {"tau": 0.04, "K": 2, "M": 128, "N": 129, "compare_pde": True}
    out = tmp_path / "out"
    assert main(["jko", "--config", write_config(tmp_path, values),
                 "--out", str(out)]) == 0
    assert "max_l1_gap_to_pde=" in capsys.readouterr().out
    assert json.loads((out / "summary.json").read_text())["max_l1_gap_to_pde"] < 0.1


def test_config_run_writes_the_flag_run_manifest(tmp_path):
    flags, config = tmp_path / "flags", tmp_path / "config"
    assert main(["simulate", "--flow", "heat", "--N", "129", "--dt", "0.01",
                 "--T", "1", "--snapshot-every", "100", "--out", str(flags)]) == 0
    values = {"flow": "heat", "N": 129, "dt": 0.01, "T": 1, "snapshot_every": 100}
    assert main(["simulate", "--config", write_config(tmp_path, values),
                 "--out", str(config)]) == 0
    manifest = (config / "manifest.json").read_bytes()
    assert manifest == (flags / "manifest.json").read_bytes()
    assert b'"T": 1.0,' in manifest


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
def test_unreadable_config_is_config_error(content, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    assert main(["w2", "--config", str(path), "--out", str(out)]) == 2
    assert "config error: config:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, values, key", [
    ("diagnose", {"dt": [0.001]}, "dt"),                     # a list for a number
    ("simulate", {"flow": "heat", "snapshot-every": 10}, "snapshot-every"),
    ("simulate", {"flow": "hot"}, "flow"),                   # not a choice
    ("simulate", {"diagnose": 1}, "diagnose"),               # a switch takes a bool
    ("w2", {"mu": None}, "mu"),                              # null needs a None default
    ("w2", {"N": True}, "N"),                                # bool is not an integer
    ("w2", {"num_nodes": 129.0}, "num_nodes"),               # nor is a float
    ("w2", {"domain": [-4, 4, 5]}, "domain"),                # two values
    ("w2", {"seed": 1}, "seed"),                             # not a w2 parameter
    ("check", {"inequality": "lsi", "bank": "default"}, "bank"),
    ("jko", {"functional": 3}, "functional"),
])
def test_config_value_its_flag_would_not_take_is_rejected(
        command, values, key, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, values),
                 "--out", str(out)]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_are_converted_as_their_flags(tmp_path):
    values = {"flow": "heat", "N": 129, "dt": 1, "T": 2, "snapshot_every": 1,
              "init": None, "domain": [-8, 8], "diagnose": False}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, values),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["init"] == "gaussian:2:1"      # null: the flow's default
    assert [type(manifest[key]) for key in ("dt", "T", "num_nodes")] == [
        float, float, int]
    assert manifest["domain"] == [-8.0, 8.0]


@pytest.mark.parametrize("argv, fragment", [
    (["jko", "--quantiles", "32"], "quantiles: need at least 64 quantile nodes"),
    (["jko", "--quantiles", "32", "--compare-pde"],
     "quantiles: need at least 64 quantile nodes"),
    (["w2", "--quantiles", "4"], "quantiles: need at least 8 quantile nodes"),
    (["jko", "--steps", "1000000000"],                    # > pde.MAX_STEPS
     "steps: need at least 1 and at most 100000000 steps"),
    (["simulate", "--flow", "heat", "--init", "gaussian:7.5:0.05"],
     "init: initial density must be strictly positive"),     # underflows to 0
    (["jko", "--init", "gaussian:7.5:0.05", "--steps", "2"],
     "init: initial density must be strictly positive"),     # without --compare-pde
    (["simulate", "--flow", "heat", *SMALL_RUN, "--init", "csv:{heavy}"],
     "init: initial density must have unit mass, got 1.01"),
    (["jko", "--N", "129", "--init", "csv:{heavy}", "--steps", "2"],
     "init: initial density must have unit mass"),     # without --compare-pde
    (["jko", "--N", "129", "--init", "csv:{heavy}", "--steps", "2", "--compare-pde"],
     "init: initial density must have unit mass"),
    (["w2", "--N", "129", "--mu", "csv:{heavy}"], "mu: density must have unit mass"),
    (["w2", "--N", "129", "--nu", "csv:{heavy}"], "nu: density must have unit mass"),
    (["jko", "--tau", "1000", "--steps", "101", "--compare-pde"],
     "horizon 101000.0 takes more than 100000000 steps"),   # the PDE's
    (["check", "--inequality", "lsi", "--seed", "-1"], "seed: must be non-negative"),
    (["diagnose", "--seed", "-1"], "seed: must be non-negative"),
    (["jko", "--tau", "inf", "--steps", "2"], "tau: must be positive and finite"),
    (["jko", "--tau", "inf", "--steps", "2", "--compare-pde"],
     "tau: must be positive and finite"),     # before tau sizes the PDE step
    (["simulate", "--flow", "fast_diffusion", "--dim", "2"],
     "dim: fast diffusion requires n > 2"),
    (["simulate", "--flow", "fast_diffusion", "--dim", "0"],
     "dim: ambient dimension must be >= 1"),
    (["simulate", "--flow", "fast_diffusion", "--dim", "195"],
     "dim: the stationary state of dimension 195 underflows to 0"),
    (["simulate", "--flow", "fast_diffusion", "--dim", "309"],
     "dim: the stationary state of dimension 309 has no finite grid mass"),
    (["simulate", "--flow", "fast_diffusion", "--dim", "320"],
     "dim: grid weights overflow in dimension 320"),
    (["simulate", "--flow", "fast_diffusion", "--dim", "344"],
     "dim: the unit sphere area of R^344 overflows"),
    (["simulate", "--flow", "fokker_planck", "--domain", "100", "200"],
     "domain: cannot normalize an all-zero sample array"),   # e^{-x^2/2} is 0 there
    (["simulate", "--init", "csv"], "init: 'csv' does not match csv:path"),
    (["w2", "--mu", "csv"], "mu: 'csv' does not match csv:path"),
    (["w2", "--nu", "csv:"], "nu: 'csv:' does not match csv:path"),
    (["jko", "--init", "dirac:5", "--steps", "2"],
     "init: 'dirac:5' does not match dirac"),
    (["jko", "--init", "uniform:3", "--steps", "2"],
     "init: 'uniform:3' does not match uniform"),
    (["jko", "--init", "gaussian:0:1:5", "--steps", "2"],
     "init: 'gaussian:0:1:5' does not match gaussian[:mean[:sigma]]"),
    (["simulate", "--init", "stationary:1"],
     "init: 'stationary:1' does not match stationary"),
    (["simulate", "--flow", "fast_diffusion", "--init",
      "stationary-perturbed:0.1:2"],
     "init: 'stationary-perturbed:0.1:2' does not match stationary-perturbed[:eps]"),
    (["w2", "--mu", "bogus"], "mu: unknown density spec 'bogus'"),
    (["w2", "--nu", "stationary"], "nu: unknown density spec 'stationary'"),
    (["simulate", "--init", "gaussian:x"], "init: could not convert string"),
    (["w2", "--nu", "gaussian:0:-1"], "nu: sigma must be positive"),
    (["jko", "--init", "csv:{missing}", "--steps", "2"],
     "init: [Errno 2] No such file"),
    (["jko", "--tau", "5e-324", "--steps", "2", "--compare-pde"],
     "dt must be positive"),    # tau / 10 underflows to 0 in the PDE step
    (["simulate", "--flow", "fast_diffusion", "--init", "gaussian:0:1"],
     "init: fast diffusion supports stationary inits"),
    (["check"], "inequality: choose one of"),
    (["simulate", "--init", "uniform", "--domain", "-60", "60"],
     "domain [-60, 60] is too wide"),   # no symmetric step in doubles
    (["w2", "--N", "5"], "N: need at least 8 nodes, got 5"),
    (["jko", "--N", "7"], "N: need at least 8 nodes, got 7"),
    (["simulate", "--flow", "heat", "--N", "7"], "N: need at least 8 nodes, got 7"),
    (["simulate", "--flow", "fast_diffusion", "--N", "7"],
     "N: need at least 8 cells, got 7"),
    (["simulate", "--flow", "heat", "--domain", "2", "2"], "domain: need a < b"),
    (["simulate", "--flow", "heat", "--domain", "2", "1", "--N", "5"],
     "domain: need a < b"),   # the domain is checked first
    (["simulate", "--flow", "heat", "--domain", "0", "inf"],
     "domain: need finite ends, got a=0.0, b=inf"),
    (["jko", "--domain", "0", "inf"], "domain: need finite ends"),
    (["w2", "--domain", "-1", "inf", "--N", "5"],
     "domain: need finite ends"),   # before the node count
    (["simulate", "--flow", "heat", "--domain", "nan", "1"],
     "domain: need finite ends"),
    (["simulate", "--flow", "fast_diffusion", "--radius", "inf"],
     "radius: must be positive and finite, got inf"),
    (["simulate", "--flow", "fast_diffusion", "--radius", "nan"],
     "radius: must be positive and finite, got nan"),
], ids=["jko-quantiles", "jko-compare-pde-quantiles", "w2-quantiles", "jko-steps",
        "simulate-positivity", "jko-positivity", "simulate-mass", "jko-mass",
        "jko-compare-pde-mass", "w2-mu-mass", "w2-nu-mass",
        "jko-compare-pde-steps", "check-seed", "diagnose-seed", "jko-tau-inf",
        "jko-compare-pde-tau-inf", "simulate-dim-2", "simulate-dim-0",
        "simulate-dim-195", "simulate-dim-309", "simulate-dim-320",
        "simulate-dim-344", "simulate-fokker-planck-domain-off-the-minimizer",
        "simulate-csv-no-path", "w2-mu-csv-no-path",
        "w2-nu-csv-empty-path", "jko-dirac-field", "jko-uniform-field",
        "jko-gaussian-third-field", "simulate-stationary-field",
        "simulate-stationary-perturbed-second-field", "w2-mu-unknown",
        "w2-nu-stationary", "simulate-gaussian-not-a-number",
        "w2-nu-gaussian-sigma", "jko-csv-missing", "jko-compare-pde-subnormal-tau",
        "simulate-fast-diffusion-gaussian", "check-no-inequality",
        "simulate-fokker-planck-domain-too-wide", "w2-N", "jko-N", "simulate-heat-N",
        "simulate-fast-diffusion-N", "simulate-heat-empty-domain",
        "simulate-heat-reversed-domain-and-N", "simulate-heat-infinite-domain",
        "jko-infinite-domain", "w2-infinite-domain-and-N", "simulate-heat-nan-domain",
        "simulate-fast-diffusion-infinite-radius", "simulate-fast-diffusion-nan-radius"])
@pytest.mark.filterwarnings("error")
def test_rejected_input_writes_nothing(argv, fragment, tmp_path, capsys, monkeypatch):
    # a density of mass 1.01 on the 129 nodes of SMALL_RUN
    heavy = tmp_path / "heavy.csv"
    grid = make_uniform_grid(-8.0, 8.0, 129)
    write_density_csv(GridDensity(grid, 1.01 * gaussian_density(grid).values),
                      heavy)
    out = tmp_path / "out"
    argv = [arg.format(heavy=heavy, missing=tmp_path / "missing.csv")
            for arg in argv]
    if fragment.startswith(("quantiles:", "steps:", "init:")):   # before any PDE step
        monkeypatch.setattr(pde, "solve", None)   # a call raises TypeError
    assert main([*argv, "--out", str(out)]) == 2
    assert f"config error: {fragment}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "jko", "w2"])
def test_commands_without_randomness_take_no_seed(command, tmp_path):
    assert main([command, "--seed", "1", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("flow, flag, values", [
    ("heat", "radius", 5.0),
    ("fast_diffusion", "domain", [-4.0, 4.0]),
])
@pytest.mark.parametrize("from_config", [False, True])
def test_simulate_rejects_geometry_flags_the_flow_ignores(
        flow, flag, values, from_config, tmp_path, capsys):
    out = tmp_path / "out"
    if from_config:
        argv = ["--config", write_config(tmp_path, {flag: values})]
    else:
        argv = [f"--{flag}", *map(str, np.atleast_1d(values))]
    code = main(["simulate", "--flow", flow, *argv, *SMALL_RUN, "--out", str(out)])
    assert code == 2
    assert f"config error: {flag}:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--flow", "fast_diffusion", "--N", "32", "--T", "0.01"],
    ["diagnose", "--T", "0.1", "--seed", "3"],
    ["jko", "--steps", "2", "--quantiles", "128", "--N", "129", "--compare-pde"],
    ["check", "--inequality", "lsi", "--count", "3", "--seed", "5"],
    ["w2", "--mu", "gaussian:0.5:1", "--quantiles", "256"],
])
def test_manifest_reruns_as_config(argv, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, "--out", str(first)]) == 0
    manifest = first / "manifest.json"
    assert main([argv[0], "--config", str(manifest), "--out", str(second)]) == 0
    assert (second / "manifest.json").read_bytes() == manifest.read_bytes()


@pytest.mark.parametrize("argv, ignored", [
    (["simulate", "--flow", "heat", *SMALL_RUN], "radius"),
    (["simulate", "--flow", "fast_diffusion", "--N", "32", "--T", "0.01"], "domain"),
    (["diagnose", "--T", "0.1"], None),
    (["jko", "--steps", "2", "--quantiles", "128", "--N", "129"], None),
    (["check", "--inequality", "lsi", "--count", "3"], None),
    (["w2", "--quantiles", "256"], None),
])
def test_every_command_records_its_flags_and_a_summary(argv, ignored, tmp_path):
    """The manifest holds the command and each of its flags but --config,
    --out and, for simulate, the geometry flag the flow ignores."""
    assert main([*argv, "--out", str(tmp_path)]) == 0
    parser = build_parser().parse_args(argv[:1]).command_parser
    flags = {action.dest for action in parser._actions}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest.pop("command") == argv[0]
    assert set(manifest) == flags - {"help", "config", "out", ignored}
    assert json.loads((tmp_path / "summary.json").read_text())


def test_simulate_memory_does_not_grow_with_the_snapshot_count(tmp_path):
    """Snapshots are written as they are made, so a run at every step peaks
    within a few N-sized arrays of a run at every 50th."""
    num = 4097
    argv = ["simulate", "--flow", "heat", "--N", str(num), "--T", "0.1",
            "--diagnose"]
    assert main([*argv, "--out", str(tmp_path / "warm")]) == 0   # lazy loads
    peaks = {}
    for every in (1, 50):
        tracemalloc.start()
        try:
            assert main([*argv, "--snapshot-every", str(every),
                         "--out", str(tmp_path / str(every))]) == 0
            peaks[every] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(list((tmp_path / "1").glob("snapshot_*.csv"))) == 101
    assert abs(peaks[1] - peaks[50]) <= 3 * num * 8, peaks


def test_solver_error_mid_run_leaves_the_snapshots_made(tmp_path, monkeypatch):
    """A numerical failure at step 5 keeps the manifest and the snapshots of
    steps 0, 2 and 4, writes no summary and propagates."""
    calls = []

    def failing_solve(ab, b):
        calls.append(None)
        if len(calls) == 5:
            raise pde.SolverError("planted failure at step 5")
        return solve_banded(ab, b)

    solve_banded = pde.solve_banded
    monkeypatch.setattr(pde, "solve_banded", failing_solve)
    with pytest.raises(pde.SolverError, match="planted failure"):
        main(["simulate", "--flow", "heat", "--N", "129", "--dt", "0.01",
              "--T", "0.1", "--snapshot-every", "2", "--diagnose",
              "--out", str(tmp_path)])
    assert (tmp_path / "manifest.json").exists()
    assert sorted(path.name for path in tmp_path.glob("snapshot_*.csv")) == [
        "snapshot_0000.csv", "snapshot_0001.csv", "snapshot_0002.csv"]
    assert not (tmp_path / "summary.json").exists()


def test_an_underflowed_linear_step_is_a_solver_error(tmp_path):
    """A linear step whose snapshot underflows to zero mass is judged a mass
    drift before it becomes a density: a SolverError after the first
    snapshot, not a config error."""
    with pytest.raises(pde.SolverError, match="mass drifted to 0.0 at step 4"):
        main(["simulate", "--domain", "-4", "1", "--dt", "1e110", "--T", "4e110",
              "--out", str(tmp_path)])
    assert (tmp_path / "manifest.json").exists()
    assert sorted(path.name for path in tmp_path.glob("snapshot_*.csv")) == [
        "snapshot_0000.csv"]
    assert not (tmp_path / "summary.json").exists()
