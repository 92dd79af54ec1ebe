"""entroflow benchmark: fresh-process CLI jobs in a single-client closed loop.

    python3 perfbench/run.py --workload cli_default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every job is a fresh
``python -m entroflow.cli ...`` process with ``PYTHONPATH=src``, started
only after the previous one has exited.  Jobs come in passes: one pass is
the workload's whole job list, drawn from the seed, and a new pass starts
only while it is expected to end within ``--seconds``, so every run holds
whole passes.  An untraced run holds at least the workload's minimum
(``MIN_PASSES``), so that ``cli_default`` always has ten jobs beyond its
tail percentile and ``nonlinear_fine`` always runs each job twice.  Every
job's output is checked against an oracle (``jobs.classify``).
``setup_s`` comes from timed fresh imports spread over the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
twice, untraced and then through ``traced_entry.py``, and reports the
per-layer metrics from the spans plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from scipy.special import betainc

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as jobspec  # noqa: E402

SETUP_SAMPLES = 7          # timed fresh imports per untraced run, spread over it
HARD_LIMIT_S = 165.0       # a run ends well inside the 180 s allowed
# job_tail_s is the highest whole percentile with at least MIN_BEYOND_TAIL
# jobs beyond it in an untraced cli_default run, the workload it is defined
# on.  That run holds at least three passes of 11 jobs: 33 jobs, 10.2 beyond
# p69.  The other workloads report the same percentile.
TAIL_WORKLOAD = "cli_default"
TAIL_PERCENTILE = 69
MIN_BEYOND_TAIL = 10
MIN_PASSES = {"cli_default": 3, "nonlinear_fine": 2}

END_TO_END_UNITS = {"job_p50_s": "s", "job_tail_s": "s", "node_steps_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "startup.import_s": "s", "startup.scipy_import_s": "s", "startup.modules": "count",
    "cli.self_s": "s",
    "grids.csv_write_s": "s", "grids.csv_write_mb": "MB",
    "grids.csv_read_s": "s", "grids.csv_read_mb": "MB",
    "grids.quantile_s": "s", "grids.quantile_calls": "count",
    "pde.linear_step_us": "us", "pde.linear_steps": "count",
    "pde.fd_step_us": "us", "pde.fd_steps": "count", "pde.fd_newton_iters": "count",
    "pde.solver_errors": "count", "pde.stationary_s": "s", "pde.report_s": "s",
    "functionals.eval_s": "s", "functionals.evals": "count",
    "jko.step_ms": "ms", "jko.steps": "count", "jko.inner_iters": "count",
    "transport.w2_s": "s", "transport.w2_calls": "count",
    "finite_flow.integrate_s": "s", "finite_flow.rk4_steps": "count",
    "finite_flow.checks_s": "s", "finite_flow.csv_s": "s",
    "banks.generate_s": "s", "banks.cases": "count", "banks.pass_ratio": "ratio",
    "inequalities.check_s": "s", "inequalities.oracle_s": "s",
    "trace.overhead_frac": "ratio", "trace.count_mismatches": "count",
}


def quantile(walls: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.

    A linear_fine run holds one pass of five jobs, so the sample median is
    the wall time of a single job and moves with that job's noise; this
    estimate draws on every job.  With many jobs, as in cli_default, it
    is close to the sample quantile.
    """
    xs = sorted(walls)
    n = len(xs)
    cdf = [betainc(p * (n + 1), (1 - p) * (n + 1), i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs)))


class BenchError(RuntimeError):
    """The benchmark cannot run or produce a valid result here."""


# ------------------------------------------------------------------ processes

def child_env(src: Path) -> dict:
    """The parent environment with PYTHONPATH=src, no ENTROFLOW_OUT (it would
    override --out) and BLAS/OpenMP threads capped at the usable cores."""
    env = dict(os.environ)
    env.pop("ENTROFLOW_OUT", None)
    env["PYTHONPATH"] = str(src)
    cores = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = str(min(int(current), cores) if current.isdigit() and int(current) > 0
                       else cores)
    return env


def run_process(cmd: list, cwd: Path, env: dict, timeout: float):
    """Run to exit; stdout and stderr go to files in ``cwd``.

    Returns (exit code or None if killed at the timeout, wall seconds from
    spawn to exit, peak resident set in bytes).
    """
    fired = threading.Event()
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if fired.is_set() else proc.returncode
    return code, wall, usage.ru_maxrss * 1024


def _read(path: Path) -> str:
    return path.read_text(errors="replace") if path.is_file() else ""


# ------------------------------------------------------------------ run record

def _fs_type(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) > 2 and str(path).startswith(fields[1]) \
                        and len(fields[1]) > len(best):
                    best, fstype = fields[1], fields[2]
    except OSError:
        pass
    return fstype


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


VERSION_PROBE = """
import json, sys, entroflow.cli, numpy, scipy
def blas(mod):
    try:
        dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "numpy_blas": blas(numpy),
                  "scipy_blas": blas(scipy)}))
"""


def probe_versions(workdir: Path, env: dict) -> dict:
    """An untimed warm-up import that reports library versions and fills
    the bytecode cache."""
    probe = workdir / "setup"
    probe.mkdir()
    code, _, _ = run_process([sys.executable, "-c", VERSION_PROBE], probe, env, 60)
    if code != 0:
        raise BenchError("entroflow.cli does not import:\n" + _read(probe / "stderr"))
    return json.loads(_read(probe / "stdout"))


def time_import(workdir: Path, env: dict) -> float:
    """Wall time of one fresh ``python -c "import entroflow.cli"``."""
    code, wall, _ = run_process([sys.executable, "-c", "import entroflow.cli"],
                                workdir / "setup", env, 60)
    if code != 0:
        raise BenchError("import entroflow.cli failed during setup")
    return wall


# ------------------------------------------------------------------ spans

def scipy_import_s(stderr: str) -> float:
    """Cumulative ``-X importtime`` of the outermost scipy modules."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(parts[1]), name.strip()))
    total, latest = 0, {}
    # lines come in post-order: a module's parent is the next line one level up
    for depth, cumulative, name in reversed(entries):
        parent = latest.get(depth - 1, "")
        latest[depth] = name
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total += cumulative
    return total / 1e6


class TraceSummary:
    """Per-span-name self time, count, errors and attribute sums over jobs."""

    def __init__(self):
        self.self_s = Counter()
        self.count = Counter()
        self.errors = Counter()
        self.attrs = Counter()
        self.import_s = 0.0
        self.scipy_s = 0.0
        self.modules = 0
        self.traced_wall = 0.0
        self.untraced_wall = 0.0
        self.mismatches: list[str] = []

    def add(self, job, record: dict, stderr: str, wall: float) -> None:
        spans = record["spans"]
        child = [0.0] * len(spans)
        for _, _, parent, start, end, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        counts = Counter()
        for i, (_, name, _, start, end, error, attrs) in enumerate(spans):
            self.self_s[name] += end - start - child[i]
            counts[name] += 1
            if error:
                self.errors[name, error] += 1
            for key, value in (attrs or {}).items():
                self.attrs[name, key] += value
        self.count.update(counts)
        self.import_s += record["import_s"]
        self.modules = max(self.modules, record["modules"])
        self.scipy_s += scipy_import_s(stderr)
        self.traced_wall += wall
        expected = jobspec.expected_calls(job)
        for name in sorted((set(expected) | set(counts))
                           - jobspec.DATA_DEPENDENT_CALLS):
            if expected.get(name, 0) != counts[name]:
                self.mismatches.append(f"{job.label}: {name} called {counts[name]} "
                                       f"times, expected {expected.get(name, 0)}")

    def layer_shares(self) -> dict:
        """Share of traced job wall time per layer (self times), plus
        start-up and the time outside any span."""
        layers = defaultdict(float)
        for name, value in self.self_s.items():
            layers[name.split(".")[0]] += value
        layers["startup"] = self.import_s
        layers["outside_spans"] = self.traced_wall - sum(layers.values())
        return {k: round(v / self.traced_wall, 4) for k, v in sorted(layers.items())}

    def metrics(self) -> dict:
        s, n, a = self.self_s, self.count, self.attrs

        def per(total, count, scale):
            return total / count * scale if count else 0.0

        cases = a["banks.run", "cases"]
        return {
            "startup.import_s": self.import_s,
            "startup.scipy_import_s": self.scipy_s,
            "startup.modules": self.modules,
            "cli.self_s": s["cli.main"],
            "grids.csv_write_s": s["grids.csv_write"],
            "grids.csv_write_mb": a["grids.csv_write", "bytes"] / 1e6,
            "grids.csv_read_s": s["grids.csv_read"],
            "grids.csv_read_mb": a["grids.csv_read", "bytes"] / 1e6,
            "grids.quantile_s": s["grids.quantile"],
            "grids.quantile_calls": n["grids.quantile"],
            "pde.linear_step_us": per(s["pde.linear_step"], n["pde.linear_step"], 1e6),
            "pde.linear_steps": n["pde.linear_step"],
            "pde.fd_step_us": per(s["pde.fd_step"] + s["pde.fd_newton_solve"],
                                  n["pde.fd_step"], 1e6),
            "pde.fd_steps": n["pde.fd_step"],
            "pde.fd_newton_iters": n["pde.fd_newton_solve"],
            "pde.solver_errors": self.errors["pde.solve", "SolverError"],
            "pde.stationary_s": s["pde.stationary"],
            "pde.report_s": s["pde.report"],
            "functionals.eval_s": s["functionals.eval"],
            "functionals.evals": n["functionals.eval"],
            "jko.step_ms": per(s["jko.step"], n["jko.step"], 1e3),
            "jko.steps": n["jko.step"],
            "jko.inner_iters": a["jko.trajectory", "inner_iters"],
            "transport.w2_s": s["transport.w2"],
            "transport.w2_calls": n["transport.w2"],
            "finite_flow.integrate_s": s["finite_flow.integrate"],
            "finite_flow.rk4_steps": a["finite_flow.integrate", "rk4_steps"],
            "finite_flow.checks_s": s["finite_flow.check"],
            "finite_flow.csv_s": s["finite_flow.csv"],
            "banks.generate_s": s["banks.generate"],
            "banks.cases": cases,
            # no bank ran: no case failed
            "banks.pass_ratio": a["banks.run", "passed"] / cases if cases else 1.0,
            "inequalities.check_s": s["inequalities.check"],
            "inequalities.oracle_s": s["inequalities.oracle"],
            "trace.overhead_frac": self.traced_wall / self.untraced_wall - 1.0,
            "trace.count_mismatches": len(self.mismatches),
        }


# ------------------------------------------------------------------ the loop

class Run:
    def __init__(self, args, workdir: Path, env: dict, deadline: float):
        self.args = args
        self.workdir = workdir
        self.env = env
        self.deadline = deadline
        self.results = []          # (job, status, wall, rss) of untraced jobs
        self.failures = []         # one line per failed job, traced or not
        self.untraced_failed = 0
        self.attempted = 0
        self.setup_times = []
        self.trace = TraceSummary() if args.trace else None
        self.entry = str(HERE / "traced_entry.py")

    def _job(self, job, index: int, traced: bool):
        jobdir = self.workdir / f"job{index:04d}{'t' if traced else ''}"
        out = jobdir / "out"
        jobdir.mkdir()
        argv = [*job.argv, "--out", str(out)]
        if traced:
            cmd = [sys.executable, "-X", "importtime", self.entry,
                   str(jobdir / "spans.json"), str(index), *argv]
        else:
            cmd = [sys.executable, "-m", "entroflow.cli", *argv]
        timeout = self.deadline - time.perf_counter()
        code, wall, rss = run_process(cmd, jobdir, self.env, timeout)
        stdout, stderr = _read(jobdir / "stdout"), _read(jobdir / "stderr")
        status, reason = jobspec.classify(job, code, stdout, stderr, out)
        self.attempted += 1
        tag = "traced " if traced else ""
        print(f"{tag}{job.label} {status} {wall:.3f}s {reason}", file=sys.stderr)
        problems = [] if status == jobspec.OK else [f"{status}: {reason}"]
        if traced:
            spans_path = jobdir / "spans.json"
            if spans_path.is_file():
                before = len(self.trace.mismatches)
                self.trace.add(job, json.loads(spans_path.read_text()), stderr, wall)
                if len(self.trace.mismatches) > before:
                    problems.append("call counts differ from the argv")
            else:
                problems.append("no spans written")
        elif problems:
            self.untraced_failed += 1
        if problems:
            self.failures.append(f"{tag}{job.label}: " + "; ".join(problems))
        shutil.rmtree(jobdir)
        return status, wall, rss

    def _sample_setup(self, start: float, final: bool = False) -> None:
        """Take the timed fresh imports due by now.  They are due evenly over
        ``--seconds``, the first before any job; those not yet taken when
        the last pass ends are taken then.  A traced run takes none."""
        if self.trace is not None:
            return
        elapsed = (time.perf_counter() - start) / self.args.seconds
        due = SETUP_SAMPLES if final else 1 + int((SETUP_SAMPLES - 1) * elapsed)
        while len(self.setup_times) < min(due, SETUP_SAMPLES):
            self.setup_times.append(time_import(self.workdir, self.env))

    def measure(self, init_csv: Path | None) -> int:
        rng = random.Random(self.args.seed)
        if init_csv is not None:
            jobspec.write_init_csv(init_csv, jobspec.CSV_INIT_NODES, rng)
        min_passes = 1 if self.trace else MIN_PASSES.get(self.args.workload, 1)
        start = time.perf_counter()
        pass_times = []
        index = 0
        while True:
            began = time.perf_counter()
            for job in jobspec.make_pass(self.args.workload, rng, init_csv):
                self._sample_setup(start)
                status, wall, rss = self._job(job, index, traced=False)
                self.results.append((job, status, wall, rss))
                if self.trace is not None:
                    self.trace.untraced_wall += wall
                    self._job(job, index, traced=True)
                index += 1
            pass_times.append(time.perf_counter() - began)
            now = time.perf_counter()
            expected_end = now + statistics.fmean(pass_times)
            if expected_end > self.deadline or (
                    len(pass_times) >= min_passes
                    and expected_end - start > self.args.seconds):
                self._sample_setup(start, final=True)
                return len(pass_times)

    def end_to_end(self) -> tuple[dict, dict]:
        walls = sorted(wall for _, _, wall, _ in self.results)
        work = sum(jobspec.work(job) for job, status, _, _ in self.results
                   if status == jobspec.OK)
        beyond = len(walls) * (100 - TAIL_PERCENTILE) / 100
        if not self.trace and self.args.workload == TAIL_WORKLOAD \
                and beyond < MIN_BEYOND_TAIL:
            self.failures.append(f"only {beyond:g} jobs beyond p{TAIL_PERCENTILE}, "
                                 f"fewer than {MIN_BEYOND_TAIL}")
        metrics = {
            "job_p50_s": quantile(walls, 0.5),
            "job_tail_s": quantile(walls, TAIL_PERCENTILE / 100),
            "node_steps_per_s": work / sum(walls),
            "peak_rss_mb": max(rss for _, _, _, rss in self.results) / 1e6,
            # a traced run times no imports and reports no end-to-end metric
            "setup_s": statistics.median(self.setup_times) if self.setup_times else None,
        }
        info = {"jobs": len(walls), "job_tail_percentile": TAIL_PERCENTILE,
                "jobs_beyond_tail": beyond,
                "work_node_steps": work, "wall_s": sum(walls),
                "failed_frac": self.untraced_failed / len(walls)}
        return metrics, info


def check_declared(metrics: dict, units: dict, declared: list) -> None:
    """The emitted metrics must be exactly those BENCHMARK.json declares for
    this mode, with the same units."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: units[name] for name in metrics}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units_differ = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise BenchError(f"metrics disagree with BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, unit differs {units_differ}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobspec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    deadline = time.perf_counter() + HARD_LIMIT_S
    args = parse_args(argv)
    root = HERE.parent
    src = root / "src"
    if not (src / "entroflow" / "cli.py").is_file():
        print(f"no entroflow sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    workdir = root / ".perfbench_work" / f"run{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = child_env(src)
        versions = probe_versions(workdir, env)
        run = Run(args, workdir, env, deadline)
        csv = workdir / "init_fine.csv" if args.workload == "linear_fine" else None
        passes = run.measure(csv)
        e2e, info = run.end_to_end()
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "passes": passes, **info,
            "setup_times_s": run.setup_times, "machine": platform.platform(),
            "arch": platform.machine(), "nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            **versions, "output_fs": _fs_type(workdir),
        }
        print("run_record " + json.dumps(record, sort_keys=True))
        if args.trace:
            metrics, units = run.trace.metrics(), PER_LAYER_UNITS
            print("layer_shares " + json.dumps(run.trace.layer_shares()))
            for line in run.trace.mismatches:
                print(f"count mismatch: {line}", file=sys.stderr)
            mode = "per_layer"
        else:
            metrics, units, mode = e2e, END_TO_END_UNITS, "end_to_end"
        check_declared(metrics, units, declared[mode])
        for line in run.failures:
            print(f"failed: {line}", file=sys.stderr)
        result = {"correct": not run.failures, "attempted": run.attempted,
                  "failed": len(run.failures),
                  "metrics": {k: {"value": v, "unit": units[k]}
                              for k, v in metrics.items()}}
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
