"""Self-check of the benchmark's failure classifier and metric emission.

    python3 perfbench/selfcheck.py            # about 4 minutes on 2 cores

1. Jobs that fail at this commit must count as failed, each with the
   right class: the fast-diffusion solve at N=8192 (a SolverError, exit 1
   with a traceback), the zugmeyer bank at seed 1 (a HypothesisViolation
   traceback) and ``diagnose`` at a seed whose quartic de Bruijn residual
   exceeds its fixed bound (exit 1, no traceback).
2. A planted wrong oracle value must be caught, while the true one passes.
3. Every workload, untraced and traced, emits exactly the
   metrics BENCHMARK.json declares, with their units, every job passes its
   oracle and no traced call escapes its span.
Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent

KNOWN_FAILURES = [
    (jobs.Job("simulate", {}, ("simulate", "--flow", "fast_diffusion", "--dim", "3",
                               "--N", "8192", "--snapshot-every", "300", "--diagnose"),
              "fd-N8192"), "solver_error"),
    (jobs.Job("check", {}, ("check", "--inequality", "zugmeyer", "--seed", "1"),
              "zugmeyer-seed1"), "crash"),
    (jobs.Job("diagnose", {}, ("diagnose", "--seed", "836310265"),
              "diagnose-seed836310265"), "violated"),
]


def _execute(job, workdir: Path, env: dict):
    jobdir = workdir / job.label
    jobdir.mkdir()
    out = jobdir / "out"
    code, _, _ = run.run_process(
        [sys.executable, "-m", "entroflow.cli", *job.argv, "--out", str(out)],
        jobdir, env, 120)
    return code, run._read(jobdir / "stdout"), run._read(jobdir / "stderr"), out


def check_classifier(workdir: Path, env: dict) -> list[str]:
    problems = []
    for job, expected in KNOWN_FAILURES:
        status, reason = jobs.classify(job, *_execute(job, workdir, env))
        print(f"{job.label}: {status} ({reason})")
        if status != expected:
            problems.append(f"{job.label} classified {status}, expected {expected}")

    rng = random.Random(0)
    w2 = jobs.make_pass("cli_default", rng, None)
    w2 = next(j for j in w2 if j.command == "w2")
    result = _execute(w2, workdir, env)
    exact = jobs.exact_w2_squared(w2.params)
    planted = {"true": (exact, jobs.OK), "1% high": (exact * 1.01 + 1e-3, "wrong")}
    for name, (value, expected) in planted.items():
        status, reason = jobs.classify(
            w2, *result, oracle=lambda j, k, o: jobs._check_w2(j, k, o, exact=value))
        print(f"w2 with {name} closed form: {status} {reason}")
        if status != expected:
            problems.append(f"w2 oracle with {name} value gave {status}")

    fp = jobs._simulate("fokker_planck", rng)
    result = _execute(fp, workdir, env)
    planted = [("the true values", fp.params, jobs.RATE_SLACK, jobs.OK),
               ("half the snapshots", {**fp.params, "snapshot_every": 100},
                jobs.RATE_SLACK, "wrong"),
               ("a rate floor of 3", fp.params, -0.5, "wrong")]
    for name, params, slack, expected in planted:
        status, reason = jobs.classify(
            replace(fp, params=params), *result,
            oracle=lambda j, k, o: jobs._check_simulate(j, k, o, slack=slack))
        print(f"fokker_planck expecting {name}: {status} {reason}")
        if status != expected:
            problems.append(f"simulate oracle expecting {name} gave {status}")
    return problems


def check_metrics() -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in jobs.WORKLOADS:
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in declared[mode]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(got.items())} != "
                                f"declared {sorted(want.items())}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} failed jobs")
            if trace and result["metrics"]["trace.count_mismatches"]["value"]:
                problems.append(f"{tag}: traced call counts differ from the argv")
            print(f"{tag}: {len(got)} metrics, {result['attempted']} jobs, "
                  f"correct={result['correct']}")
    return problems


def main() -> int:
    workdir = ROOT / ".perfbench_work" / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        problems = check_classifier(workdir, run.child_env(ROOT / "src"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    problems += check_metrics()
    for line in problems:
        print(f"SELF-CHECK FAILED: {line}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
