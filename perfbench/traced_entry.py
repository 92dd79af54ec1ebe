"""Run ``entroflow.cli.main(argv)`` with a span around each layer call.

Usage: python -X importtime traced_entry.py SPANS_OUT JOB_ID CLI_ARGS...

The entry times the ``entroflow.cli`` import, counts the modules it loads,
then replaces the functions listed in ``WRAPS`` in every ``entroflow``
module namespace that binds them, so a call is timed wherever it is looked
up.  Spans stay in memory and are written as JSON to SPANS_OUT when the
command ends, also when it raises; the exception then propagates exactly as
under ``python -m entroflow.cli``.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, attribute, span name, attributes hook).  The span name of a
# banded solve depends on its caller: a linear PDE step when called from
# pde.solve, one Newton iteration when called from a fast-diffusion step.
WRAPS = [
    ("entroflow.cli", "main", "cli.main", None),
    ("entroflow.grids", "write_density_csv", "grids.csv_write",
     lambda args, kwargs, result: {"bytes": os.path.getsize(args[1])}),
    ("entroflow.grids", "read_density_csv", "grids.csv_read",
     lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])}),
    ("entroflow.grids", "cdf_and_quantile", "grids.quantile", None),
    ("entroflow.grids", "density_from_quantile", "grids.quantile", None),
    ("entroflow.pde", "solve", "pde.solve", None),
    ("entroflow.pde", "_fd_newton_step", "pde.fd_step", None),
    ("entroflow.pde", "solve_banded",
     {"pde.solve": "pde.linear_step", "pde.fd_step": "pde.fd_newton_solve"}, None),
    ("entroflow.pde", "stationary_fd", "pde.stationary", None),
    ("entroflow.pde", "dissipation_report", "pde.report", None),
    ("entroflow.pde", "write_report_csv", "pde.report", None),
    ("entroflow.functionals", "FreeEnergy.value", "functionals.eval", None),
    ("entroflow.functionals", "FreeEnergy.production", "functionals.eval", None),
    ("entroflow.jko", "jko_trajectory", "jko.trajectory",
     lambda args, kwargs, result: {"inner_iters": sum(
         row["inner_iters"] for row in result.metadata["steps"])}),
    ("entroflow.jko", "_jko_step_quantiles", "jko.step", None),
    ("entroflow.jko", "write_step_log_csv", "jko.csv", None),
    ("entroflow.transport", "w2_1d", "transport.w2", None),
    ("entroflow.finite_flow", "integrate_flow", "finite_flow.integrate",
     lambda args, kwargs, result: {"rk4_steps": len(result.times) - 1}),
    ("entroflow.finite_flow", "de_bruijn_residual", "finite_flow.check", None),
    ("entroflow.finite_flow", "production_decay_check", "finite_flow.check", None),
    ("entroflow.finite_flow", "entropy_decay_check", "finite_flow.check", None),
    ("entroflow.finite_flow", "eep_inequality_check", "finite_flow.check", None),
    ("entroflow.finite_flow", "write_trajectory_csv", "finite_flow.csv", None),
    ("entroflow.banks", "run_inequality_bank", "banks.run",
     lambda args, kwargs, result: {"cases": len(result),
                                   "passed": sum(row.passed for row in result)}),
    *[("entroflow.banks", f"{name}_bank", "banks.generate", None)
      for name in ("lsi", "sobolev", "eep_fp", "eep_fd", "zugmeyer")],
    *[("entroflow.inequalities", name, "inequalities.check", None)
      for name in ("lsi_check", "sobolev_check", "eep_check_fp", "eep_check_fd",
                   "zugmeyer_check")],
    ("entroflow.inequalities", "sobolev_optimal_constant", "inequalities.oracle",
     None),
]


class Tracer:
    """Spans as ``[name, parent, start, end, error, attrs]``, parent an index."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name if isinstance(name, str) else name.get(
                spans[parent][0] if stack else "", "other.banded")
            span = [label, parent, clock(), 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[4] = type(err).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "entroflow" or n.startswith("entroflow.")]
        for module_name, attr, name, hook in WRAPS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method, wrapped on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, hook))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, name, hook)
            # solve_banded is scipy's: time it only where pde looks it up
            targets = [owner] if not isinstance(name, str) else modules
            for module in targets:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self, path: str, **header) -> None:
        record = {"job": self.job_id, **header,
                  "spans": [[self.job_id, *span] for span in self.spans]}
        with open(path, "w") as fh:
            json.dump(record, fh)


def main() -> None:
    spans_out, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(job_id)
    before = len(sys.modules)
    start = time.perf_counter()
    import entroflow.cli
    import_s = time.perf_counter() - start
    modules = len(sys.modules) - before
    tracer.install()
    code = 1
    try:
        code = entroflow.cli.main(argv)
    finally:
        tracer.dump(spans_out, import_s=import_s, modules=modules, exit_code=code)
    sys.exit(code)


if __name__ == "__main__":
    main()
