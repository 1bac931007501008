"""The benchmark's workloads: what one pass verifies and how its inputs are built.

Only standard-library modules are imported at module level, so a fresh
process can import this file before starting the set-up clock; `orderone`
and numpy are imported inside the functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

DEMO_CONFIG = "demo.cfg"  # relative to the checkout root

# (scenarios function, kernel spec, N, d, paths, functional, lambda)
# Functional `one` makes every right-hand side closed form, so the Monte
# Carlo work is the weighted left-hand side alone.
DIRECT = {
    # N = 2048 with few paths: the dense operator layer dominates. The
    # surjective case takes the symmetric eigh/eigvalsh route, the inverse
    # case the LU/solve route, the transf case the gate plus one LU.
    "operator_n2048": (
        ("verify_surjective", "rank1:b=0.2", 2048, 1, 2048, "one", None),
        ("verify_inverse", "rank1:b=0.1", 2048, 1, 2048, "one", None),
        ("verify_transf", "remark_gencv:b1=0.1,b2=0.2", 2048, 1, 2048, "one", None),
    ),
    # fine grids with many paths: the dense per-path functionals and sampling
    # dominate; the d = 2 case covers matrix kernels.
    "mc_fine": (
        ("verify_transf", "rank1:b=0.3", 1024, 1, 60_000, "one", None),
        ("verify_harmonic", "volterra", 1024, 1, 60_000, "one", 1.0),
        ("verify_harmonic", "expdiag:p=[0.5,-0.5]", 512, 2, 60_000, "one", 0.5),
    ),
}
WORKLOADS = ("demo", *DIRECT)


def build_inputs(name: str, root: str, seed: int):
    """Parse and build a workload's inputs: config, grids and kernel specs."""
    from orderone import cli, grid_kernel as gk

    if name == "demo":
        with open(os.path.join(root, DEMO_CONFIG)) as fh:
            config = cli.parse_config(fh.read())
        config.seed = seed
        built = []
        for spec in config.scenarios:
            grid = gk.make_grid(spec.overrides.get("horizon", config.horizon),
                                spec.overrides.get("n_steps", config.n_steps))
            kernel = "remark_gencv:b1=-2,b2=-3" if spec.verify == "gencv" else spec.kernel
            dim = 1 if spec.verify == "gencv" else spec.overrides.get("dim", config.dim)
            built.append(gk.kernel_zoo(kernel, grid, dim))
        return config, built
    return [
        (kind, gk.kernel_zoo(kernel, gk.make_grid(1.0, n), d), n, d, m, f, lam)
        for kind, kernel, n, d, m, f, lam in DIRECT[name]
    ]


def expected_reports(name: str, config) -> int:
    if name == "demo":
        return sum(1 + len(spec.lambdas or ()) for spec in config.scenarios)
    return len(DIRECT[name])


class PassResult:
    """Reports of one pass, its wall time, and what went wrong."""

    def __init__(self, wall_s: float, reports: list[dict], errors: int, exit_ok: bool = True):
        self.wall_s = wall_s
        self.reports = reports
        self.errors = errors  # verifications that raised
        self.exit_ok = exit_ok


def run_pass(name: str, root: str, seed: int, out_dir: str) -> PassResult:
    """One closed pass over the workload's verifications."""
    if name == "demo":
        return _demo_pass(root, seed, out_dir)
    from orderone import scenarios as sc
    from orderone.grid_kernel import make_grid

    reports, errors = [], 0
    t0 = time.perf_counter()
    for kind, kernel, n, d, m, functional, lam in DIRECT[name]:
        kwargs = dict(grid=make_grid(1.0, n), dim=d, n_paths=m, seed=seed)
        try:
            verify = getattr(sc, kind)
            if lam is None:
                report = verify(kernel, functional, **kwargs)
            else:
                report = verify(kernel, lam, None, functional, **kwargs)
            reports.append(report.to_dict())
        except Exception:
            # counted as a missing report; the remaining verifications still run
            traceback.print_exc(file=sys.stderr)
            errors += 1
    return PassResult(time.perf_counter() - t0, reports, errors)


def _demo_pass(root: str, seed: int, out_dir: str) -> PassResult:
    from orderone import cli

    argv = ["run", "--config", os.path.join(root, DEMO_CONFIG), "--out", out_dir,
            "--seed", str(seed)]
    outputs = [os.path.join(out_dir, f) for f in ("reports.json", "summary.csv")]
    for path in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return PassResult(time.perf_counter() - t0, [], 1, exit_ok=False)
    wall = time.perf_counter() - t0
    if not all(os.path.isfile(p) for p in outputs):
        return PassResult(wall, [], 0, exit_ok=False)
    with open(outputs[0]) as fh:
        reports = json.load(fh)
    return PassResult(wall, reports, 0, exit_ok=code == 0)
