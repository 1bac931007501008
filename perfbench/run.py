"""Benchmark of the orderone verifier: end-to-end metrics, or a traced run.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. One run sets the workload up several times
in fresh processes (`setup_s`), warms up at a tiny size, then repeats closed
passes over the workload's verifications, one after another in this process,
until `--seconds` have passed. With `--trace 1` the set-up is skipped,
untraced and traced passes alternate, and the per-layer metrics come from the
traced ones. The last line of standard output is one JSON object: correct,
attempted, failed, metrics. The line before it records the environment and
the output check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 6  # fresh processes per run, after one discarded warm start

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402  (standard library only at import time)

_SETUP_CHILD = """
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
t0 = time.perf_counter()
import orderone
workloads.build_inputs({name!r}, {root!r}, {seed!r})
print(repr(time.perf_counter() - t0))
"""


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up time in fresh processes, from just before `import orderone`."""
    code = _SETUP_CHILD.format(bench=BENCH_DIR, src=SRC, name=name, root=ROOT, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=ROOT, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def warm_up(name: str) -> None:
    """Load lazy imports and start BLAS threads on a tiny grid; not timed."""
    from orderone import scenarios as sc
    from orderone.grid_kernel import make_grid

    grid = make_grid(1.0, 16)
    sc.verify_transf("rank1:b=0.3", "cos_end:1.0", grid=grid, n_paths=256)
    sc.verify_inverse("rank1:b=0.3", "cos_end:1.0", grid=grid, n_paths=256)
    sc.verify_surjective("rank1:b=0.3", "cos_end:1.0", grid=grid, n_paths=256)
    sc.verify_harmonic("expdiag:p=[0.5,-0.5]", 0.5, grid=grid, dim=2, n_paths=256)
    if name == "demo":
        sc.verify_cameron_martin("const:c=1", grid=grid, n_paths=256)
        sc.verify_gencv_example(grid=grid, n_paths=256)
        sc.verify_integrability_bound("rank1:b=0.5", grid=grid, n_paths=256)


def fingerprint(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:  # the ceiling keeps git from reporting a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "orderone")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "default"),
        "seed": seed,
        "git_commit": commit or "unavailable (not a git checkout)",
        "source_sha256": digest.hexdigest(),
    }


def reports_digest(reports: list[dict]) -> str:
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()[:16]


def relative_se(reports: list[dict]) -> float:
    """Geometric mean of combined_se / |rhs mean| over reports carrying errors."""
    logs = []
    for r in reports:
        lhs, rhs = r.get("lhs"), r.get("rhs")
        if not lhs or not rhs or lhs["std_error"] is None or rhs["std_error"] is None:
            continue
        se = math.hypot(lhs["std_error"], rhs["std_error"])
        if se > 0 and rhs["mean"] != 0:
            logs.append(math.log(se / abs(rhs["mean"])))
    return math.exp(statistics.fmean(logs)) if logs else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orderone", "__init__.py")):
        print(f"error: no orderone sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    import spans
    from orderone import cli

    config = None
    if args.workload == "demo":
        with open(os.path.join(ROOT, workloads.DEMO_CONFIG)) as fh:
            config = cli.parse_config(fh.read())
    expected = workloads.expected_reports(args.workload, config)
    warm_up(args.workload)

    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=scratch_root)
    plain, traced, layers = [], [], []
    try:
        start = time.perf_counter()
        # with --trace 1, untraced and traced passes alternate, one of each at least
        while (not plain or (args.trace and not traced)
               or time.perf_counter() - start < args.seconds):
            if args.trace and len(traced) < len(plain):
                tracer = spans.Tracer()
                with spans.traced(tracer):
                    traced.append(workloads.run_pass(args.workload, ROOT, args.seed, out_dir))
                layers.append(spans.layer_metrics(tracer))
            else:
                plain.append(workloads.run_pass(args.workload, ROOT, args.seed, out_dir))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch_root)  # only when empty

    passes = plain + traced
    attempted = expected * len(passes)
    passed = sum(min(expected, sum(r["verdict"] == "pass" for r in p.reports)) for p in passes)
    failed = attempted - passed
    correct = failed == 0 and all(p.exit_ok for p in passes)
    digests = sorted({reports_digest(p.reports) for p in passes})
    wall = statistics.median(p.wall_s for p in plain)

    if args.trace:
        metrics = {key: (statistics.median(m[key] for m in layers), spans.unit_of(key))
                   for key in layers[0]}
        metrics["trace.overhead"] = (
            statistics.median(p.wall_s for p in traced) / wall - 1.0, "ratio")
        metrics["check.distinct_digests"] = (len(digests), "count")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "wnerr": (relative_se(next((p.reports for p in plain if p.reports), []))
                      * math.sqrt(wall), "sqrt_s"),
            "pass_frac": (passed / attempted, "ratio"),
        }

    print(json.dumps({
        "workload": args.workload,
        "env": fingerprint(args.seed),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "wall_s_per_pass": [p.wall_s for p in plain],
        "traced_wall_s_per_pass": [p.wall_s for p in traced],
        "setup_s_per_process": setup,
        "check": {"expected_reports_per_pass": expected, "verifications_raised":
                  sum(p.errors for p in passes), "exit_ok": all(p.exit_ok for p in passes),
                  "report_digests": digests, "distinct_digests": len(digests)},
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
