"""Golden pin: demo.cfg at reduced size against committed reports.

Every scenario of demo.cfg runs through the CLI at N = 64 with 4,000 paths
(per-scenario grid and sample overrides removed).  The reports must match
tests/golden/demo_small.json:

    means, standard errors, z-scores, relative errors, check values and
    targets, gate eigenvalues and spectra    rtol 1e-9
    values that are 0 in exact arithmetic    atol 1e-12
    verdicts, guard states, check outcomes   exactly

Bytes are not compared, because the BLAS thread count can move last bits.
Regenerate the pin (only with a CHANGES.md entry saying why the numbers
moved) from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import re
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "demo_small.json")
DEMO_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demo.cfg")
N_STEPS, N_PATHS = 64, 4000
RTOL, ATOL = 1e-9, 1e-12


def run_demo_small(out_dir: str) -> tuple[int, list[dict]]:
    """Run demo.cfg at N_STEPS and N_PATHS; return the exit code and the reports."""
    from orderone.cli import main

    with open(DEMO_CFG) as fh:
        text = fh.read()
    # grid and sample counts come from the command line alone
    text = re.sub(r"(?m)^\s*(n_steps|samples)\s*=.*$", "", text)
    cfg = os.path.join(out_dir, "demo_small.cfg")
    with open(cfg, "w") as fh:
        fh.write(text)
    code = main(["run", "--config", cfg, "--out", out_dir, "--format", "json",
                 "--grid", str(N_STEPS), "--paths", str(N_PATHS)])
    with open(os.path.join(out_dir, "reports.json")) as fh:
        return code, json.load(fh)


def _close(a, b, zero_target=False) -> bool:
    if a is None or b is None:
        return a is b
    if zero_target:
        return abs(a - b) <= ATOL
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def _compare_numbers(got: dict, want: dict, where: str, failures: list):
    assert set(got) == set(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
    for key, w in want.items():
        g = got[key]
        if isinstance(w, (bool, str)) or w is None or isinstance(w, list):
            ok = g == w
        else:
            ok = _close(g, w)
        if not ok:
            failures.append(f"{where}.{key}: {g!r} != {w!r}")


def compare_reports(got: list[dict], want: list[dict]) -> list[str]:
    """Differences between two report lists under the pin's tolerances."""
    failures = []
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        name = w["name"]
        for key in ("kind", "verdict", "tolerance", "provenance"):
            if g[key] != w[key]:
                failures.append(f"{name}.{key}: {g[key]!r} != {w[key]!r}")
        for key in ("z_score", "rel_error"):
            if not _close(g[key], w[key]):
                failures.append(f"{name}.{key}: {g[key]!r} != {w[key]!r}")
        for side in ("lhs", "rhs"):
            if (g[side] is None) != (w[side] is None):
                failures.append(f"{name}.{side}: presence differs")
            elif w[side] is not None:
                _compare_numbers(g[side], w[side], f"{name}.{side}", failures)
        _compare_numbers(g["gate"], w["gate"], f"{name}.gate", failures)
        _compare_numbers(g["spectra"], w["spectra"], f"{name}.spectra", failures)
        assert set(g["checks"]) == set(w["checks"]), name
        for cname, wc in w["checks"].items():
            gc = g["checks"][cname]
            where = f"{name}.checks.{cname}"
            if gc["pass"] != wc["pass"] or gc["tol"] != wc["tol"]:
                failures.append(f"{where}: pass/tol {gc['pass']}/{gc['tol']} != "
                                f"{wc['pass']}/{wc['tol']}")
            if not _close(gc["target"], wc["target"]):
                failures.append(f"{where}.target: {gc['target']!r} != {wc['target']!r}")
            if not _close(gc["value"], wc["value"], zero_target=wc["target"] == 0.0):
                failures.append(f"{where}.value: {gc['value']!r} != {wc['value']!r}")
    return failures


def test_demo_small_matches_golden_pin(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    code, reports = run_demo_small(str(tmp_path))
    assert code == golden["exit_code"]
    failures = compare_reports(reports, golden["reports"])
    assert not failures, "\n".join(failures)


def test_demo_small_matches_golden_pin_on_one_worker(tmp_path, monkeypatch):
    # every golden estimate is one chunk; the pin holds without the pool too
    from orderone import scenarios

    monkeypatch.setattr(scenarios, "WORKERS", 1)
    test_demo_small_matches_golden_pin(tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        exit_code, result = run_demo_small(tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump({"n_steps": N_STEPS, "n_paths": N_PATHS, "exit_code": exit_code,
                   "reports": result}, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN}: {len(result)} reports, exit code {exit_code}", file=sys.stderr)
