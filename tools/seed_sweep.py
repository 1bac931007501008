#!/usr/bin/env python3
"""Run a config at a range of seeds and print each report's verdict per seed.

    python3 tools/seed_sweep.py demo.cfg --seeds 0-11

Each seed is one `orderone run --config CONFIG --seed S`, written to a
temporary directory.  Prints one line per report and seed: its z, rel_error,
verdict and the z of its control's sample mean against its exact grid mean
(`-` where a value is absent: a CI-less report has no z, an uncontrolled one
no control), then per report the range of z and of rel_error over the seeds,
its largest control z and its count of passes.  Standard library and
`orderone` only; the `src` of this checkout is searched first.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from orderone import cli  # noqa: E402  (after the path)


def _seeds(text: str) -> range:
    """'A-B' (inclusive) or 'A' as a range of seeds."""
    first, _, last = text.partition("-")
    try:
        low, high = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B or A, got {text!r}") from None
    if not 0 <= low <= high:
        raise argparse.ArgumentTypeError(f"expected 0 <= A <= B, got {text!r}")
    return range(low, high + 1)


def run_seed(config: str, seed: int) -> list[dict]:
    """The reports of one run of config at seed."""
    with tempfile.TemporaryDirectory() as out:
        argv = ["run", "--config", config, "--out", out, "--seed", str(seed), "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        path = os.path.join(out, "reports.json")
        if not os.path.isfile(path):
            raise SystemExit(f"seed {seed}: the run wrote no reports (exit code {code})")
        with open(path) as fh:
            return json.load(fh)


def row(report: dict) -> tuple:
    """(z, rel_error, verdict, control z) of one report; None where absent."""
    control = report["checks"].get("control_mean")
    return (report["z_score"], report["rel_error"], report["verdict"],
            control["value"] if control else None)


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.3g}"


def _span(values) -> str:
    values = [v for v in values if v is not None]
    return f"{min(values):.3g}..{max(values):.3g}" if values else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B, inclusive")
    args = parser.parse_args(argv)

    rows = {}  # report name -> [(seed, z, rel_error, verdict, control z)]
    for seed in args.seeds:
        for report in run_seed(args.config, seed):
            rows.setdefault(report["name"], []).append((seed, *row(report)))
    width = max(map(len, rows))
    print(f"{'report':<{width}}  seed  {'z':>8}  {'rel_error':>9}  {'verdict':<8}  control_z")
    for name, lines in rows.items():
        for seed, z, rel, verdict, cz in lines:
            print(f"{name:<{width}}  {seed:>4}  {_fmt(z):>8}  {_fmt(rel):>9}  {verdict:<8}  "
                  f"{_fmt(cz)}")
    print()
    print(f"{'report':<{width}}  {'z':>13}  {'rel_error':>19}  {'max control_z':>13}  passes")
    for name, lines in rows.items():
        _, zs, rels, verdicts, czs = zip(*lines)
        czs = [c for c in czs if c is not None]
        passes = sum(v == "pass" for v in verdicts)
        print(f"{name:<{width}}  {_span(zs):>13}  {_span(rels):>19}  "
              f"{_fmt(max(czs) if czs else None):>13}  {passes}/{len(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
