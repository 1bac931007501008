"""Command-line front end.

Subcommands
    run            execute the scenarios of a config file, write JSON/CSV reports
    spectrum       print the spectral summary of a kernel spec
    det2           print the regularized determinant of I + B_kappa
    kappa-hat      spectral summary of the inverse kernel
    kappa-s        spectral summary of the square-root kernel of a symmetric spec
    verify         run one named scenario from flags
    sweep-laplace  surjective identity across a list of lambda factors

Exit codes: 0 all pass, 1 numerical failure, 2 hypothesis-gate rejection,
3 usage or configuration error.

Config format (strict: unknown keys and sections are fatal, with line numbers):

    # comment
    [run]
    horizon = 1.0
    n_steps = 256
    dim = 1
    samples = 100000
    seed = 42
    out_dir = reports          # optional; env ORDERONE_OUT is the default
    format = both              # json | csv | both

    [scenario transf_rank1]
    verify = transf            # transf | inverse | surjective | harmonic |
                               # cameron_martin | gencv | integrability
    kernel = rank1:b=0.3
    functional = cos_end:1.0   # optional, default one
    tolerance = 0.02           # optional
    lambda = 1.0               # harmonic only
    lambdas = 0.25,0.5,0.75    # surjective sweep (optional)
    x = 1.0,0.0                # harmonic direction (optional)
    samples = 50000            # optional per-scenario overrides
    n_steps = 512
    horizon = 1.0
    dim = 1
    seed = 7
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import grid_kernel as gk
from . import operator as op
from . import scenarios as sc
from .errors import (
    ConfigError,
    InvalidArgumentError,
    NotContractiveError,
    PreconditionError,
    SingularOperatorError,
)
from .grid_kernel import make_grid

EXIT_PASS = 0
EXIT_NUMERICAL = 1
EXIT_GATE = 2
EXIT_USAGE = 3

_RUN_KEYS = {"horizon", "n_steps", "dim", "samples", "seed", "out_dir", "format"}
_SCENARIO_KEYS = {
    "verify", "kernel", "functional", "tolerance", "lambda", "lambdas", "x",
    "samples", "n_steps", "horizon", "dim", "seed",
}
_VERIFY_KINDS = {
    "transf", "inverse", "surjective", "harmonic", "cameron_martin",
    "gencv", "integrability",
}


@dataclass
class ScenarioSpec:
    name: str
    verify: str
    kernel: str = "zero"
    functional: str = "one"
    tolerance: float | None = None
    lam: float = 1.0
    lambdas: list[float] | None = None
    x: list[float] | None = None
    overrides: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    horizon: float = 1.0
    n_steps: int = 256
    dim: int = 1
    samples: int = 100_000
    seed: int = 0
    out_dir: str | None = None
    format: str = "both"
    scenarios: list[ScenarioSpec] = field(default_factory=list)


def _parse_value(key, raw, line_no, cast, positive=False, minimum=None):
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: field {key!r} has invalid value {raw!r}")
    if positive and value <= 0:
        raise ConfigError(f"line {line_no}: field {key!r} must be positive, got {raw}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"line {line_no}: field {key!r} must be >= {minimum}, got {raw}")
    return value


def parse_config(text: str) -> RunConfig:
    """Strict line-based parser; errors carry line numbers and field names."""
    config = RunConfig()
    section = None  # None | "run" | ScenarioSpec
    seen_run = False
    names = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {line_no}: unterminated section header {raw_line!r}")
            header = line[1:-1].strip()
            if header == "run":
                if seen_run:
                    raise ConfigError(f"line {line_no}: duplicate [run] section")
                seen_run = True
                section = "run"
            elif header.startswith("scenario"):
                name = header[len("scenario"):].strip()
                if not name:
                    raise ConfigError(f"line {line_no}: scenario section needs a name")
                if name in names:
                    raise ConfigError(f"line {line_no}: duplicate scenario name {name!r}")
                names.add(name)
                section = ScenarioSpec(name=name, verify="")
                config.scenarios.append(section)
            else:
                raise ConfigError(f"line {line_no}: unknown section [{header}]")
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        if section is None:
            raise ConfigError(f"line {line_no}: key {key!r} outside any section")
        if section == "run":
            if key not in _RUN_KEYS:
                raise ConfigError(f"line {line_no}: unknown key {key!r} in [run]")
            if key == "horizon":
                config.horizon = _parse_value(key, value, line_no, float, positive=True)
            elif key == "n_steps":
                config.n_steps = _parse_value("n_steps", value, line_no, int, minimum=2)
            elif key == "dim":
                config.dim = _parse_value(key, value, line_no, int, minimum=1)
            elif key == "samples":
                config.samples = _parse_value(key, value, line_no, int, minimum=1)
            elif key == "seed":
                config.seed = _parse_value(key, value, line_no, int)
            elif key == "out_dir":
                config.out_dir = value
            elif key == "format":
                if value not in ("json", "csv", "both"):
                    raise ConfigError(f"line {line_no}: format must be json|csv|both")
                config.format = value
        else:
            if key not in _SCENARIO_KEYS:
                raise ConfigError(
                    f"line {line_no}: unknown key {key!r} in [scenario {section.name}]"
                )
            if key == "verify":
                if value not in _VERIFY_KINDS:
                    raise ConfigError(
                        f"line {line_no}: verify must be one of {sorted(_VERIFY_KINDS)}"
                    )
                section.verify = value
            elif key == "kernel":
                section.kernel = value
            elif key == "functional":
                section.functional = value
            elif key == "tolerance":
                section.tolerance = _parse_value(key, value, line_no, float, positive=True)
            elif key == "lambda":
                section.lam = _parse_value(key, value, line_no, float)
            elif key == "lambdas":
                try:
                    section.lambdas = [float(v) for v in value.split(",") if v.strip()]
                except ValueError:
                    raise ConfigError(f"line {line_no}: field 'lambdas' has invalid value")
            elif key == "x":
                try:
                    section.x = [float(v) for v in value.split(",") if v.strip()]
                except ValueError:
                    raise ConfigError(f"line {line_no}: field 'x' has invalid value")
            elif key == "samples":
                section.overrides["n_paths"] = _parse_value(key, value, line_no, int, minimum=1)
            elif key == "n_steps":
                section.overrides["n_steps"] = _parse_value("n_steps", value, line_no, int, minimum=2)
            elif key == "horizon":
                section.overrides["horizon"] = _parse_value(key, value, line_no, float, positive=True)
            elif key == "dim":
                section.overrides["dim"] = _parse_value(key, value, line_no, int, minimum=1)
            elif key == "seed":
                section.overrides["seed"] = _parse_value(key, value, line_no, int)

    for spec in config.scenarios:
        if not spec.verify:
            raise ConfigError(f"scenario {spec.name!r}: missing 'verify' field")
        # fail early on kernel-spec typos, citing the grammar
        probe_grid = make_grid(
            spec.overrides.get("horizon", config.horizon), 2
        )
        if spec.verify != "gencv":
            try:
                gk.kernel_zoo(spec.kernel, probe_grid, spec.overrides.get("dim", config.dim))
            except InvalidArgumentError as exc:
                raise ConfigError(f"scenario {spec.name!r}: bad kernel spec: {exc}")
    if not config.scenarios:
        raise ConfigError("config defines no scenarios")
    return config


def _run_scenario(spec: ScenarioSpec, config: RunConfig) -> list[sc.ScenarioReport]:
    horizon = spec.overrides.get("horizon", config.horizon)
    n_steps = spec.overrides.get("n_steps", config.n_steps)
    dim = spec.overrides.get("dim", config.dim)
    n_paths = spec.overrides.get("n_paths", config.samples)
    seed = spec.overrides.get("seed", config.seed)
    tol = spec.tolerance if spec.tolerance is not None else sc.DEFAULT_TOL
    grid = make_grid(horizon, n_steps)
    kwargs = dict(grid=grid, dim=dim, n_paths=n_paths, seed=seed, tol=tol, name=spec.name)

    if spec.verify == "transf":
        return [sc.verify_transf(spec.kernel, spec.functional, **kwargs)]
    if spec.verify == "inverse":
        return [sc.verify_inverse(spec.kernel, spec.functional, **kwargs)]
    if spec.verify == "surjective":
        reports = [sc.verify_surjective(spec.kernel, spec.functional, **kwargs)]
        if spec.lambdas:
            reports.extend(
                sc.sweep_laplace(spec.kernel, spec.lambdas, spec.functional,
                                 grid=grid, dim=dim, n_paths=n_paths, seed=seed, tol=tol)
            )
        return reports
    if spec.verify == "harmonic":
        return [sc.verify_harmonic(spec.kernel, spec.lam, spec.x, spec.functional, **kwargs)]
    if spec.verify == "cameron_martin":
        return [sc.verify_cameron_martin(spec.kernel, spec.functional, **kwargs)]
    if spec.verify == "gencv":
        kwargs.pop("dim")
        return [sc.verify_gencv_example(functional=spec.functional, **kwargs)]
    if spec.verify == "integrability":
        kwargs.pop("name")
        return [sc.verify_integrability_bound(spec.kernel, name=spec.name, **kwargs)]
    raise ConfigError(f"unknown verify kind {spec.verify!r}")


def _reports_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n"


def _reports_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(sc.CSV_HEADER)
    for r in reports:
        writer.writerow(r.to_csv_row())
    return buf.getvalue()


def _write_reports(reports, out_dir, fmt) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if fmt in ("json", "both"):
        with open(os.path.join(out_dir, "reports.json"), "w") as fh:
            fh.write(_reports_json(reports))
    if fmt in ("csv", "both"):
        with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
            fh.write(_reports_csv(reports))


def _print_table(reports, file=None) -> None:
    file = file if file is not None else sys.stdout
    rows = [("scenario", "lambda_eta", "det2_log", "z", "rel_err", "verdict")]
    for r in reports:
        lam = r.gate.get("lambda_eta")
        rows.append((
            r.name,
            "" if lam is None else f"{lam:.6g}",
            "" if r.spectra.get("det2_log_modulus") is None else f"{r.spectra['det2_log_modulus']:.6g}",
            "" if r.z_score is None else f"{r.z_score:.3f}",
            "" if r.rel_error is None else f"{r.rel_error:.3e}",
            r.verdict,
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)), file=file)


def _exit_code(reports) -> int:
    verdicts = [r.verdict for r in reports]
    if any(v in ("fail", "singular") for v in verdicts):
        return EXIT_NUMERICAL
    if any(v == "rejected-by-hypothesis" for v in verdicts):
        return EXIT_GATE
    return EXIT_PASS


def _grid_from_args(args):
    return make_grid(args.horizon, args.grid)


def _path_count(text: str) -> int:
    """--paths: an integer >= 1, the minimum the config parser applies to samples."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_grid_flags(parser, samples_default=100_000):
    parser.add_argument("--grid", type=int, default=256, metavar="N", help="time steps")
    parser.add_argument("--horizon", type=float, default=1.0, metavar="T")
    parser.add_argument("--dim", type=int, default=1, metavar="D")
    parser.add_argument("--paths", type=_path_count, default=samples_default, metavar="M")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=sc.DEFAULT_TOL)
    parser.add_argument("--out", default=None, help="report directory (default: env ORDERONE_OUT)")
    parser.add_argument("--format", choices=("json", "csv", "both"), default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderone",
        description="Operator calculus and Monte Carlo verification of "
                    "change-of-variables identities on Wiener space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file of scenarios")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--paths", type=_path_count, default=None)
    p_run.add_argument("--grid", type=int, default=None)
    p_run.add_argument("--horizon", type=float, default=None)
    p_run.add_argument("--dim", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("json", "csv", "both"), default=None)

    for cmd, hint in (
        ("spectrum", "spectral summary of a kernel"),
        ("det2", "regularized determinant of I + B_kappa"),
        ("kappa-hat", "spectral summary of the inverse kernel"),
        ("kappa-s", "spectral summary of the square-root kernel"),
    ):
        p = sub.add_parser(cmd, help=hint)
        p.add_argument("kernel", help="kernel spec, e.g. rank1:b=0.3")
        p.add_argument("--grid", type=int, default=256)
        p.add_argument("--horizon", type=float, default=1.0)
        p.add_argument("--dim", type=int, default=1)

    p_verify = sub.add_parser("verify", help="run one scenario from flags")
    p_verify.add_argument(
        "scenario", choices=sorted(_VERIFY_KINDS | {"finite-dim"}),
    )
    p_verify.add_argument("--kernel", default="zero")
    p_verify.add_argument("--functional", default=None)
    p_verify.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_verify.add_argument("--x", default=None, help="comma-separated direction for harmonic")
    p_verify.add_argument("--diag", default=None,
                          help="comma-separated diagonal of A for finite-dim")
    _add_grid_flags(p_verify)

    p_sweep = sub.add_parser("sweep-laplace", help="Laplace sweep of the surjective identity")
    p_sweep.add_argument("kernel")
    p_sweep.add_argument("--lambdas", required=True, help="comma-separated factors")
    p_sweep.add_argument("--functional", default="one")
    _add_grid_flags(p_sweep, samples_default=50_000)

    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for flag, attr in (("seed", "seed"), ("paths", "samples"), ("grid", "n_steps"),
                       ("horizon", "horizon"), ("dim", "dim"), ("format", "format")):
        value = getattr(args, flag)
        if value is not None:
            setattr(config, attr, value)
    out_dir = args.out or config.out_dir or os.environ.get("ORDERONE_OUT") or "reports"

    reports = []
    for spec in config.scenarios:
        try:
            reports.extend(_run_scenario(spec, config))
        except (SingularOperatorError, NotContractiveError) as exc:
            print(f"scenario {spec.name}: {exc}", file=sys.stderr)
            reports.append(sc.ScenarioReport(
                spec.name, spec.verify, None, None, None, None,
                spec.tolerance or sc.DEFAULT_TOL, "rejected-by-hypothesis",
                {"error": str(exc)}, {}, {}, {"kernel": spec.kernel, "seed": config.seed},
            ))
    try:
        _write_reports(reports, out_dir, config.format)
    except OSError as exc:
        print(f"error: cannot write reports: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _print_table(reports)
    return _exit_code(reports)


def _kernel_for_args(args):
    grid = _grid_from_args(args)
    return gk.kernel_zoo(args.kernel, grid, args.dim)


def _print_summary(summary: op.SpectralSummary) -> None:
    print(json.dumps(summary.to_dict(), sort_keys=True, indent=2))


def _cmd_spectrum(args) -> int:
    _print_summary(op.spectral_summary(_kernel_for_args(args)))
    return EXIT_PASS


def _cmd_det2(args) -> int:
    d2 = op.det2(op.assemble(_kernel_for_args(args)))
    out = {"det2_sign": d2.sign, "singular": d2.singular,
           "det2_log_modulus": None if d2.singular else d2.log_modulus,
           "det2_value": None if d2.singular else d2.value}
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_PASS


def _cmd_kappa_hat(args) -> int:
    kappa = _kernel_for_args(args)
    try:
        _print_summary(op.spectral_summary(op.inverse_kernel(kappa)))
    except SingularOperatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_PASS


def _cmd_kappa_s(args) -> int:
    eta = _kernel_for_args(args)
    try:
        _print_summary(op.spectral_summary(op.kappa_s(eta)))
    except (NotContractiveError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    return EXIT_PASS


def _cmd_verify(args) -> int:
    grid = _grid_from_args(args)
    common = dict(grid=grid, dim=args.dim, n_paths=args.paths, seed=args.seed, tol=args.tol)
    functional = args.functional
    kind = args.scenario
    try:
        if kind == "finite-dim":
            if not args.diag:
                print("error: finite-dim needs --diag a,b,...", file=sys.stderr)
                return EXIT_USAGE
            a = np.diag([float(v) for v in args.diag.split(",")])
            report = sc.verify_finite_dim(a, functional or "cos_sum",
                                          n_samples=args.paths, seed=args.seed, tol=args.tol)
        elif kind == "transf":
            report = sc.verify_transf(args.kernel, functional or "cos_end:1.0", **common)
        elif kind == "inverse":
            report = sc.verify_inverse(args.kernel, functional or "cos_end:1.0", **common)
        elif kind == "surjective":
            report = sc.verify_surjective(args.kernel, functional or "one", **common)
        elif kind == "harmonic":
            x = [float(v) for v in args.x.split(",")] if args.x else None
            report = sc.verify_harmonic(args.kernel, args.lam, x, functional or "one", **common)
        elif kind == "cameron_martin":
            report = sc.verify_cameron_martin(args.kernel, functional or "cos_end:1.0", **common)
        elif kind == "gencv":
            common.pop("dim")
            report = sc.verify_gencv_example(functional=functional or "cos_end:1.0", **common)
        elif kind == "integrability":
            report = sc.verify_integrability_bound(args.kernel, **common)
        else:  # pragma: no cover
            return EXIT_USAGE
    except (InvalidArgumentError, NotContractiveError, SingularOperatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    reports = [report]
    if args.out or os.environ.get("ORDERONE_OUT"):
        _write_reports(reports, args.out or os.environ.get("ORDERONE_OUT"), args.format)
    _print_table(reports)
    return _exit_code(reports)


def _cmd_sweep(args) -> int:
    grid = _grid_from_args(args)
    try:
        lambdas = [float(v) for v in args.lambdas.split(",") if v.strip()]
        reports = sc.sweep_laplace(args.kernel, lambdas, args.functional,
                                   grid=grid, dim=args.dim, n_paths=args.paths,
                                   seed=args.seed, tol=args.tol)
    except (InvalidArgumentError, NotContractiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out or os.environ.get("ORDERONE_OUT"):
        _write_reports(reports, args.out or os.environ.get("ORDERONE_OUT"), args.format)
    _print_table(reports)
    return _exit_code(reports)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "det2":
            return _cmd_det2(args)
        if args.command == "kappa-hat":
            return _cmd_kappa_hat(args)
        if args.command == "kappa-s":
            return _cmd_kappa_s(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep-laplace":
            return _cmd_sweep(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
