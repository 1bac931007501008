"""Command-line front end.

Subcommands
    run            execute the scenarios of a config file, write JSON/CSV reports
    spectrum       print the spectral summary of a kernel spec
    det2           print the regularized determinant of I + B_kappa
    kappa-hat      spectral summary of the inverse kernel
    kappa-s        spectral summary of the square-root kernel of a symmetric spec
    verify         run one named scenario from flags
    sweep-laplace  surjective identity across a list of lambda factors

Exit codes: 0 all pass, 1 numerical failure (a failed verdict, a singular
operator, or a scenario that raised), 2 hypothesis-gate rejection, 3 usage or
configuration error.  `run`, `verify` and `sweep-laplace` share one runner:
every scenario is checked before the first one runs (a bad one exits 3), and
each writes a report, one that raised included: verdict `singular` for a
singular operator, `rejected-by-hypothesis` for a failed contraction, else
`error`, with the exception in its gate field (and its traceback on stderr).

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
    verify = transf
    kernel = rank1:b=0.3
    functional = cos_end:1.0   # optional, default one
    tolerance = 0.02           # optional
    samples = 50000            # optional per-scenario overrides of [run]
    n_steps = 512

Every kind takes tolerance, samples, n_steps, horizon and seed; beyond those,
the table KINDS says which keys each kind takes, and any other key is fatal:

    transf, inverse, cameron_martin   kernel, functional, dim
    surjective                        kernel, functional, dim, lambdas (a sweep)
    harmonic                          kernel, functional, dim, lambda, x
    gencv                             functional
    integrability                     kernel, dim

A kind that takes a kernel must be given one; gencv has its own default.

`verify KIND` takes the same keys as flags (--tol, --paths, --grid, ...) and
runs through the same table, with one parser and one default per key:
functional is `one` for every kind.  `run` validates the whole config, after
its flag overrides, before the first scenario starts.  `verify finite-dim`
stays outside the table (its --diag and its functional grammar are its own)
but is checked and run by the same runner.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

FORMATS = ("json", "csv", "both")


@dataclass
class ScenarioSpec:
    name: str | None  # None: the scenario's own default name
    verify: str
    kernel: str | None = None  # of a kind that takes a kernel, which must be given
    functional: str = "one"
    tolerance: float = sc.DEFAULT_TOL
    lam: float = 1.0
    lambdas: list[float] | None = None
    x: list[float] | None = None
    overrides: dict = field(default_factory=dict)  # n_paths, n_steps, horizon, dim, seed


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


def _float_list(text: str) -> list[float]:
    """'a, b, ...': a non-empty list of finite reals."""
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values or not np.all(np.isfinite(values)):
        raise ValueError(f"expected comma-separated finite reals, got {text!r}")
    return values


def _format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"format must be one of {'|'.join(FORMATS)}")
    return text


class _Key(NamedTuple):
    parse: Callable  # text -> value, ValueError on a malformed value
    attr: str        # ScenarioSpec field, or key of its overrides
    flag: str        # the flag of verify and sweep-laplace


# Every scenario key: its parser, shared by the config key and the flag, and
# where its value lands.  The ranges (paths >= 1, tolerance > 0, n_steps >= 2,
# ...) are checked once, by the scenarios themselves; see `_jobs`.
_KEYS = {
    "kernel": _Key(str, "kernel", "--kernel"),
    "functional": _Key(str, "functional", "--functional"),
    "tolerance": _Key(float, "tolerance", "--tol"),
    "lambda": _Key(float, "lam", "--lambda"),
    "lambdas": _Key(_float_list, "lambdas", "--lambdas"),
    "x": _Key(_float_list, "x", "--x"),
    "samples": _Key(int, "n_paths", "--paths"),
    "n_steps": _Key(int, "n_steps", "--grid"),
    "horizon": _Key(float, "horizon", "--horizon"),
    "dim": _Key(int, "dim", "--dim"),
    "seed": _Key(int, "seed", "--seed"),
}
_OVERRIDES = ("n_paths", "n_steps", "horizon", "dim", "seed")
_RUN_KEYS = {"horizon": float, "n_steps": int, "dim": int, "samples": int, "seed": int,
             "out_dir": str, "format": _format}


class Kind(NamedTuple):
    keys: tuple[str, ...]  # every config key (verify flag) the kind takes
    run: Callable          # keyword arguments of `_arguments` -> reports


_COMMON = ("tolerance", "samples", "n_steps", "horizon", "seed")
_KERNEL = _COMMON + ("kernel", "functional", "dim")
KINDS = {
    "transf": Kind(_KERNEL, lambda **a: [sc.verify_transf(**a)]),
    "inverse": Kind(_KERNEL, lambda **a: [sc.verify_inverse(**a)]),
    "surjective": Kind(_KERNEL + ("lambdas",), lambda **a: sc.surjective_scenario(**a)),
    "harmonic": Kind(_KERNEL + ("lambda", "x"), lambda **a: [sc.verify_harmonic(**a)]),
    "cameron_martin": Kind(_KERNEL, lambda kernel, **a: [sc.verify_cameron_martin(kernel, **a)]),
    "gencv": Kind(_COMMON + ("functional",), lambda **a: [sc.verify_gencv_example(**a)]),
    "integrability": Kind(_COMMON + ("kernel", "dim"), lambda kernel, **a: [
        sc.verify_integrability_bound(kernel, **a)]),
}
# sweep-laplace: a surjective scenario's Laplace sweep without its own identity
_SWEEP = {"surjective": KINDS["surjective"]._replace(
    run=lambda kernel, lambdas, name, **a: sc.sweep_laplace(kernel, lambdas, **a))}
_FINITE_DIM_KEYS = ("functional", "tolerance", "samples", "seed")


def _assign(spec: ScenarioSpec, key: str, value) -> None:
    attr = _KEYS[key].attr
    if attr in _OVERRIDES:
        spec.overrides[attr] = value
    else:
        setattr(spec, attr, value)


def _parse(parse, key, raw, line_no):
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: field {key!r} has invalid value {raw!r}")


def _read_config(text: str) -> RunConfig:
    """Parse a config without validating it: each value by its key's parser,
    each key checked against its section and its scenario's kind."""
    run, scenarios, entries = None, {}, None  # entries: key -> (value, line) of a section
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {line_no}: unterminated section header {raw_line!r}")
            header = line[1:-1].strip()
            if header == "run":
                if run is not None:
                    raise ConfigError(f"line {line_no}: duplicate [run] section")
                entries = run = {}
            elif header.startswith("scenario"):
                name = header[len("scenario"):].strip()
                if not name:
                    raise ConfigError(f"line {line_no}: scenario section needs a name")
                if name in scenarios:
                    raise ConfigError(f"line {line_no}: duplicate scenario name {name!r}")
                entries = scenarios[name] = {}
            else:
                raise ConfigError(f"line {line_no}: unknown section [{header}]")
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        if entries is None:
            raise ConfigError(f"line {line_no}: key {key!r} outside any section")
        if key in entries:
            raise ConfigError(f"line {line_no}: duplicate key {key!r} (first on line "
                              f"{entries[key][1]})")
        entries[key] = (value, line_no)

    config = RunConfig()
    for key, (value, line_no) in (run or {}).items():
        if key not in _RUN_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r} in [run]")
        setattr(config, key, _parse(_RUN_KEYS[key], key, value, line_no))
    for name, entries in scenarios.items():
        kind, line_no = entries.pop("verify", (None, None))
        if kind is None:
            raise ConfigError(f"scenario {name!r}: missing 'verify' field")
        if kind not in KINDS:
            raise ConfigError(f"line {line_no}: verify must be one of {sorted(KINDS)}")
        spec = ScenarioSpec(name, kind)
        for key, (value, line_no) in entries.items():
            if key not in _KEYS:
                raise ConfigError(f"line {line_no}: unknown key {key!r} in [scenario {name}]")
            if key not in KINDS[kind].keys:
                raise ConfigError(f"line {line_no}: verify = {kind} does not take {key!r}")
            _assign(spec, key, _parse(_KEYS[key].parse, key, value, line_no))
        config.scenarios.append(spec)
    return config


def _arguments(spec: ScenarioSpec, config: RunConfig, keys) -> dict:
    """The keyword arguments of spec's scenario, for its check and its run
    alike: its overrides over the [run] values, and the value of each key
    its kind takes."""
    o = spec.overrides
    a = dict(grid=make_grid(o.get("horizon", config.horizon), o.get("n_steps", config.n_steps)),
             n_paths=o.get("n_paths", config.samples), seed=o.get("seed", config.seed),
             tol=spec.tolerance, name=spec.name)
    if "dim" in keys:
        a["dim"] = o.get("dim", config.dim)
    for key in ("kernel", "functional", "lambda", "x", "lambdas"):
        if key in keys:
            a[_KEYS[key].attr] = getattr(spec, _KEYS[key].attr)
    return a


def _jobs(config: RunConfig, kinds=KINDS) -> list:
    """Every scenario of config as it will run, checked before any runs: the
    run of its kind with its `_arguments`, and the report it halts with.
    `scenarios.resolve_scenario` checks the arguments on the scenario's own
    grid (a kernel's admissible parameters may depend on N), so that no rule
    is written here a second time.  Raises ConfigError."""
    if not config.scenarios:
        raise ConfigError("config defines no scenarios")
    jobs = []
    for spec in config.scenarios:
        kind = kinds[spec.verify]
        try:
            a = _arguments(spec, config, kind.keys)
            halt = sc.resolve_scenario(spec.verify, **a).report
        except InvalidArgumentError as exc:
            raise ConfigError(f"scenario {spec.name!r}: {exc}" if spec.name else str(exc))
        jobs.append((functools.partial(kind.run, **a), halt))
    return jobs


def parse_config(text: str) -> RunConfig:
    """Strict line-based parser; errors carry line numbers and field names.
    The result is validated as it would run without flag overrides."""
    config = _read_config(text)
    _jobs(config)
    return config


def _write_reports(reports, out_dir, fmt) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if fmt in ("json", "both"):
        with open(os.path.join(out_dir, "reports.json"), "w") as fh:
            fh.write(json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2) + "\n")
    if fmt in ("csv", "both"):
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(sc.CSV_HEADER)
            writer.writerows(r.to_csv_row() for r in reports)


def _print_table(reports) -> None:
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
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _halt(report, exc: Exception):
    """report, the one a scenario was checked with, as the report of that
    scenario raising exc: a singular operator and a failed contraction halt
    it as they halt inside it, anything else is an 'error'."""
    if isinstance(exc, (SingularOperatorError, NotContractiveError)):
        report.verdict = ("singular" if isinstance(exc, SingularOperatorError)
                          else "rejected-by-hypothesis")
        report.gate = {"error": str(exc)}
        print(f"scenario {report.name}: {exc}", file=sys.stderr)
    else:
        report.verdict, report.gate = "error", {"error": f"{type(exc).__name__}: {exc}"}
        print(f"scenario {report.name} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    return report


def _run(jobs, out_dir: str | None, fmt: str) -> int:
    """The runner of run, verify and sweep-laplace: each checked job in turn,
    its reports written to out_dir (when given) and printed.  A scenario that
    raises gets its halt report and the next one runs: one scenario's failure
    must not lose the others' reports."""
    reports = []
    for run, halt in jobs:
        try:
            reports.extend(run())
        except Exception as exc:
            reports.append(_halt(halt, exc))
    if out_dir:
        try:
            _write_reports(reports, out_dir, fmt)
        except OSError as exc:
            print(f"error: cannot write reports: {exc}", file=sys.stderr)
            return EXIT_USAGE
    _print_table(reports)
    return _exit_code(reports)


def _exit_code(reports) -> int:
    verdicts = [r.verdict for r in reports]
    if any(v in ("fail", "singular", "error") for v in verdicts):
        return EXIT_NUMERICAL
    if any(v == "rejected-by-hypothesis" for v in verdicts):
        return EXIT_GATE
    return EXIT_PASS


def _flag(parse):
    """A key's parser as an argparse type: a bad value is a usage error."""
    def typed(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}")
    return typed


def _add_flags(parser, keys) -> None:
    for key in keys:
        parser.add_argument(_KEYS[key].flag, dest=key, type=_flag(_KEYS[key].parse),
                            default=None, metavar=key.upper())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderone",
        description="Operator calculus and Monte Carlo verification of "
                    "change-of-variables identities on Wiener space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config file of scenarios")
    p_run.add_argument("--config", required=True)
    _add_flags(p_run, ("seed", "samples", "n_steps", "horizon", "dim"))
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", type=_flag(_format), default=None)

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
    p_verify.add_argument("scenario", choices=sorted(KINDS) + ["finite-dim"])
    _add_flags(p_verify, [key for key in _KEYS if key != "lambdas"])
    p_verify.add_argument("--diag", type=_flag(_float_list), default=None,
                          help="comma-separated diagonal of A for finite-dim")

    p_sweep = sub.add_parser("sweep-laplace", help="Laplace sweep of the surjective identity")
    p_sweep.add_argument("kernel")
    p_sweep.add_argument("--lambdas", type=_flag(_float_list), required=True,
                         help="comma-separated factors")
    _add_flags(p_sweep, ("functional",) + _COMMON + ("dim",))
    p_sweep.set_defaults(scenario="surjective")

    for p in (p_verify, p_sweep):
        p.add_argument("--out", default=None, help="report directory (default: env ORDERONE_OUT)")
        p.add_argument("--format", type=_flag(_format), default="both")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = _read_config(text)
    for attr in ("seed", "samples", "n_steps", "horizon", "dim", "format"):
        if getattr(args, attr) is not None:
            setattr(config, attr, getattr(args, attr))
    jobs = _jobs(config)
    out_dir = args.out or config.out_dir or os.environ.get("ORDERONE_OUT") or "reports"
    return _run(jobs, out_dir, config.format)


_DERIVED = {"spectrum": lambda k: k, "kappa-hat": op.inverse_kernel, "kappa-s": op.kappa_s}


def _cmd_kernel(args) -> int:
    """spectrum, det2, kappa-hat and kappa-s: the spectral summary (or det2)
    of a kernel spec, or of its inverse or square-root kernel."""
    kernel = gk.kernel_zoo(args.kernel, make_grid(args.horizon, args.grid), args.dim)
    if args.command == "det2":
        d2 = op.det2(kernel)
        out = {"det2_sign": d2.sign, "singular": d2.singular,
               "det2_log_modulus": None if d2.singular else d2.log_modulus,
               # past the float range the value is infinite; the log modulus carries it
               "det2_value": d2.value if np.isfinite(d2.value) and not d2.singular else None}
    else:
        try:
            out = op.spectral_summary(_DERIVED[args.command](kernel)).to_dict()
        except (SingularOperatorError, NotContractiveError, PreconditionError) as exc:
            # the codes of `run`: singular is numerical, a kernel kappa-s cannot
            # take (not symmetric) is a bad input, only a failed gate is a gate
            print(f"error: {exc}", file=sys.stderr)
            return {SingularOperatorError: EXIT_NUMERICAL, NotContractiveError: EXIT_GATE,
                    PreconditionError: EXIT_USAGE}[type(exc)]
    print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_PASS


def _spec_from_flags(args, kind: str, keys) -> ScenarioSpec:
    spec = ScenarioSpec(None, kind)
    for key in _KEYS:
        value = getattr(args, key, None)
        if value is not None:
            if key not in keys:
                raise ConfigError(f"{kind} does not take {_KEYS[key].flag}")
            _assign(spec, key, value)
    return spec


def _cmd_verify(args) -> int:
    """verify and sweep-laplace: the one scenario their flags give (of
    sweep-laplace, the surjective kind's sweep alone), checked and run like a
    config scenario of that kind."""
    kind = args.scenario
    config = RunConfig(samples=50_000) if args.command == "sweep-laplace" else RunConfig()
    if kind == "finite-dim":
        spec = _spec_from_flags(args, kind, _FINITE_DIM_KEYS)
        if args.diag is None:
            raise ConfigError("finite-dim needs --diag a,b,...")
        a = dict(matrix=np.diag(args.diag), functional=args.functional or "cos_sum",
                 n_samples=spec.overrides.get("n_paths", config.samples),
                 seed=spec.overrides.get("seed", config.seed), tol=spec.tolerance)
        _, _, halt = sc.resolve_finite_dim(**a)
        jobs = [(lambda: [sc.verify_finite_dim(**a)], halt)]
    elif getattr(args, "diag", None) is not None:
        raise ConfigError(f"{kind} does not take --diag")
    else:
        config.scenarios = [_spec_from_flags(args, kind, KINDS[kind].keys)]
        jobs = _jobs(config, _SWEEP if args.command == "sweep-laplace" else KINDS)
    return _run(jobs, args.out or os.environ.get("ORDERONE_OUT"), args.format)


_COMMANDS = {
    "run": _cmd_run, "spectrum": _cmd_kernel, "det2": _cmd_kernel, "kappa-hat": _cmd_kernel,
    "kappa-s": _cmd_kernel, "verify": _cmd_verify, "sweep-laplace": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
