"""CLI and configuration: strict parsing, exit-code taxonomy, report files,
and rerun determinism."""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderone import scenarios
from orderone.cli import (
    EXIT_GATE,
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    main,
    parse_config,
)
from orderone.errors import ConfigError, NotContractiveError, SingularOperatorError

MINIMAL = """
[run]
horizon = 1.0
n_steps = 64
samples = 2000
seed = 3

[scenario smoke]
verify = transf
kernel = rank1:b=0.3
functional = cos_end:1.0
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.n_steps == 64 and cfg.samples == 2000 and cfg.seed == 3
    assert len(cfg.scenarios) == 1
    spec = cfg.scenarios[0]
    assert spec.name == "smoke" and spec.verify == "transf"
    assert spec.kernel == "rank1:b=0.3"


def test_parse_rejects_small_grid():
    with pytest.raises(ConfigError, match="n_steps"):
        parse_config(MINIMAL.replace("n_steps = 64", "n_steps = 1"))


def test_parse_rejects_unknown_kernel():
    with pytest.raises(ConfigError, match="kernel"):
        parse_config(MINIMAL.replace("rank1:b=0.3", "frobnicate:q=1"))


def test_parse_rejects_unknown_key():
    bad = MINIMAL + "wibble = 3\n"
    with pytest.raises(ConfigError, match="unknown key 'wibble'"):
        parse_config(bad)
    # a repeated key kept its last value and ran the scenario silently
    with pytest.raises(ConfigError, match=r"line 12: duplicate key 'kernel' \(first on line 10\)"):
        parse_config(MINIMAL + "kernel = rank1:b=0.2\n")


def test_parse_rejects_unknown_run_key():
    bad = MINIMAL.replace("seed = 3", "seed = 3\nthreads = 4")
    with pytest.raises(ConfigError, match="threads"):
        parse_config(bad)


def test_parse_error_carries_line_number():
    bad = "[run]\nhorizon == 1\n"
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(bad)


def test_parse_requires_scenarios():
    with pytest.raises(ConfigError, match="no scenarios"):
        parse_config("[run]\nseed = 1\n")


def test_parse_scenario_needs_verify():
    bad = "[scenario x]\nkernel = zero\n"
    with pytest.raises(ConfigError, match="verify"):
        parse_config(bad)


@pytest.mark.parametrize("kind, key", [
    ("transf", "lambdas = 0.5"), ("transf", "x = 1"), ("transf", "lambda = 2"),
    ("surjective", "x = 1"), ("gencv", "kernel = zero"), ("gencv", "dim = 1"),
    ("integrability", "functional = one"), ("harmonic", "lambdas = 0.5"),
])
def test_parse_rejects_a_key_the_kind_does_not_take(kind, key):
    # such keys used to be parsed and then ignored
    text = f"[scenario s]\nverify = {kind}\n{key}\n"
    with pytest.raises(ConfigError, match=f"line 3: verify = {kind} does not take"):
        parse_config(text)


def test_parse_overrides_and_lists():
    text = MINIMAL + """
[scenario sweep]
verify = surjective
kernel = rank1:b=0.5
lambdas = 0.25, 0.5
samples = 500
n_steps = 32
"""
    cfg = parse_config(text)
    spec = cfg.scenarios[1]
    assert spec.lambdas == [0.25, 0.5]
    assert spec.overrides == {"n_paths": 500, "n_steps": 32}


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------

def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_run_all_pass(tmp_path, capsys):
    cfg = _write_config(tmp_path, MINIMAL)
    out = str(tmp_path / "reports")
    code = main(["run", "--config", cfg, "--out", out])
    assert code == EXIT_PASS
    table = capsys.readouterr().out
    assert "smoke" in table and "pass" in table
    assert os.path.exists(os.path.join(out, "reports.json"))
    assert os.path.exists(os.path.join(out, "summary.csv"))
    data = json.loads(Path(out, "reports.json").read_text())
    assert data[0]["verdict"] == "pass"


def test_run_serializes_every_scenario_family(tmp_path):
    # checks carry values from numpy comparisons; the JSON writer must accept
    # reports from every verify kind
    text = """
[run]
n_steps = 64
samples = 2000
seed = 9

[scenario a]
verify = transf
kernel = rank1:b=0.3

[scenario b]
verify = inverse
kernel = rank1:b=0.3

[scenario c]
verify = surjective
kernel = rank1:b=0.4

[scenario d]
verify = harmonic
kernel = volterra
lambda = 1.0

[scenario e]
verify = cameron_martin
kernel = const:c=1

[scenario f]
verify = gencv

[scenario g]
verify = integrability
kernel = rank1:b=0.4
"""
    cfg = _write_config(tmp_path, text)
    out = str(tmp_path / "all")
    code = main(["run", "--config", cfg, "--out", out])
    data = json.loads(Path(out, "reports.json").read_text())
    assert len(data) == 7
    assert code in (EXIT_PASS, EXIT_NUMERICAL)  # tiny samples may miss 3 sigma
    for entry in data:
        assert entry["verdict"] in ("pass", "fail")


def test_run_gate_rejection_exit_code(tmp_path):
    text = MINIMAL.replace("rank1:b=0.3", "rank1:b=-1")
    cfg = _write_config(tmp_path, text)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == EXIT_GATE


def test_run_numerical_failure_exit_code(tmp_path):
    # a coarse grid has O(step) bias far beyond 3 sigma at this sample size,
    # so a tiny tolerance forces the numerical-failure verdict
    text = """
[run]
n_steps = 8
samples = 50000
seed = 3

[scenario coarse]
verify = transf
kernel = rank1:b=0.9
functional = one
tolerance = 1e-9
"""
    cfg = _write_config(tmp_path, text)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == EXIT_NUMERICAL


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("error, verdict, code", [
    (SingularOperatorError, "singular", EXIT_NUMERICAL),
    (NotContractiveError, "rejected-by-hypothesis", EXIT_GATE),
    (RuntimeError, "error", EXIT_NUMERICAL),
])
def test_run_reports_a_scenario_error_as_its_halt(tmp_path, monkeypatch, command, error,
                                                  verdict, code):
    # run reported a singular operator as a gate rejection (exit 2), with the
    # [run] seed instead of the scenario's own; verify exited 3 on a singular
    # operator and left main as a traceback on any other exception
    def fails(*args, **kwargs):
        raise error("raised inside the scenario")
    monkeypatch.setattr(scenarios, "verify_transf", fails)
    out = tmp_path / "r"
    if command == "run":
        argv = ["run", "--config", _write_config(tmp_path, MINIMAL + "seed = 17\n")]
    else:
        argv = ["verify", "transf", "--kernel", "rank1:b=0.3", "--grid", "64", "--seed", "17"]
    assert main(argv + ["--out", str(out)]) == code
    (report,) = json.loads((out / "reports.json").read_text())
    assert report["verdict"] == verdict and report["kind"] == "transf"
    assert report["provenance"]["seed"] == 17
    assert report["provenance"]["kernel"] == "rank1:b=0.3"
    prefix = "RuntimeError: " if error is RuntimeError else ""
    assert report["gate"]["error"] == prefix + "raised inside the scenario"


def test_run_keeps_the_other_reports_when_a_scenario_raises(tmp_path, monkeypatch, capsys):
    # any other exception lost the reports of every scenario
    def crashes(*args, **kwargs):
        raise RuntimeError("unexpected failure inside the scenario")
    monkeypatch.setattr(scenarios, "verify_transf", crashes)
    text = MINIMAL + """
[scenario after]
verify = integrability
kernel = rank1:b=0.3
"""
    out = tmp_path / "r"
    assert main(["run", "--config", _write_config(tmp_path, text), "--out", str(out)]) \
        == EXIT_NUMERICAL
    first, second = json.loads((out / "reports.json").read_text())
    assert first["name"] == "smoke" and first["verdict"] == "error"
    assert first["gate"]["error"] == "RuntimeError: unexpected failure inside the scenario"
    assert first["provenance"]["seed"] == 3
    assert second["name"] == "after" and second["verdict"] == "pass"
    assert (out / "summary.csv").read_text().count("\n") == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: unexpected failure" in err


def test_gencv_halt_report_records_its_own_kernel(tmp_path, monkeypatch):
    # gencv was validated on the placeholder kernel `zero`, and its halt
    # report recorded that placeholder
    def fails(*args, **kwargs):
        raise RuntimeError("raised inside the scenario")
    monkeypatch.setattr(scenarios, "verify_gencv_example", fails)
    cfg = _write_config(tmp_path, "[run]\nn_steps = 16\n[scenario g]\nverify = gencv\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
    (report,) = json.loads((tmp_path / "reports.json").read_text())
    assert report["verdict"] == "error"
    assert report["provenance"]["kernel"] == "remark_gencv:b1=-2,b2=-3"


BAD_KERNEL_PARAMETERS = ["rank1:b=0.3,n=nan", "rank1:b=0.3,n=inf", "rank1:b=0.3,n=1.5",
                         "rank2:b=0.2,c=0.3,member=inf", "rank2:b=0.2,c=0.3,member=1.9",
                         "expdiag:p=[1e3]", "rank1:b=0.3,b=0.9"]


@pytest.mark.parametrize("kernel", BAD_KERNEL_PARAMETERS)
def test_bad_kernel_parameter_is_a_usage_error(tmp_path, capsys, kernel):
    # n=nan raised ValueError and n=inf OverflowError (a traceback out of
    # spectrum, a crash inside run's validation), n=1.5 and member=1.9 were
    # truncated to 1, p=[1e3] warned on overflow inside np.exp, and a
    # repeated b kept its last value
    assert main(["spectrum", kernel, "--grid", "16"]) == EXIT_USAGE
    cfg = _write_config(tmp_path, MINIMAL.replace("rank1:b=0.3", kernel))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error: ") == 2
    assert not (tmp_path / "r").exists()


def test_run_bad_config_exit_code(tmp_path):
    cfg = _write_config(tmp_path, "[run]\nnope = 1\n")
    assert main(["run", "--config", cfg]) == EXIT_USAGE
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE


def test_run_reruns_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, MINIMAL)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg, "--out", out1]) == EXIT_PASS
    assert main(["run", "--config", cfg, "--out", out2]) == EXIT_PASS
    for fname in ("reports.json", "summary.csv"):
        b1 = Path(out1, fname).read_bytes()
        b2 = Path(out2, fname).read_bytes()
        assert b1 == b2


def test_run_seed_override_changes_reports(tmp_path):
    cfg = _write_config(tmp_path, MINIMAL)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", "--config", cfg, "--out", out1])
    main(["run", "--config", cfg, "--out", out2, "--seed", "99"])
    j1 = json.loads(Path(out1, "reports.json").read_text())
    j2 = json.loads(Path(out2, "reports.json").read_text())
    assert j1[0]["lhs"]["mean"] != j2[0]["lhs"]["mean"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_spectrum_subcommand(capsys):
    assert main(["spectrum", "rank1:b=0.3", "--grid", "128"]) == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    # det2(I + B_kappa) = 1.3 e^{-0.3}
    assert abs(out["det2_log_modulus"] - (np.log(1.3) - 0.3)) <= 1e-10
    assert out["det2_sign"] == 1
    # the eta kernel is rank one with negative eigenvalue: its sup is 0
    assert abs(out["lambda_max"]) <= 1e-12
    assert abs(out["hs_norm"] - 0.3) <= 1e-12


def test_det2_subcommand_gencv(capsys):
    assert main(["det2", "remark_gencv:b1=-2,b2=-3", "--grid", "128"]) == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert abs(out["det2_log_modulus"] - (np.log(2.0) + 5.0)) <= 1e-9
    assert out["det2_sign"] == 1 and not out["singular"]


def test_det2_subcommand_singular(capsys):
    assert main(["det2", "rank1:b=-1", "--grid", "64"]) == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["singular"] and out["det2_sign"] == 0


def test_det2_subcommand_past_the_float_range(capsys):
    # det2 = (1 + b) e^{-b} = -799 e^{800}: the value is null and the log
    # modulus carries it, in strict JSON (no Infinity token), nothing on stderr
    assert main(["det2", "rank1:b=-800", "--grid", "64"]) == EXIT_PASS
    captured = capsys.readouterr()

    def reject(token):
        raise ValueError(f"{token} is not JSON")
    out = json.loads(captured.out, parse_constant=reject)
    assert out["det2_value"] is None and out["det2_sign"] == -1 and not out["singular"]
    assert abs(out["det2_log_modulus"] - (np.log(799.0) + 800.0)) <= 1e-9
    assert captured.err == ""


def test_kappa_hat_subcommand(capsys):
    assert main(["kappa-hat", "rank1:b=0.3", "--grid", "64"]) == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert abs(out["hs_norm"] - 0.3 / 1.3) <= 1e-10
    assert main(["kappa-hat", "rank1:b=-1", "--grid", "64"]) == EXIT_NUMERICAL  # singular


def test_kappa_s_subcommand(capsys):
    assert main(["kappa-s", "rank1:b=0.5", "--grid", "64"]) == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert abs(out["hs_norm"] - (1.0 - np.sqrt(0.5))) <= 1e-10
    assert main(["kappa-s", "rank1:b=1.0", "--grid", "64"]) == EXIT_GATE
    assert main(["kappa-s", "volterra", "--grid", "64"]) == EXIT_USAGE  # not symmetric


def test_verify_subcommand_harmonic(capsys):
    code = main([
        "verify", "harmonic", "--kernel", "volterra", "--lambda", "1",
        "--grid", "256", "--paths", "20000", "--seed", "5",
    ])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "harmonic" in out and "pass" in out


def test_verify_subcommand_finite_dim():
    code = main([
        "verify", "finite-dim", "--diag", "0.2,-0.1",
        "--paths", "50000", "--seed", "3",
    ])
    assert code == EXIT_PASS
    assert main(["verify", "finite-dim"]) == EXIT_USAGE


def test_sweep_subcommand(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    code = main([
        "sweep-laplace", "rank1:b=0.5", "--lambdas", "0.25,0.5",
        "--grid", "64", "--paths", "5000", "--out", out,
    ])
    assert code == EXIT_PASS
    rows = Path(out, "summary.csv").read_text().splitlines()
    assert rows[0].startswith("name,lhs,rhs,se,z,verdict")
    assert len(rows) == 3


@pytest.mark.parametrize("argv", [
    ["verify", "transf", "--kernel", "bogus:z=1", "--paths", "10"],
    ["spectrum"],  # missing argument
    [],
    # list flags used to die with a ValueError traceback (exit 1)
    ["sweep-laplace", "rank1:b=0.5", "--lambdas", "a,b"],
    ["verify", "harmonic", "--kernel", "volterra", "--x", "a"],
    ["verify", "finite-dim", "--diag", "a"],
    ["spectrum", "zero", "--dim", "0"],
], ids=["kernel", "missing", "empty", "lambdas", "x", "diag", "dim"])
def test_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "transf", "--kernel", "rank1:b=0.3", "--grid", "8"],
    ["verify", "finite-dim", "--diag", "0.2,-0.1"],
    ["sweep-laplace", "rank1:b=0.5", "--lambdas", "0.5", "--grid", "8"],
])
@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_tolerance_flag_must_be_positive(argv, tol, capsys):
    # --tol -1 and --tol 0 used to run and pass; config tolerance had to be > 0
    assert main(argv + ["--tol", tol, "--paths", "100"]) == EXIT_USAGE
    assert "tolerance must be a finite real > 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "transf", "--x", "1"], "--x"),
    (["verify", "transf", "--lambda", "2"], "--lambda"),
    (["verify", "gencv", "--kernel", "zero"], "--kernel"),
    (["verify", "gencv", "--dim", "2"], "--dim"),
    (["verify", "integrability", "--functional", "one"], "--functional"),
    (["verify", "transf", "--diag", "1"], "--diag"),
    (["verify", "finite-dim", "--diag", "0.2", "--grid", "8"], "--grid"),
])
def test_flag_the_kind_does_not_take_is_a_usage_error(argv, flag, capsys):
    # these flags used to be ignored without a word
    assert main(argv + ["--paths", "10"]) == EXIT_USAGE
    assert f"does not take {flag}" in capsys.readouterr().err


def test_paths_below_one_is_a_usage_error(tmp_path, capsys):
    # --paths 0 used to divide by zero in the Monte Carlo reducer
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL)
    for argv in (["verify", "transf", "--kernel", "rank1:b=0.3", "--paths", "0"],
                 ["run", "--config", str(cfg), "--out", str(tmp_path), "--paths", "0"],
                 ["sweep-laplace", "rank1:b=0.5", "--lambdas", "0.5", "--paths", "-1"]):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("functional", ["cos_end:nan", "cos_end:inf", "cos_mid:nan,0.5",
                                        "cos_mid:1,nan"])
def test_non_finite_functional_is_a_usage_error(functional, capsys):
    # these used to run to a numerical failure (exit 1) or a ValueError traceback
    argv = ["verify", "transf", "--kernel", "rank1:b=0.3", "--functional", functional,
            "--paths", "200", "--grid", "32"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# one scenario contract: the whole config is validated before any scenario runs
# ---------------------------------------------------------------------------

FIRST = MINIMAL.replace("rank1:b=0.3", "volterra")  # runs at any dim
CONFIG_DEFECTS = {
    "surjective-volterra": "verify = surjective\nkernel = volterra\n",
    "integrability-volterra": "verify = integrability\nkernel = volterra\n",
    "harmonic-x-length": "verify = harmonic\nkernel = volterra\nx = 1,2,3\n",
    "bogus-functional": "verify = transf\nkernel = zero\nfunctional = bogus\n",
    "negative-lambda": "verify = harmonic\nkernel = volterra\nlambda = -1\n",
}


def _record_scenarios(monkeypatch):
    calls = []
    for name in ("verify_transf", "verify_inverse", "verify_surjective", "sweep_laplace",
                 "verify_harmonic", "verify_cameron_martin", "verify_gencv_example",
                 "verify_integrability_bound"):
        def recorded(*args, _name=name, _original=getattr(scenarios, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(scenarios, name, recorded)
    return calls


@pytest.mark.parametrize("second, flags", [
    *[(CONFIG_DEFECTS[k], []) for k in CONFIG_DEFECTS],
    ("verify = transf\nkernel = rank1:b=0.3\n", ["--dim", "2"]),
], ids=[*CONFIG_DEFECTS, "run-dim-2-rank1"])
def test_config_defect_exits_before_any_scenario_runs(tmp_path, monkeypatch, capsys,
                                                      second, flags):
    # each of these used to run the first scenario, then exit 3 without reports
    calls = _record_scenarios(monkeypatch)
    cfg = _write_config(tmp_path, FIRST + "\n[scenario second]\n" + second)
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)] + flags) == EXIT_USAGE
    assert "scenario 'second'" in capsys.readouterr().err
    assert calls == []
    assert not (out / "reports.json").exists()


@pytest.mark.parametrize("kind", ["transf", "inverse", "surjective", "harmonic",
                                  "cameron_martin", "integrability"])
def test_a_scenario_without_its_kernel_is_a_usage_error(tmp_path, monkeypatch, capsys, kind):
    # the kernel defaulted to `zero`, so the zero kernel was verified and passed
    calls = _record_scenarios(monkeypatch)
    cfg = _write_config(tmp_path, MINIMAL.split("[scenario")[0]
                        + f"[scenario forgot]\nverify = {kind}\n")
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert main(["verify", kind, "--grid", "32", "--paths", "2000", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count(f"{kind} needs a kernel") == 2 and "Traceback" not in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("tau", ["7.5", "-0.5"])
def test_cos_mid_outside_the_horizon_is_a_usage_error(tmp_path, capsys, tau):
    # tau was clamped to [0, T]: on T = 1, cos_mid:1,7.5 read W(T) and ran
    argv = ["verify", "transf", "--kernel", "rank1:b=0.3", "--functional", f"cos_mid:1.0,{tau}",
            "--grid", "32", "--out", str(tmp_path / "r")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "outside [0, 1]" in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("n_steps, code", [(64, EXIT_PASS), (2, EXIT_USAGE)])
def test_run_validates_each_scenario_on_its_own_grid(tmp_path, capsys, n_steps, code):
    # the third mode exists from N = 3 on; validation used a 2-step probe grid
    # and rejected this config at any n_steps
    text = MINIMAL.replace("n_steps = 64", f"n_steps = {n_steps}").replace(
        "rank1:b=0.3", "rank1:b=0.3,n=3")
    cfg = _write_config(tmp_path, text)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == code
    if code == EXIT_USAGE:
        assert "count must be in 1..2" in capsys.readouterr().err
    else:
        (report,) = json.loads((tmp_path / "r" / "reports.json").read_text())
        assert report["provenance"]["kernel"] == "rank1:b=0.3,n=3"


def test_run_validates_after_flag_overrides(tmp_path):
    cfg = _write_config(tmp_path, MINIMAL)
    parse_config(MINIMAL)  # valid as written
    for flags in (["--grid", "1"], ["--paths", "0"], ["--horizon", "-1"], ["--dim", "2"]):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")] + flags) == EXIT_USAGE
    assert not (tmp_path / "r").exists()


COMMON_FLAGS = ["--grid", "16", "--paths", "600", "--seed", "3", "--tol", "0.05",
                "--horizon", "1.5"]
COMMON_KEYS = "n_steps = 16\nsamples = 600\nseed = 3\ntolerance = 0.05\nhorizon = 1.5\n"


@pytest.mark.parametrize("kind, flags", [
    ("transf", ["--kernel", "rank1:b=0.3", "--functional", "cos_end:1.0"]),
    ("inverse", ["--kernel", "rank1:b=0.3", "--functional", "cos_end:1.0"]),
    ("surjective", ["--kernel", "rank1:b=0.4", "--functional", "exp_negsq"]),
    ("harmonic", ["--kernel", "expdiag:p=[0.5,-0.5]", "--dim", "2", "--lambda", "0.5",
                  "--x", "1,0", "--functional", "cos_mid:1,0.5"]),
    ("cameron_martin", ["--kernel", "const:c=1"]),
    ("gencv", ["--functional", "cos_end:1.0"]),
    ("integrability", ["--kernel", "rank1:b=0.4"]),
])
def test_verify_and_one_scenario_config_agree(tmp_path, kind, flags):
    # both go through one kind table, with one parser and one default per key
    keys = {"--kernel": "kernel", "--functional": "functional", "--dim": "dim",
            "--lambda": "lambda", "--x": "x"}
    lines = "".join(f"{keys[flag]} = {value}\n" for flag, value in zip(flags[::2], flags[1::2]))
    cfg = _write_config(tmp_path, f"[scenario s]\nverify = {kind}\n{lines}{COMMON_KEYS}")
    main(["verify", kind, *flags, *COMMON_FLAGS, "--out", str(tmp_path / "v")])
    main(["run", "--config", cfg, "--out", str(tmp_path / "c")])
    got = [json.loads((tmp_path / d / "reports.json").read_text()) for d in ("v", "c")]
    for reports in got:
        assert len(reports) == 1 and reports[0]["verdict"] in ("pass", "fail")
        del reports[0]["name"]
    assert got[0] == got[1]


def test_verify_defaults_to_functional_one(tmp_path):
    # verify used cos_end:1.0 for transf, inverse, cameron_martin and gencv
    main(["verify", "gencv", "--grid", "16", "--paths", "200", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "reports.json").read_text())[0]
    assert report["provenance"]["functional"] == "one"


def test_one_sample_side_has_no_confidence_interval(tmp_path):
    # one path gave std_error 0.0 on both sides and a z-score of Infinity,
    # which is not JSON
    main(["verify", "transf", "--kernel", "rank1:b=0.3", "--functional", "cos_end:1.0",
          "--paths", "1", "--grid", "16", "--out", str(tmp_path)])

    def reject(constant):
        raise ValueError(f"reports.json holds {constant}")
    (report,) = json.loads((tmp_path / "reports.json").read_text(), parse_constant=reject)
    for side in ("lhs", "rhs"):
        assert report[side]["std_error"] is None and not report[side]["ci_valid"]
    assert report["z_score"] is None


_SECTIONS = ["[run]", "[scenario a]", "[scenario b]", "[scenario a]", "[scenario]", "[bogus]",
             "[run", "[ scenario c ]"]
_CONFIG_KEYS = ["verify", "kernel", "functional", "tolerance", "lambda", "lambdas", "x", "samples",
         "n_steps", "horizon", "dim", "seed", "out_dir", "format", "wibble", ""]
_VALUES = [
    "transf", "inverse", "surjective", "harmonic", "cameron_martin", "gencv", "integrability",
    "finite-dim", "zero", "volterra", "rank1:b=0.3", "rank1:b=1.5", " rank1 : b = 0.5",
    *BAD_KERNEL_PARAMETERS,
    "rank1:b=0.3,n=2", "rank2:b=0.2,c=0.3", "remark_gencv:b1=-2,b2=-3", "expdiag:p=[0.5,-0.5]",
    "expdiag:p=[", "const:c=1", "const:c=inf", "frobnicate", "rank1:", "one", "cos_end:1.0",
    "cos_mid:1,0.5", "cos_mid:x,0.5", "exp_negsq", "cos_end:nan", "0", "1", "2", "3", "-1",
    "0.5", "1e-9", "nan", "inf", "-inf", "abc", "", "1,0", "1,2,3", "0.25, 0.5", "a,b", ",",
    "json", "csv", "both", "reports",
]
_LINE = st.one_of(
    st.sampled_from(_SECTIONS),
    st.builds(lambda k, v, eq: f"{k} {eq} {v}", st.sampled_from(_CONFIG_KEYS), st.sampled_from(_VALUES),
              st.sampled_from(["=", "=", "=", "==", ":"])),
    st.sampled_from(["# comment", "", "junk"]),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINE, max_size=14))
def test_config_grammar_parses_or_raises_config_error(lines):
    # any text either parses and validates or raises ConfigError, never anything else
    text = "\n".join(lines)
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert config.scenarios
