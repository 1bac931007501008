"""CLI and configuration: strict parsing, exit-code taxonomy, report files,
and rerun determinism."""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderone import grid_kernel, scenarios, stochastic
from orderone.cli import (
    EXIT_GATE,
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    KINDS,
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


@pytest.mark.parametrize("lambdas", ["0.25,,0.5", "0.25, 0.5,", ",0.5", "0.5, ,0.25"])
def test_parse_rejects_an_empty_list_entry(lambdas):
    # empty entries used to be dropped without a word
    text = f"[scenario sweep]\nverify = surjective\nkernel = rank1:b=0.5\nlambdas = {lambdas}\n"
    with pytest.raises(ConfigError, match="line 4: field 'lambdas' has invalid value"):
        parse_config(text)


@pytest.mark.parametrize("line, reason", [
    ("format = xml", "format must be one of json|csv|both"),
    ("lambdas = 0.25,,0.5", "expected comma-separated finite reals, got '0.25,,0.5'"),
    ("samples = 1.5", "invalid literal for int() with base 10: '1.5'"),
])
def test_an_invalid_value_reports_the_parsers_reason(tmp_path, capsys, line, reason):
    # the message used to end at "has invalid value '<text>'"
    section = "[run]\n" if line.startswith("format") else "verify = surjective\n"
    text = MINIMAL.replace("verify = transf\n", "verify = surjective\n")
    text = text.replace(section, section + line + "\n")
    assert main(["run", "--config", _write_config(tmp_path, text),
                 "--out", str(tmp_path / "r")]) == EXIT_USAGE
    key, _, raw = line.partition(" = ")
    assert f"field '{key}' has invalid value '{raw}': {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, reason", [
    (["verify", "transf", "--kernel", "rank1:b=0.3", "--format", "xml"],
     "invalid value 'xml': format must be one of json|csv|both"),
    (["verify", "harmonic", "--kernel", "volterra", "--x", "1,,2"],
     "invalid value '1,,2': expected comma-separated finite reals"),
    (["sweep-laplace", "rank1:b=0.5", "--lambdas", "0.25,,0.5"],
     "invalid value '0.25,,0.5': expected comma-separated finite reals"),
    (["verify", "finite-dim", "--diag", "0.2,"],
     "invalid value '0.2,': expected comma-separated finite reals"),
], ids=["format", "x", "lambdas", "diag"])
def test_an_invalid_flag_reports_the_parsers_reason(argv, reason, capsys):
    # the message used to end at "invalid value '<text>'", as config errors did
    assert main(argv) == EXIT_USAGE
    assert reason in capsys.readouterr().err


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
    monkeypatch.setitem(scenarios._BODIES, "transf", fails)
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
    monkeypatch.setitem(scenarios._BODIES, "transf", crashes)
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


HALT_CONFIG = """
[run]
n_steps = 16
samples = 2000
seed = 4

[scenario sq]
verify = surjective
kernel = rank1:b=0.3
lambdas = 0.25, 0.5

[scenario cm]
verify = cameron_martin
kernel = const:c=1
"""

# the flags of a passing run of each kind (gencv's functional one has a bias
# beyond 3 sigma at N = 16)
HALT_FLAGS = {kind: ["--grid", "16", "--kernel", "rank1:b=0.3"] for kind in
               ("transf", "inverse", "surjective", "harmonic", "integrability")}
HALT_FLAGS.update(cameron_martin=["--grid", "16", "--kernel", "const:c=1"],
                  gencv=["--grid", "16", "--functional", "cos_end:1.0"])
HALT_RUNS = {
    "run": (["run", "--config", "{config}"], 2),
    "sweep-laplace": (["sweep-laplace", "rank1:b=0.5", "--lambdas", "0.25,0.5", "--grid", "16",
                       "--paths", "2000"], 1),
    "verify finite-dim": (["verify", "finite-dim", "--diag", "0.2,-0.1", "--paths", "2000"], 1),
    **{f"verify {kind}": (["verify", kind, "--paths", "2000"] + flags, 1)
       for kind, flags in HALT_FLAGS.items()},
}


@pytest.mark.parametrize("command", HALT_RUNS)
def test_a_raising_scenario_writes_every_report_it_would_have_written(tmp_path, monkeypatch,
                                                                      capsys, command):
    # the halt was the resolver's own report alone: a surjective scenario lost
    # its Laplace rows, sweep-laplace wrote one surjective[...] report in place
    # of its laplace[...] rows, and cameron_martin's lacked its kernel_role
    assert set(HALT_FLAGS) == set(KINDS)
    argv, n_scenarios = HALT_RUNS[command]
    config = tmp_path / "halt.cfg"
    config.write_text(HALT_CONFIG)
    argv = [arg.format(config=config) for arg in argv]

    def written(out):
        return [(r["name"], r["kind"], r["provenance"], r["verdict"], r["gate"])
                for r in json.loads((out / "reports.json").read_text())]
    assert main(argv + ["--out", str(tmp_path / "pass")]) == EXIT_PASS
    passed = written(tmp_path / "pass")
    capsys.readouterr()

    def raises(*args, **kwargs):
        raise RuntimeError("raised inside the scenario")
    monkeypatch.setattr(stochastic, "path_blocks", raises)
    assert main(argv + ["--out", str(tmp_path / "halt")]) == EXIT_NUMERICAL
    halted = written(tmp_path / "halt")
    assert [row[:3] for row in halted] == [row[:3] for row in passed]
    assert all(row[3:] == ("error", {"error": "RuntimeError: raised inside the scenario"})
               for row in halted)
    assert capsys.readouterr().err.count("Traceback (most recent call last)") == n_scenarios
    if command == "run":
        assert [row[0] for row in halted] == [
            "sq", "laplace[rank1:b=0.3, lambda=0.25]", "laplace[rank1:b=0.3, lambda=0.5]", "cm"]
        assert halted[-1][2]["kernel_role"] == "phi"


def test_finite_dim_report_carries_the_common_provenance():
    report = scenarios.resolve_finite_dim(np.diag([0.2, -0.1]), n_samples=500, seed=7).report
    assert report.provenance == {"kernel": "<custom>", "horizon": 2.0, "n_steps": 2, "dim": 1,
                                 "n_paths": 500, "seed": 7, "functional": "cos_end:1"}


def test_gencv_halt_report_records_its_own_kernel(tmp_path, monkeypatch):
    # gencv was validated on the placeholder kernel `zero`, and its halt
    # report recorded that placeholder
    def fails(*args, **kwargs):
        raise RuntimeError("raised inside the scenario")
    monkeypatch.setitem(scenarios._BODIES, "gencv", fails)
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


def test_run_unknown_kind_lists_the_kinds(tmp_path, capsys):
    cfg = _write_config(tmp_path, MINIMAL.replace("verify = transf", "verify = nope"))
    assert main(["run", "--config", cfg]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "verify must be one of" in err
    assert all(kind in err for kind in KINDS)


def test_run_out_under_a_regular_file_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = _write_config(tmp_path, MINIMAL)
    assert main(["run", "--config", cfg, "--out", str(blocker / "reports")]) == EXIT_USAGE
    assert "cannot write reports" in capsys.readouterr().err


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


def test_harmonic_zero_gate_is_written_as_plus_zero(tmp_path, capsys):
    # the gate of -lambda B_c is read from a zero eigenvalue of B_c: it is
    # 0.0, never -0.0, in the report and in the table
    out = str(tmp_path / "harmonic")
    code = main(["verify", "harmonic", "--kernel", "volterra", "--lambda", "1",
                 "--grid", "64", "--paths", "500", "--out", out])
    assert code == EXIT_PASS
    (report,) = json.loads(Path(out, "reports.json").read_text())
    for value in (report["gate"]["lambda_eta"], report["checks"]["lambda_nonpositive"]["value"]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert "-0" not in capsys.readouterr().out.split()


def test_demo_runs_without_scaling_or_adjoining_a_kernel(tmp_path, monkeypatch):
    # every kind of demo.cfg, at a small grid and few paths: no program path
    # builds a scaled or adjoint copy of a kernel
    def refused(*args):
        raise AssertionError("a program path built a scaled or adjoint kernel")
    monkeypatch.setattr(grid_kernel, "scale_kernel", refused)
    monkeypatch.setattr(grid_kernel, "adjoint_kernel", refused)
    demo = (Path(__file__).parents[1] / "demo.cfg").read_text()
    assert {"transf", "inverse", "surjective", "harmonic", "cameron_martin", "gencv",
            "integrability"} <= set(re.findall(r"^verify = (\w+)$", demo, re.M))
    # the [run] values and every scenario's own grid and sample size yield to the flags
    cfg = _write_config(tmp_path, re.sub(r"^(n_steps|samples) = .*$", "", demo, flags=re.M))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "demo"),
                 "--grid", "32", "--paths", "500"])
    assert code == EXIT_PASS


def test_expdiag_dim_must_match_its_rates():
    assert main(["verify", "harmonic", "--kernel", "expdiag:p=[0.5]", "--dim", "2"]) == EXIT_USAGE


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


SWEEP = """
[run]
n_steps = 16
samples = 200

[scenario sweep]
verify = surjective
kernel = rank1:b=0.5
lambdas = 0.5, 0.50
"""


def test_a_repeated_laplace_factor_is_a_usage_error(tmp_path, capsys):
    # both wrote two reports named laplace[rank1:b=0.5, lambda=0.5]
    with pytest.raises(ConfigError, match="first 6 significant digits"):
        parse_config(SWEEP)
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, SWEEP), "--out", str(out)]) == EXIT_USAGE
    assert main(["sweep-laplace", "rank1:b=0.5", "--lambdas", "0.5,0.50", "--grid", "16",
                 "--paths", "200", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err.count("first 6 significant digits") == 2


@pytest.mark.parametrize("argv", [
    ["verify", "transf", "--kernel", "bogus:z=1", "--paths", "10"],
    ["spectrum"],  # missing argument
    [],
    # list flags used to die with a ValueError traceback (exit 1)
    ["sweep-laplace", "rank1:b=0.5", "--lambdas", "a,b"],
    ["verify", "harmonic", "--kernel", "volterra", "--x", "a"],
    ["verify", "finite-dim", "--diag", "a"],
    ["spectrum", "zero", "--dim", "0"],
    # an empty list entry used to be dropped without a word
    ["sweep-laplace", "rank1:b=0.5", "--lambdas", "0.25,,0.5"],
    ["verify", "harmonic", "--kernel", "volterra", "--x", "1,"],
    ["verify", "finite-dim", "--diag", "0.2,"],
], ids=["kernel", "missing", "empty", "lambdas", "x", "diag", "dim", "lambdas-empty-entry",
        "x-empty-entry", "diag-empty-entry"])
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


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, seed):
    # both ran, on the paths of seed mod 2**64, and recorded the seed given
    assert main(["verify", "transf", "--kernel", "rank1:b=0.3", "--grid", "16", "--paths", "100",
                 "--seed", seed]) == EXIT_USAGE
    cfg = _write_config(tmp_path, MINIMAL.replace("seed = 3", f"seed = {seed}"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("seed must be >= 0") == 2 and "Traceback" not in err
    assert not (tmp_path / "r").exists()


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
    # every run, of a config, a flag or a public verify_*, starts at its kind's body
    calls = []
    for name, body in scenarios._BODIES.items():
        def recorded(*args, _name=name, _original=body, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setitem(scenarios._BODIES, name, recorded)
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


PAST_THE_FLOAT_RANGE = """
[run]
n_steps = 64
samples = 2000
seed = 1

[scenario big]
verify = transf
kernel = rank1:b=-800
"""


@pytest.mark.parametrize("chunk_elements", [scenarios.CHUNK_ELEMENTS, 64 * 300],
                         ids=["one_chunk", "seven_chunks"])
def test_past_the_float_range_writes_strict_json(tmp_path, capsys, monkeypatch, chunk_elements):
    # e^q of each path and the right-hand scale e^{||kappa||^2/2} overflow: the
    # report held NaN and Infinity, and numpy warned on stderr, in the pool's
    # threads as in the caller's
    monkeypatch.setattr(scenarios, "CHUNK_ELEMENTS", chunk_elements)
    monkeypatch.setattr(scenarios, "WORKERS", 2)
    cfg = _write_config(tmp_path, PAST_THE_FLOAT_RANGE)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "Warning" not in capsys.readouterr().err

    def reject(constant):
        raise ValueError(f"reports.json holds {constant}")
    (report,) = json.loads((tmp_path / "reports.json").read_text(), parse_constant=reject)
    assert report["verdict"] == "fail"
    assert report["lhs"]["mean"] is None and report["rhs"]["mean"] is None
    assert report["spectra"]["det2_log_modulus"] > 800


@pytest.mark.parametrize("functional", ["exp_negsq:5", "one:3"])
def test_parameter_of_a_parameterless_functional_is_a_usage_error(tmp_path, capsys, functional):
    # both ran as the bare tag, and the provenance dropped the parameter
    assert main(["verify", "transf", "--kernel", "rank1:b=0.3", "--functional", functional,
                 "--paths", "200", "--grid", "32"]) == EXIT_USAGE
    cfg = _write_config(tmp_path, MINIMAL.replace("cos_end:1.0", functional))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("takes no parameter") == 2 and "Traceback" not in err


def test_verify_defaults_to_functional_one(tmp_path):
    # verify used cos_end:1.0 for transf, inverse, cameron_martin and gencv
    main(["verify", "gencv", "--grid", "16", "--paths", "200", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "reports.json").read_text())[0]
    assert report["provenance"]["functional"] == "one"


def test_demo_draws_no_right_hand_side_path(tmp_path, monkeypatch):
    # every right-hand side of demo.cfg is exact and the pathwise checks read
    # the left-hand paths: every path is drawn on the left-hand stream, and
    # each report's rhs carries no error
    text = (Path(__file__).parent.parent / "demo.cfg").read_text()
    cfg = _write_config(tmp_path, re.sub(r"(?m)^\s*(n_steps|samples)\s*=.*$", "", text))
    streams, path_blocks = [], stochastic.path_blocks

    def recorded(*args, **kwargs):
        streams.append(kwargs["stream"])
        return path_blocks(*args, **kwargs)
    monkeypatch.setattr(stochastic, "path_blocks", recorded)
    main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--format", "json",
          "--grid", "32", "--paths", "2000"])
    assert {stream[0] for stream in streams} == {scenarios._STREAM_LHS}
    reports = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert len(reports) == 11
    for report in reports:
        assert report["rhs"]["n_samples"] == 0 and report["rhs"]["std_error"] == 0.0


def _spy_draws(monkeypatch) -> list:
    """Every draw of stochastic.path_blocks, as (N, the paths of each
    component, seed, stream, rows, the paths of each block it gave)."""
    draws, path_blocks = [], stochastic.path_blocks

    def recorded(grid, dim, n_paths, seed, stream=(), rows=None):
        sizes = []
        draws.append((grid.n_steps, tuple(int(n) for n in np.broadcast_to(n_paths, dim)), seed,
                      tuple(stream), rows, sizes))
        for batch in path_blocks(grid, dim, n_paths, seed, stream=stream, rows=rows):
            sizes.append(batch.n_paths)
            yield batch
    monkeypatch.setattr(stochastic, "path_blocks", recorded)
    return draws


def _component_keys(draws) -> list:
    """The generator key (seed, stream, chunk, N, component) of each
    component drawn."""
    return [(seed, *stream, a) for _, counts, seed, stream, _, _ in draws
            for a in range(len(counts))]


def _drawn_increments(draws) -> int:
    return sum(n * sum(counts) for n, counts, *_ in draws)


@pytest.mark.parametrize("path_block", [scenarios.PATH_BLOCK, 64 * 300],
                         ids=["default", "blocks_of_300"])
def test_every_draw_follows_the_block_plan(tmp_path, monkeypatch, path_block):
    # demo.cfg at the golden pin's size: no program path draws a whole batch
    # through sample_paths, every stream is drawn in blocks of
    # max(1, PATH_BLOCK // N) whatever its d, and no key is drawn twice
    monkeypatch.setattr(scenarios, "PATH_BLOCK", path_block)
    text = (Path(__file__).parent.parent / "demo.cfg").read_text()
    cfg = _write_config(tmp_path, re.sub(r"(?m)^\s*(n_steps|samples)\s*=.*$", "", text))
    sampled = []
    monkeypatch.setattr(stochastic, "sample_paths", lambda *args, **kwargs: sampled.append(args))
    draws = _spy_draws(monkeypatch)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--format", "json",
                 "--grid", "64", "--paths", "4000"]) == EXIT_PASS
    assert not sampled
    for n_steps, counts, _, _, rows, sizes in draws:
        assert rows == max(1, path_block // n_steps)
        assert sum(sizes) == counts[0] and all(size <= rows for size in sizes)
    keys = _component_keys(draws)
    assert len(keys) == len(set(keys))
    # every scenario runs at N = 64, and the probes of inverse_rank1 and
    # linear_const read the left-hand paths: one draw, of oscillator_matrix's
    # two components
    assert [(draw[0], draw[1], draw[3][0]) for draw in draws] == [
        (64, (4000, 4000), scenarios._STREAM_LHS)]


def test_demo_draws_each_stream_once(tmp_path, monkeypatch):
    # one stream and one pass per (grid, seed) group: the N = 256 draw holds
    # counterexample's 100,000 paths, oscillator_matrix's second component for
    # 50,000, inverse's Radon-Nikodym mass and its round trip; linear_const
    # draws N = 512, its pathwise check among its paths
    draws, passes, mc_paths = _spy_draws(monkeypatch), [], scenarios._mc_paths

    def counted(key, requests):
        passes.append((key[0].n_steps, key[1]))
        return mc_paths(key, requests)
    monkeypatch.setattr(scenarios, "_mc_paths", counted)
    assert main(["run", "--config", str(Path(__file__).parent.parent / "demo.cfg"),
                 "--seed", "1", "--out", str(tmp_path), "--format", "json"]) == EXIT_PASS
    assert _drawn_increments(draws) == 256 * (100_000 + 50_000) + 512 * 50_000
    keys = _component_keys(draws)
    assert len(keys) == len(set(keys))
    assert passes == [(256, 1), (512, 1)]


def _json_rows(argv, out):
    main(argv + ["--out", str(out), "--format", "json"])
    return [json.dumps(r, sort_keys=True) for r in json.loads((out / "reports.json").read_text())]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("counterexample", ["", "samples = 8000\n"],
                         ids=["equal_paths", "counterexample_2x"])
def test_a_fused_run_writes_what_each_scenario_writes_alone(tmp_path, monkeypatch, workers,
                                                            counterexample):
    # demo.cfg at the golden pin's size (its sample overrides removed, or
    # counterexample's kept at twice the others' paths), so that seven
    # scenarios, oscillator_matrix's d = 2 among them, share the N = 64 stream
    # and linear_const keeps its N = 512; their passes in chunks of 1,000
    # paths in blocks of 300: every report is the one its scenario writes in a
    # config of its own, and no key is drawn twice (the pathwise checks read
    # the left-hand paths)
    monkeypatch.setattr(scenarios, "WORKERS", workers)
    monkeypatch.setattr(scenarios, "CHUNK_ELEMENTS", 64 * 1000)
    monkeypatch.setattr(scenarios, "PATH_BLOCK", 64 * 300)
    text = (Path(__file__).parent.parent / "demo.cfg").read_text()
    text = re.sub(r"(?m)^\s*samples\s*=.*$\n", "", text)
    text = text.replace("verify = gencv\n", "verify = gencv\n" + counterexample)
    head, *sections = re.split(r"(?m)^(?=\[scenario )", text)
    flags = ["--grid", "64", "--paths", "4000"]
    draws = _spy_draws(monkeypatch)
    fused = _json_rows(["run", "--config", _write_config(tmp_path, text)] + flags,
                       tmp_path / "fused")
    keys = _component_keys(draws)
    assert len(keys) == len(set(keys))
    # one left-hand draw per grid, the N = 64 one of two components
    lhs = [draw for draw in draws if draw[3][:2] == (scenarios._STREAM_LHS, 0)]
    assert sorted((draw[0], len(draw[1])) for draw in lhs) == [(64, 2), (512, 1)]
    paths = 8000 if counterexample else 4000
    assert _drawn_increments(draws) == 64 * (paths + 4000) + 512 * 4000
    alone = [row for i, section in enumerate(sections)
             for row in _json_rows(["run", "--config", _write_config(tmp_path, head + section)]
                                   + flags, tmp_path / f"alone{i}")]
    assert len(fused) == 11 and fused == alone


ONE_STREAM = """
[run]
n_steps = 64
samples = 4000
seed = 5

[scenario forward]
verify = transf
kernel = rank1:b=0.3
functional = cos_end:1.0

[scenario oscillator]
verify = harmonic
kernel = volterra
"""


def test_a_raising_reader_of_a_shared_stream_halts_alone(tmp_path, monkeypatch, capsys):
    # forward and oscillator read one pass of one stream; oscillator's exponent
    # raises inside it, and only oscillator halts
    argv = ["run", "--config", _write_config(tmp_path, ONE_STREAM)]
    draws = _spy_draws(monkeypatch)
    forward, oscillator = _json_rows(argv, tmp_path / "pass")
    assert len(_component_keys(draws)) == len(draws) == 1
    capsys.readouterr()

    def raises(*args, **kwargs):
        raise RuntimeError("raised inside h_functionals")
    monkeypatch.setattr(stochastic, "h_functionals", raises)
    assert main(argv + ["--out", str(tmp_path / "halt")]) == EXIT_NUMERICAL
    halted = json.loads((tmp_path / "halt" / "reports.json").read_text())
    assert json.dumps(halted[0], sort_keys=True) == forward
    assert halted[1]["name"] == "oscillator" and halted[1]["verdict"] == "error"
    assert halted[1]["gate"] == {"error": "RuntimeError: raised inside h_functionals"}
    assert json.loads(oscillator)["verdict"] == "pass"
    assert capsys.readouterr().err.count("Traceback (most recent call last)") == 1
    keys = _component_keys(draws)
    assert len(keys) == 2 and keys[0] == keys[1]  # one draw per run


def test_one_sample_side_has_no_confidence_interval(tmp_path):
    # one path gave std_error 0.0 and a z-score of Infinity, which is not
    # JSON; the right-hand side, without an exponent, is exact
    main(["verify", "transf", "--kernel", "rank1:b=0.3", "--functional", "cos_end:1.0",
          "--paths", "1", "--grid", "16", "--out", str(tmp_path)])

    def reject(constant):
        raise ValueError(f"reports.json holds {constant}")
    (report,) = json.loads((tmp_path / "reports.json").read_text(), parse_constant=reject)
    assert report["lhs"]["std_error"] is None and not report["lhs"]["ci_valid"]
    assert report["rhs"]["std_error"] == 0.0 and report["rhs"]["n_samples"] == 0
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
