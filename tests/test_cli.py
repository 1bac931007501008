"""CLI and configuration: strict parsing, exit-code taxonomy, report files,
and rerun determinism."""

import json
import os

import numpy as np
import pytest

from orderone.cli import (
    EXIT_GATE,
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    main,
    parse_config,
)
from orderone.errors import ConfigError

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
    data = json.loads(open(os.path.join(out, "reports.json")).read())
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
    data = json.loads(open(os.path.join(out, "reports.json")).read())
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
        b1 = open(os.path.join(out1, fname), "rb").read()
        b2 = open(os.path.join(out2, fname), "rb").read()
        assert b1 == b2


def test_run_seed_override_changes_reports(tmp_path):
    cfg = _write_config(tmp_path, MINIMAL)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["run", "--config", cfg, "--out", out1])
    main(["run", "--config", cfg, "--out", out2, "--seed", "99"])
    j1 = json.loads(open(os.path.join(out1, "reports.json")).read())
    j2 = json.loads(open(os.path.join(out2, "reports.json")).read())
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


def test_kappa_hat_subcommand(capsys):
    assert main(["kappa-hat", "rank1:b=0.3", "--grid", "64"]) == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert abs(out["hs_norm"] - 0.3 / 1.3) <= 1e-10
    assert main(["kappa-hat", "rank1:b=-1", "--grid", "64"]) == EXIT_GATE


def test_kappa_s_subcommand(capsys):
    assert main(["kappa-s", "rank1:b=0.5", "--grid", "64"]) == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert abs(out["hs_norm"] - (1.0 - np.sqrt(0.5))) <= 1e-10
    assert main(["kappa-s", "rank1:b=1.0", "--grid", "64"]) == EXIT_GATE
    assert main(["kappa-s", "volterra", "--grid", "64"]) == EXIT_GATE


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
    rows = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert rows[0].startswith("name,lhs,rhs,se,z,verdict")
    assert len(rows) == 3


def test_usage_errors():
    assert main(["verify", "transf", "--kernel", "bogus:z=1", "--paths", "10"]) == EXIT_USAGE
    assert main(["spectrum"]) == EXIT_USAGE  # missing argument
    assert main([]) == EXIT_USAGE


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
