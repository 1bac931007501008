"""The benchmark calls `orderone` through perfbench/workloads.py: the
positional `verify_*` signatures of its direct workloads and `cli.parse_config`
with the `ScenarioSpec` fields it reads for the demo.  These run its own
passes at a small size, so a change to those calling conventions fails here
and not only inside a benchmark run."""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "perfbench", "workloads.py")
N, PATHS = 16, 64


@pytest.fixture
def workloads(monkeypatch):
    """perfbench/workloads.py, loaded from its file without writing a bytecode
    cache, its direct workloads shrunk to N = 16 and 64 paths."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    small = {name: tuple((kind, kernel, N, d, PATHS, f, lam)
                         for kind, kernel, _, d, _, f, lam in cases)
             for name, cases in module.DIRECT.items()}
    monkeypatch.setattr(module, "DIRECT", small)
    return module


@pytest.mark.parametrize("name", ["operator_n2048", "mc_fine"])
def test_direct_workload_pass_runs_every_verification(workloads, tmp_path, name):
    result = workloads.run_pass(name, ROOT, 1, str(tmp_path))
    assert result.errors == 0 and result.exit_ok
    assert len(result.reports) == workloads.expected_reports(name, None)
    assert all(r["provenance"]["n_steps"] == N for r in result.reports)


def test_demo_inputs_build(workloads):
    config, kernels = workloads.build_inputs("demo", ROOT, 7)
    assert config.seed == 7
    assert len(kernels) == len(config.scenarios)
    # one report per scenario and per lambda of the surjective one
    assert workloads.expected_reports("demo", config) == 11
