"""Mutants the verifier must fail: each is a deliberate fault, applied with
monkeypatch, that the demo.cfg scenarios reaching it have to report.

The det2 mutants perturb `operator.factor_identity_plus`, the one LU that
every det2 is read from.  Each kind that starts at `Scenario.factor` checks
that det2 against the gate eigensolve of B_eta, which the mutant does not
touch (`det2_product`), so every such demo scenario must fail that check at
its full size.

The det2_complement mutant perturbs `operator.Spectrum.det2_complement`, the
det2(I - c B_eta) that the surjective family (its Laplace rows and
integrability included) reads from its one eigensolve.  det2_sqrt_identity
checks it against an LU that shares nothing with that eigensolve, so every
report of the family must fail that check, at the golden pin's reduced size.

The Ito/Stratonovich mutant keeps the diagonal blocks in the quadratic form
q, the Ito sum's one convention.  It wraps `stochastic.quadratic_form`, so the
dense route and the factored one see it alike, and every demo.cfg scenario
that reaches q must fail its identity, at the golden pin's reduced size.

The tail-convention mutant sums the tail kernel kappa_phi of cameron_martin
over the nodes u >= s in place of u > s.  The linear drift, read from the
path at the left nodes, is then no longer the Wiener integral of kappa_phi,
and the trace of B_kappa_phi gains Delta^2 sum_i tr phi(t_i, t_i), so
linear_const must fail pathwise_drift and trace_formula at the golden pin's
size: deterministic kills, with no Monte Carlo comparison involved."""

import os
import re
from dataclasses import replace

import numpy as np
import pytest

from orderone import cli, grid_kernel, operator, stochastic

DEMO_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demo.cfg")
FACTOR_SCENARIOS = ("forward_rank1", "inverse_rank1", "linear_const", "counterexample")
Q_SCENARIOS = ("forward_rank1", "inverse_rank1", "square_root", "counterexample", "moment_bound")
FAMILY_SCENARIOS = ("square_root", "moment_bound")  # the surjective family's


def _small_demo_reports(names):
    """{name: reports} of the named demo.cfg scenarios at the golden pin's
    size: N = 64, 4,000 paths."""
    with open(DEMO_CFG) as fh:
        config = cli.parse_config(re.sub(r"(?m)^\s*(n_steps|samples)\s*=.*$", "", fh.read()))
    config.n_steps, config.samples = 64, 4000
    jobs = dict(zip((spec.name for spec in config.scenarios), cli._jobs(config)))
    reports = {name: jobs[name][0]() for name in names}
    for name in names:  # square_root has 3 Laplace rows
        assert len(reports[name]) == (4 if name == "square_root" else 1), name
    return reports


def _det2_scaled(lu):
    """det2 x 1.01."""
    return lu.det2.log_modulus + np.log(1.01)


def _det_for_det2(lu):
    """det(I + B) in place of det2(I + B): the trace term left in."""
    return lu.det2.log_modulus + float(np.trace(lu.matrix))


@pytest.mark.parametrize("mutant", [_det2_scaled, _det_for_det2], ids=["det2_x1.01", "det"])
def test_det2_mutants_fail_det2_product(monkeypatch, mutant):
    factor = operator.factor_identity_plus

    def mutated(b):
        lu = factor(b)
        return replace(lu, det2=replace(lu.det2, log_modulus=mutant(lu)))
    monkeypatch.setattr(operator, "factor_identity_plus", mutated)
    with open(DEMO_CFG) as fh:
        config = cli.parse_config(fh.read())
    jobs = dict(zip((spec.name for spec in config.scenarios), cli._jobs(config)))
    for name in FACTOR_SCENARIOS:
        run, _ = jobs[name]
        report = run()[0]
        assert not report.checks["det2_product"].passed, name


def test_ito_mutant_fails_every_scenario_reaching_q(monkeypatch):
    quadratic_form = stochastic.quadratic_form

    def stratonovich(eta, batch):
        """q with its diagonal blocks kept: 1/2 <dW, eta dW>."""
        dw = batch.increments
        return quadratic_form(eta, batch) + 0.5 * np.einsum(
            "mia,iab,mib->m", dw, eta.diagonal_blocks(), dw)
    monkeypatch.setattr(stochastic, "quadratic_form", stratonovich)
    for reports in _small_demo_reports(Q_SCENARIOS).values():
        for report in reports:
            assert report.verdict == "fail", report.name
            assert not report.checks["identity"].passed, report.name


def test_det2_complement_mutant_fails_det2_sqrt_identity(monkeypatch):
    det2_complement = operator.Spectrum.det2_complement

    def scaled(self):
        """det2 x 1.01."""
        d2 = det2_complement(self)
        return replace(d2, log_modulus=d2.log_modulus + np.log(1.01))
    monkeypatch.setattr(operator.Spectrum, "det2_complement", scaled)
    for reports in _small_demo_reports(FAMILY_SCENARIOS).values():
        for report in reports:
            assert report.verdict == "fail", report.name
            assert not report.checks["det2_sqrt_identity"].passed, report.name


def test_inclusive_tail_mutant_fails_the_deterministic_checks(monkeypatch):
    kappa_from_phi = grid_kernel.kappa_from_phi

    def inclusive_tail(phi):
        """kappa_phi summed over u >= s: the tail kernel plus phi Delta."""
        return grid_kernel.MatrixKernel(
            phi.grid, phi.dim, kappa_from_phi(phi).matrix + phi.matrix * phi.grid.step)
    monkeypatch.setattr(grid_kernel, "kappa_from_phi", inclusive_tail)
    (report,) = _small_demo_reports(("linear_const",))["linear_const"]
    assert report.verdict == "fail"
    for check in ("pathwise_drift", "trace_formula"):
        assert not report.checks[check].passed, check
