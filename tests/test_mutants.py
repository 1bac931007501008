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

The shifted-energy mutant adds 0.05 to every h (`stochastic.h_functionals`).
The left-hand side takes h as its own control variate, so the estimate
absorbs most of the shift and its identity may pass; the control's sample
mean then lies far from its exact grid mean, ||kappa||^2 / 2 or tr B_c / 2, so
oscillator and oscillator_matrix must fail control_mean at the golden pin's
size.

The tail-convention mutant sums the tail kernel kappa_phi of cameron_martin
over the nodes u >= s in place of u > s.  The linear drift, read from the
path at the left nodes, is then no longer the Wiener integral of kappa_phi,
and the trace of B_kappa_phi gains Delta^2 sum_i tr phi(t_i, t_i), so
linear_const must fail pathwise_drift and trace_formula at the golden pin's
size: deterministic kills, with no Monte Carlo comparison involved.

The inverse-sign mutant negates the inverse kernel kappa_hat that inverse
reads from the LU of I + B_kappa (`operator.inverse_kernel_from`).  Its
pathwise round trip, (I + Delta K_hat)(I + Delta K) dW against dW over the
1,000 probe paths drawn in the blocks of the block plan, no longer returns
the increments, and det2_inverse no longer holds, so inverse_rank1 must fail
both at the golden pin's size: deterministic kills.

The harmonic mutants perturb the route det(I + lam B_c) is read from: the
Riccati recursion of a LowerExp kernel (its weight c, or its transition
applied after the update, which only a rate p != 0 can tell apart) and the
core of the c kernel's LowRank form, or `LowRank.energy_core` it is read
from.  det_dual_route reads a closed form, or Sylvester's determinant from
the Grams of L and R, from the kernel's own form, so each must fail that
check at the golden pin's size, with no Monte Carlo comparison involved."""

import os
import re
from dataclasses import replace

import numpy as np
import pytest

from orderone import cli, grid_kernel, operator, scenarios, stochastic

DEMO_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demo.cfg")
FACTOR_SCENARIOS = ("forward_rank1", "inverse_rank1", "linear_const", "counterexample")
Q_SCENARIOS = ("forward_rank1", "inverse_rank1", "square_root", "counterexample", "moment_bound")
FAMILY_SCENARIOS = ("square_root", "moment_bound")  # the surjective family's


def _run(job):
    """The reports of a checked config job, its scenario run alone."""
    return scenarios._alone(job[0]())


def _small_demo_reports(names):
    """{name: reports} of the named demo.cfg scenarios at the golden pin's
    size: N = 64, 4,000 paths."""
    with open(DEMO_CFG) as fh:
        config = cli.parse_config(re.sub(r"(?m)^\s*(n_steps|samples)\s*=.*$", "", fh.read()))
    config.n_steps, config.samples = 64, 4000
    jobs = dict(zip((spec.name for spec in config.scenarios), cli._jobs(config)))
    reports = {name: _run(jobs[name]) for name in names}
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
        report = _run(jobs[name])[0]
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


def test_shifted_energy_mutant_fails_control_mean(monkeypatch):
    h_functionals = stochastic.h_functionals

    def shifted(kappa, batch, x=None):
        """h + 0.05."""
        return h_functionals(kappa, batch, x) + 0.05
    monkeypatch.setattr(stochastic, "h_functionals", shifted)
    for name, (report,) in _small_demo_reports(("oscillator", "oscillator_matrix")).items():
        assert report.verdict == "fail", name
        assert not report.checks["control_mean"].passed, name


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


def test_negated_inverse_kernel_mutant_fails_composition_roundtrip(monkeypatch):
    inverse_kernel_from = operator.inverse_kernel_from

    def negated(lu, kappa):
        """-kappa_hat: the inverse kernel with its sign flipped."""
        return grid_kernel.scale_kernel(inverse_kernel_from(lu, kappa), -1.0)
    monkeypatch.setattr(operator, "inverse_kernel_from", negated)
    (report,) = _small_demo_reports(("inverse_rank1",))["inverse_rank1"]
    assert report.verdict == "fail"
    for check in ("composition_roundtrip", "det2_inverse"):
        assert not report.checks[check].passed, check


def _riccati_weight_scaled(rate_step, c, n, riccati=operator._riccati_logdet):
    """The recursion with its weight c x (1 + 1e-6)."""
    return riccati(rate_step, c * (1.0 + 1e-6), n)


def _riccati_late_transition(rate_step, c, n):
    """The transition applied after the update: P_{i+1} = alpha^2 P_i / S_i + 1,
    on Q = c P."""
    alpha2, q, total = np.exp(2.0 * rate_step), 0.0, 0.0
    for _ in range(n):
        total += np.log1p(q)
        q = alpha2 * q / (1.0 + q) + c
    return total


@pytest.mark.parametrize("mutant, names", [
    (_riccati_weight_scaled, ("oscillator", "oscillator_matrix")),
    # at p = 0 (oscillator's volterra) alpha^2 = 1 and the two orders agree
    (_riccati_late_transition, ("oscillator_matrix",)),
], ids=["weight_x1.000001", "late_transition"])
def test_riccati_mutants_fail_det_dual_route(monkeypatch, mutant, names):
    monkeypatch.setattr(operator, "_riccati_logdet", mutant)
    for name, reports in _small_demo_reports(names).items():
        (report,) = reports
        assert report.verdict == "fail", name
        assert not report.checks["det_dual_route"].passed, name


def test_low_rank_c_core_mutant_fails_det_dual_route(monkeypatch):
    # const_phi's L and R differ, so Sylvester's route reads both Grams
    c_kernels = grid_kernel.c_kernels

    def scaled_core(kappa, x=None):
        """The c kernel with its LowRank core x (1 + 1e-6)."""
        c = c_kernels(kappa, x)
        return grid_kernel.kernel_from_form(c.grid, c.dim, c.factored.scaled(1.0 + 1e-6),
                                            symmetric=True)
    grid = grid_kernel.make_grid(1.0, 64)
    run = lambda: scenarios.verify_harmonic(  # noqa: E731
        "const_phi:c=-0.4", 1.0, None, "one", grid, n_paths=4000, seed=42)
    assert run().checks["det_dual_route"].passed
    monkeypatch.setattr(grid_kernel, "c_kernels", scaled_core)
    report = run()
    assert report.verdict == "fail"
    assert not report.checks["det_dual_route"].passed


def test_low_rank_energy_core_mutant_fails_det_dual_route(monkeypatch):
    # the c kernel's core is read from LowRank.energy_core; Sylvester's route
    # reads the Grams of L and R alone, so a slip there shows
    energy_core = grid_kernel.LowRank.energy_core

    def scaled(self, grid, dim, x=None):
        """C^T (L^T L) C x (1 + 1e-6)."""
        return energy_core(self, grid, dim, x) * (1.0 + 1e-6)
    grid = grid_kernel.make_grid(1.0, 64)
    run = lambda: scenarios.verify_harmonic(  # noqa: E731
        "const_phi:c=-0.4", 1.0, None, "one", grid, n_paths=4000, seed=42)
    assert run().checks["det_dual_route"].passed
    monkeypatch.setattr(grid_kernel.LowRank, "energy_core", scaled)
    report = run()
    assert report.verdict == "fail"
    assert not report.checks["det_dual_route"].passed
