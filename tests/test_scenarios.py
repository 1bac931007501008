"""Scenario runners at desk scale: gates, oracles, exact sides without an exponent,
downgrade behavior, determinism, and the pooled chunk reducer."""

import threading
from dataclasses import replace
from functools import partial

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from orderone import grid_kernel as gk, operator, scenarios as sc, stochastic

from orderone import (
    InvalidArgumentError,
    PreconditionError,
    TestFunctional,
    TimeGrid,
    integrability_bound,
    kernel_zoo,
    make_grid,
    sample_paths,
    scale_kernel,
    sweep_laplace,
    verify_cameron_martin,
    verify_finite_dim,
    verify_gencv_example,
    verify_harmonic,
    verify_integrability_bound,
    verify_inverse,
    verify_surjective,
    verify_transf,
)


def rank1_exp_q_moment(a: float) -> float:
    """The oracle E[exp(q)] of a rank-one kernel with eigenvalue a < 1:
    ((1 - a) e^a)^{-1/2}."""
    return float(((1.0 - a) * np.exp(a)) ** -0.5)


def exact_grid_lhs(s, side) -> float:
    """The left-hand side e^{log_scale} E[f(w') e^{c q}] of a row of scenario s on
    its own grid, in closed form (Mathai and Provost, Quadratic Forms in Random
    Variables, 1992): with dW = sqrt(Delta) xi and c q = 1/2 xi^T A xi, it is
    det(I - A)^{-1/2} E[f] for the node value dW G that f reads, normal with
    covariance Delta G^T (I - A)^{-1} G.  A is read off the side's own exponent by
    polarisation over (N d)^2 paths, so N d must be small."""
    g, d = s.grid, s.kernel.dim
    n = g.n_steps * d
    eye = np.eye(n)
    basis = np.concatenate([eye, (eye[:, None] + eye[None]).reshape(-1, n)])
    q = side.exponent(stochastic.PathBatch(g, d, basis.reshape(-1, g.n_steps, d), 0))
    single, pair = q[:n], q[n:].reshape(n, n)
    tilt = eye - side.c * g.step * (pair - single[:, None] - single[None, :])
    assert np.linalg.eigvalsh(tilt).min() > 0  # the grid's own gate
    f = side.f or s.f
    node = f.node(g)
    if node is None:
        cov = np.zeros((d, d))
    else:
        w = (np.kron((np.arange(g.n_steps) < node)[:, None], np.eye(d)) if side.kernel is None
             else stochastic.node_weights(side.kernel, node))
        cov = g.step * (w.T @ np.linalg.solve(tilt, w))
    return float(np.exp(side.log_scale - 0.5 * np.linalg.slogdet(tilt)[1]) * f.mean(cov))


def spy_rows(monkeypatch) -> dict:
    """Per report name, (scenario, left-hand side) of each identity row that runs."""
    rows, identity = {}, sc.Scenario.identity

    def recorded(self, these, extra=(), probes=()):
        these = list(these)
        rows.update((report.name, (self, lhs)) for report, lhs, _ in these)
        return (yield from identity(self, these, extra, probes))
    monkeypatch.setattr(sc.Scenario, "identity", recorded)
    return rows


def _pass(grid, dim, n_paths, seed, stream_id, per_path):
    """The estimates of per_path's rows over one stream, as one side's pass;
    the exception per_path raised is raised."""
    merge = partial(sc._merged, scale=1.0, ci_valid=True)
    (out,) = sc._mc_paths((grid, seed, stream_id),
                          [sc._Request(None, n_paths, dim, per_path, sc._moments, sc._chan, merge)])
    if isinstance(out, Exception):
        raise out
    return out


@pytest.fixture(scope="module")
def grid():
    return make_grid(1.0, 128)


# ---------------------------------------------------------------------------
# finite-dimensional identity
# ---------------------------------------------------------------------------

def _assert_exact_rhs(r, value):
    # a side without an exponent is exact: it draws nothing and carries no error
    assert r.rhs.n_samples == 0 and r.rhs.std_error == 0.0
    npt.assert_allclose(r.rhs.mean, value, rtol=1e-12)


def test_finite_dim_zero_matrix():
    # A = 0: the plain side is the Gaussian characteristic value e^{-n/2}
    r = verify_finite_dim(np.zeros((2, 2)), "cos_sum", n_samples=20_000, seed=0)
    assert r.passed
    _assert_exact_rhs(r, np.exp(-1.0))


def test_finite_dim_diagonal_example():
    r = verify_finite_dim(np.diag([0.2, -0.1]), "cos_sum", n_samples=200_000, seed=3)
    assert r.passed and abs(r.z_score) <= 3.0
    # the plain side has the exact Gaussian characteristic value e^{-1}
    _assert_exact_rhs(r, np.exp(-1.0))


@pytest.mark.parametrize("matrix, functional, lhs, rhs", [
    (np.diag([0.2, -0.1]), "cos_sum", (0.3672074729039362, 0.0006426501187963478),
     (np.exp(-1.0), 0.0)),
    ([[0.1, 0.2], [-0.15, 0.05]], "one", (1.0000002975978486, 5.6040537762019755e-05), (1.0, 0.0)),
])
def test_finite_dim_numbers_are_pinned(matrix, functional, lhs, rhs):
    # recorded from the draws of seed 3 on the n unit-step paths, each all
    # net (n <= 16 cells); the left-hand side is controlled by psi, whose
    # exact mean is -tr A - |A|_F^2 / 2, and its error is the replicates' one
    r = verify_finite_dim(matrix, functional, n_samples=20_000, seed=3)
    for side, (mean, se) in ((r.lhs, lhs), (r.rhs, rhs)):
        npt.assert_allclose([side.mean, side.std_error], [mean, se], rtol=1e-12)
    # the right-hand side has no exponent, so it is exact, as for every Wiener kind
    assert r.passed and r.lhs.n_samples == 20_000
    assert r.rhs.n_samples == 0


def test_finite_dim_reflection_is_exact_in_law():
    # A = -2 in one dimension reflects x; B = 0 and |det| = 1
    r = verify_finite_dim(np.array([[-2.0]]), "cos_sum", n_samples=100_000, seed=4)
    assert r.passed
    assert r.gate["lambda_eta"] == 0.0


def test_finite_dim_gate_rejection():
    r = verify_finite_dim(np.diag([-1.0, 0.0]), "cos_sum", n_samples=10, seed=0)
    assert r.verdict == "rejected-by-hypothesis"
    assert r.gate["lambda_eta"] >= 1.0 - 1e-12


def test_finite_dim_uses_the_shared_moment_guard():
    # A = -0.4 gives lambda_max(B) = 0.64: the weight's variance is infinite,
    # yet the scenario reported a CI (2 of 40 seeds failed at 20k samples)
    r = verify_finite_dim(np.diag([-0.4]), "cos_sum", n_samples=20_000, seed=0)
    assert r.gate["guard"] == "ok_no_ci"
    assert r.lhs.std_error is None and not r.lhs.ci_valid
    assert r.rhs.ci_valid and r.z_score is None
    assert r.passed  # the median consistency verdict at the widened tolerance


@pytest.mark.parametrize("matrix", [np.diag([0.2, -0.1]), np.array([[-2.0]])])
def test_finite_dim_reads_the_shared_prologue(matrix):
    # gate, det2 and spectra are Scenario.factor's; |det(I+A)| = |det2| e^{tr A}
    r = verify_finite_dim(matrix, "cos_sum", n_samples=2_000, seed=3)
    assert list(r.spectra) == ["det2_sign", "det2_log_modulus", "hs_norm", "trace",
                               "lambda_eta", "det_abs"]
    npt.assert_allclose(r.spectra["det_abs"], abs(np.linalg.det(np.eye(len(matrix)) + matrix)),
                        rtol=1e-12)


def test_finite_dim_validates_input():
    with pytest.raises(InvalidArgumentError):
        verify_finite_dim(np.zeros((2, 3)))
    with pytest.raises(InvalidArgumentError):
        verify_finite_dim(np.zeros((2, 2)), "bogus")


# ---------------------------------------------------------------------------
# forward identity
# ---------------------------------------------------------------------------

def test_transf_zero_kernel_exact(grid):
    r = verify_transf("zero", "cos_end:1.0", grid, n_paths=5_000, seed=1)
    assert r.passed
    _assert_exact_rhs(r, np.exp(-0.5))  # e^{-a^2 T / 2}


def test_transf_rank_one(grid):
    r = verify_transf("rank1:b=0.3", "cos_end:1.0", grid, n_paths=60_000, seed=11)
    assert r.passed
    _assert_exact_rhs(r, np.exp(0.045) * np.exp(-0.5))


def test_transf_constant_functional_closed_form(grid):
    # f == 1: LHS estimates |det2| E[e^q]; the rank-one Gaussian oracle makes
    # the identity analytic: (1+b) e^{-b} ((1-a) e^a)^{-1/2} = e^{b^2/2}
    b = 0.3
    a = -(2.0 * b + b * b)
    lhs_const = (1.0 + b) * np.exp(-b) * rank1_exp_q_moment(a)
    npt.assert_allclose(lhs_const, np.exp(b * b / 2.0), rtol=1e-12)
    r = verify_transf(f"rank1:b={b}", "one", grid, n_paths=60_000, seed=12)
    assert r.passed
    assert r.rhs.std_error == 0.0  # exact side
    npt.assert_allclose(r.rhs.mean, np.exp(b * b / 2.0), rtol=1e-12)


def test_transf_gate_rejection(grid):
    # eta(kappa) = -(2b+b^2) e x e reaches the gate at b = -1 (eigenvalue 1)
    r = verify_transf("rank1:b=-1", "one", grid, n_paths=10, seed=0)
    assert r.verdict == "rejected-by-hypothesis"


def test_transf_report_shape(grid):
    r = verify_transf("rank1:b=0.3", "cos_end:1.0", grid, n_paths=2_000, seed=5)
    d = r.to_dict()
    assert d["verdict"] == "pass"
    assert set(d["gate"]) == {"lambda_eta", "guard"}
    assert d["lhs"]["n_samples"] == 2_000
    row = r.to_csv_row()
    assert len(row) == 9 and row[5] == "pass"


# ---------------------------------------------------------------------------
# inverse identity
# ---------------------------------------------------------------------------

def test_inverse_zero_kernel_exact(grid):
    r = verify_inverse("zero", "cos_end:1.0", grid, n_paths=5_000, seed=1)
    assert r.passed
    _assert_exact_rhs(r, np.exp(-0.5))
    assert r.checks["rn_normalization"].value == 1.0
    assert r.checks["composition_roundtrip"].value == 0.0


def test_inverse_rank_one(grid):
    r = verify_inverse("rank1:b=0.3", "cos_end:1.0", grid, n_paths=60_000, seed=21)
    assert r.passed
    assert r.checks["composition_roundtrip"].value <= 1e-8
    assert r.checks["rn_normalization"].passed


def test_inverse_gencv_downgrades_rn_to_consistency(grid):
    # eta(kappa_hat) has an eigenvalue 0.75, so 2 lambda >= 1: the RN factor
    # has infinite variance and the check must run in median mode, never z
    r = verify_inverse("remark_gencv:b1=-2,b2=-3", "cos_end:1.0", grid,
                       n_paths=60_000, seed=22)
    assert r.passed
    assert "guard ok_no_ci" in r.checks["rn_normalization"].note


# ---------------------------------------------------------------------------
# surjective identity and Laplace sweep
# ---------------------------------------------------------------------------

def test_surjective_zero_exact(grid):
    r = verify_surjective("zero", "one", grid, n_paths=5_000, seed=1)
    assert r.passed and r.rel_error == 0.0


def test_surjective_rank_one_oracle(grid):
    r = verify_surjective("rank1:b=0.5", "one", grid, n_paths=100_000, seed=1)
    assert r.passed
    # determinant side is the exact rank-one value
    npt.assert_allclose(r.rhs.mean, rank1_exp_q_moment(0.5), rtol=1e-6)
    # boundary guard: second moment infinite at 2 lambda = 1
    assert r.gate["guard"] == "ok_no_ci"
    assert r.lhs.std_error is None and not r.lhs.ci_valid
    assert r.checks["det2_sqrt_identity"].passed
    assert r.checks["eta_roundtrip"].passed


def test_surjective_requires_symmetric(grid):
    with pytest.raises(InvalidArgumentError):
        verify_surjective("volterra", "one", grid, n_paths=10, seed=0)


def test_surjective_gate(grid):
    r = verify_surjective("rank1:b=1.0", "one", grid, n_paths=10, seed=0)
    assert r.verdict == "rejected-by-hypothesis"


def test_laplace_sweep_passes(grid):
    reports = sweep_laplace("rank1:b=0.5", [0.25, 0.5, 0.75], "one", grid,
                            n_paths=40_000, seed=6)
    assert [r.verdict for r in reports] == ["pass"] * 3
    for factor, r in zip([0.25, 0.5, 0.75], reports):
        npt.assert_allclose(r.rhs.mean, rank1_exp_q_moment(0.5 * factor), rtol=1e-6)
        assert r.lhs.ci_valid  # scaled spectra sit inside the CI regime


def _assert_reports_close(got, want):
    """Equal verdicts, guards and check outcomes; every number at rtol 1e-9,
    and at atol 1e-12 where it is zero in exact arithmetic."""
    def close(g, w, zero=False):
        if g is None or w is None:
            return g is w
        return abs(g - w) <= 1e-12 if zero else np.isclose(g, w, rtol=1e-9, atol=1e-12)

    assert (got.verdict, got.gate["guard"]) == (want.verdict, want.gate["guard"])
    assert close(got.gate["lambda_eta"], want.gate["lambda_eta"])
    assert close(got.z_score, want.z_score) and close(got.rel_error, want.rel_error)
    for side in ("lhs", "rhs"):
        g, w = getattr(got, side), getattr(want, side)
        assert (g is None) == (w is None)
        if w is not None:
            assert (g.n_samples, g.ci_valid) == (w.n_samples, w.ci_valid)
            assert close(g.mean, w.mean) and close(g.std_error, w.std_error)
            assert all(close(a, b) for a, b in zip(g.chunk_means, w.chunk_means))
    assert got.spectra.keys() == want.spectra.keys()
    assert all(close(got.spectra[k], want.spectra[k]) for k in want.spectra)
    assert got.checks.keys() == want.checks.keys()
    for name, w in want.checks.items():
        g = got.checks[name]
        assert g.passed == w.passed and close(g.tol, w.tol) and close(g.target, w.target)
        assert close(g.value, w.value, zero=w.target == 0.0)


@pytest.mark.parametrize("functional", ["one", "cos_end:1.0"])
def test_sweep_matches_surjective_on_each_scaled_kernel(monkeypatch, functional):
    # the reference is the per-lambda route: verify_surjective on a rescaled
    # kernel copy, one eigensolve and one Monte Carlo pass per lambda.  The
    # gates are 0.125 (ok), 0.75 (ok_no_ci), 1.25 (rejected) and, for the
    # negative factor, -0.5 lambda_min (ok, read from the reversed spectrum)
    # 4,000 paths in 6 chunks, the last of 500 paths a sub-batch with the fifth
    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 64 * 700)
    g = make_grid(1.0, 64)
    lambdas = [0.25, 1.5, 2.5, -0.5]
    reports = sweep_laplace("rank1:b=0.5", lambdas, functional, g, n_paths=4_000, seed=8)
    eta = kernel_zoo("rank1:b=0.5", g)
    for lam, got in zip(lambdas, reports):
        want = verify_surjective(scale_kernel(eta, lam), functional, g, n_paths=4_000, seed=8)
        assert got.name == f"laplace[rank1:b=0.5, lambda={lam:g}]"
        assert got.provenance == dict(want.provenance, kernel="rank1:b=0.5", **{"lambda": lam})
        _assert_reports_close(got, want)
    assert [r.gate["guard"] for r in reports] == ["ok", "ok_no_ci", "reject", "ok"]
    rejected = reports[2]
    assert rejected.verdict == "rejected-by-hypothesis" and rejected.lhs is None
    assert len(reports[0].lhs.chunk_means) == 5
    assert reports[1].lhs.std_error is None  # the CI-less row beside rows with a CI


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_sweep_rejects_a_non_finite_lambda(grid, lam):
    with pytest.raises(InvalidArgumentError, match="lambdas must be finite"):
        sweep_laplace("rank1:b=0.5", [0.5, lam], "one", grid, n_paths=10)


@pytest.mark.parametrize("call, match", [
    # a TypeError inside the chunk plan
    (lambda g: verify_transf("rank1:b=0.3", "one", g, n_paths=100.5), "paths must be an integer"),
    # ran with seed 1 and recorded 1.5
    (lambda g: verify_transf("rank1:b=0.3", "one", g, n_paths=200, seed=1.5),
     "seed must be an integer"),
    # resolved with lam None; its run raised a TypeError
    (lambda g: sc.resolve_scenario("harmonic", "volterra", "one", g), "harmonic needs a lambda"),
    # its run raised a TypeError: gencv reads b1 and b2 from its kernel spec
    (lambda g: sc.resolve_scenario("gencv", "rank1:b=0.3", "one", g), "remark_gencv"),
    # two reports of one name
    (lambda g: sweep_laplace("rank1:b=0.3", [0.5, 0.5], "one", g, n_paths=100),
     "first 6 significant digits"),
    (lambda g: sweep_laplace("rank1:b=0.3", [0.5, 0.5000001], "one", g, n_paths=100),
     "first 6 significant digits"),
    # a scenario of no report: its run returned [] and its `report` raised IndexError
    (lambda g: sweep_laplace("rank1:b=0.5", [], "one", g, n_paths=100), "needs lambdas"),
    (lambda g: sc.resolve_scenario("surjective", "rank1:b=0.5", "one", g, own=False),
     "needs lambdas"),
], ids=["paths", "seed", "harmonic-lambda", "gencv-kernel", "laplace-repeat", "laplace-label",
        "sweep-empty", "no-report"])
def test_malformed_scenario_arguments_are_typed_errors(call, match):
    with pytest.raises(InvalidArgumentError, match=match):
        call(MEAN_GRID)


def test_integral_reals_are_read_as_ints():
    # kernel_zoo passed dim 2.0 on to np.eye, which raised a TypeError
    kernel = kernel_zoo("const:c=1", MEAN_GRID, 2.0)
    assert kernel.dim == 2 and type(kernel.dim) is int
    s = sc.resolve_scenario("transf", "const:c=1", "one", MEAN_GRID, 2.0, 200.0, 2.0)
    assert [type(s.report.provenance[k]) for k in ("dim", "n_paths", "seed")] == [int] * 3
    assert sc._alone(s)[0].lhs.n_samples == 200


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, match", [
    # the generator keys read a seed modulo 2**64: 2**64 drew seed 0's paths
    (lambda: verify_transf("rank1:b=0.3", "one", MEAN_GRID, n_paths=100, seed=2**64), "seed"),
    (lambda: verify_transf("rank1:b=0.3", "one", MEAN_GRID, n_paths=100, seed=-1), "seed"),
    # ValueError, OverflowError and TypeError
    (lambda: make_grid(1.0, NAN), "n_steps must be an integer"),
    (lambda: make_grid(1.0, INF), "n_steps must be an integer"),
    (lambda: make_grid("1", 4), "horizon"),
    (lambda: make_grid(1.0, "4"), "n_steps must be an integer"),
    (lambda: make_grid(1.0, 1), "n_steps must be >= 2"),
    (lambda: kernel_zoo("volterra", MEAN_GRID, NAN), "dim must be an integer"),
    (lambda: kernel_zoo("rank1:b=0.3,n=1.5", MEAN_GRID), "'n'"),
    # TypeErrors of np.isfinite
    (lambda: verify_transf("rank1:b=0.3", "one", MEAN_GRID, n_paths=100, tol="a"), "tolerance"),
    (lambda: verify_harmonic("volterra", "a", None, "one", MEAN_GRID, n_paths=100), "lambda"),
    (lambda: sweep_laplace("rank1:b=0.5", ["a"], "one", MEAN_GRID, n_paths=100), "lambdas"),
    # a TypeError of the comparison, and of iterating a number
    (lambda: verify_transf("rank1:b=0.3", "one", MEAN_GRID, n_paths=100, tol=1j), "tolerance"),
    (lambda: sweep_laplace("rank1:b=0.5", 0.5, "one", MEAN_GRID, n_paths=100), "lambdas"),
], ids=["seed-2**64", "seed-negative", "n_steps-nan", "n_steps-inf", "horizon-text",
        "n_steps-text", "n_steps-1", "dim-nan", "spec-integer", "tol-text", "lam-text",
        "lambdas-text", "tol-complex", "lambdas-scalar"])
def test_arguments_that_are_not_valid_numbers_are_typed_errors(call, match):
    with pytest.raises(InvalidArgumentError, match=match):
        call()


def test_the_largest_seed_runs():
    r = verify_transf("rank1:b=0.3", "one", MEAN_GRID, n_paths=100, seed=2**64 - 1)
    assert r.provenance["seed"] == 2**64 - 1 and r.lhs.n_samples == 100


@pytest.mark.parametrize("run", [
    lambda g: verify_surjective("zero", "cos_end:1.0", g, n_paths=5_000, seed=1),
    lambda g: verify_harmonic("zero", 1.0, None, "cos_end:1.0", g, n_paths=5_000, seed=1),
    # a LowRank kernel of zero core: the rule reads its form, not a matrix
    lambda g: verify_transf("rank1:b=0", "cos_end:1.0", g, n_paths=5_000, seed=1),
], ids=["surjective", "harmonic", "transf-low-rank"])
def test_zero_kernel_has_an_exact_rhs(grid, run):
    # a zero kernel leaves the plain expectation e^{-a^2 T / 2} on the
    # right-hand side, read in closed form, not from the left-hand paths
    r = run(grid)
    assert r.passed
    _assert_exact_rhs(r, np.exp(-0.5))


MEAN_GRID = make_grid(1.0, 16)
# images f is read along: (kernel spec, d); None is the path itself, and the
# linear image of phi = const:c=1 is that of its tail kernel
MEAN_IMAGES = [(None, 1), ("volterra", 1), ("expdiag:p=[1.5,-0.5]", 2), ("const_phi:c=1", 1)]


@pytest.mark.parametrize("text", ["one", "cos_end:1.0", "exp_negsq", "cos_mid:2.0,0.3"])
@pytest.mark.parametrize("spec, dim", MEAN_IMAGES,
                         ids=["path", "volterra", "expdiag-d2", "const-linear"])
def test_exact_side_agrees_with_monte_carlo(spec, dim, text):
    # a side without an exponent is TestFunctional.mean of the Gaussian node
    # value it reads; 200k paths of the same side agree within 4 sigma
    f = TestFunctional.parse(text)
    s = sc.resolve_scenario("transf", spec or "zero", f, MEAN_GRID, dim, n_paths=200_000, seed=8)
    kernel = None if spec is None else s.kernel
    exact = s.exact(sc.Side(kernel=kernel))
    assert exact.n_samples == 0 and exact.std_error == 0.0
    k = f.node(MEAN_GRID)
    if k is None:
        assert exact.mean == 1.0
        return
    weights = None if kernel is None else stochastic.node_weights(kernel, k)

    def per_path(batch):
        w = batch.value_at_node(k) if weights is None else stochastic.node_value(batch, weights)
        return f.at_node(w)
    (mc,) = _pass(MEAN_GRID, dim, 200_000, 8, sc._STREAM_LHS, per_path)
    assert abs(mc.mean - exact.mean) <= 4.0 * mc.std_error


# every kind at d = 1 and d = 2 where it takes one: (kind, kernel, functional,
# dim, keyword arguments); harmonic reads a direction x, and the right-hand
# sides of surjective and harmonic with cos_end:1 read an image
EVERY_KIND = [
    ("transf", "rank1:b=0.3", "cos_end:1", 1, {}),
    ("transf", "expdiag:p=[0.5,-0.5]", "cos_end:1", 2, {}),
    ("inverse", "rank1:b=0.3", "cos_end:1", 1, {}),
    ("inverse", "expdiag:p=[0.5,-0.5]", "cos_end:1", 2, {}),
    ("surjective", "rank1:b=0.5", "cos_end:1", 1, dict(lambdas=[0.5])),
    ("surjective", "const:c=0.2", "cos_end:1", 2, dict(lambdas=[0.5])),
    ("harmonic", "volterra", "cos_end:1", 1, dict(lam=1.0, x=[1.0])),
    ("harmonic", "expdiag:p=[0.5,-0.5]", "cos_end:1", 2, dict(lam=0.5, x=[1.0, 0.5])),
    ("cameron_martin", "const:c=1", "cos_end:1", 1, {}),
    ("cameron_martin", "const:c=1", "cos_end:1", 2, {}),
    ("gencv", None, "cos_end:1", 1, {}),
    ("integrability", "rank1:b=0.5", None, 1, {}),
    ("integrability", "const:c=0.2", None, 2, {}),
]


@pytest.mark.parametrize("kind, spec, functional, dim, extra", EVERY_KIND,
                         ids=[f"{row[0]}-d{row[3]}" for row in EVERY_KIND])
def test_every_right_hand_side_is_exact(monkeypatch, kind, spec, functional, dim, extra):
    # the left-hand side is the one Monte Carlo side: every right-hand side
    # reads no path and carries no error, and no path is drawn on any stream
    # but the left-hand one, the pathwise checks' included
    streams, path_blocks = [], stochastic.path_blocks

    def recorded(*args, **kwargs):
        streams.append(kwargs["stream"][0])
        return path_blocks(*args, **kwargs)
    monkeypatch.setattr(stochastic, "path_blocks", recorded)
    s = sc.resolve_scenario(kind, spec, functional, MEAN_GRID, dim, 400, 3, **extra)
    reports = sc._alone(s)
    assert len(reports) == 1 + len(extra.get("lambdas", []))
    for report in reports:
        assert report.lhs.n_samples == 400
        assert report.rhs.n_samples == 0 and report.rhs.std_error == 0.0
    assert set(streams) == {sc._STREAM_LHS}


def test_finite_dim_right_hand_side_is_exact():
    s = sc.resolve_finite_dim(np.diag(np.full(16, 0.1)), n_samples=400, seed=3)
    (report,) = sc._alone(s)
    assert report.lhs.n_samples == 400
    assert report.rhs.n_samples == 0 and report.rhs.std_error == 0.0


def test_functional_means_in_closed_form():
    cov = np.array([[0.5, 0.2], [0.2, 0.3]])
    assert TestFunctional.parse("one").mean(cov) == 1.0
    npt.assert_allclose(TestFunctional.parse("cos_end:2").mean(cov), np.exp(-2.0 * 1.2),
                        rtol=1e-14)
    npt.assert_allclose(TestFunctional.parse("cos_mid:2,0.5").mean(cov), np.exp(-2.0 * 0.5),
                        rtol=1e-14)
    npt.assert_allclose(TestFunctional.parse("exp_negsq").mean(cov),
                        np.linalg.det(np.eye(2) + 2.0 * cov) ** -0.5, rtol=1e-14)


# ---------------------------------------------------------------------------
# control variates
# ---------------------------------------------------------------------------

# a kernel of each zoo row, at d = 1 and, unless the row is scalar, d = 2
CONTROL_ZOO = [
    ("zero", 1), ("zero", 2), ("volterra", 1), ("volterra", 2), ("rank1:b=0.3,n=2", 1),
    ("rank2:b=0.2,c=0.3", 1), ("rank2:b=0.2,c=0.3,member=2", 1),
    ("remark_gencv:b1=-2,b2=-3", 1), ("expdiag:p=[0.5]", 1), ("expdiag:p=[0.5,-0.5]", 2),
    ("const:c=0.3", 1), ("const:c=0.3", 2), ("const_phi:c=0.5", 1), ("const_phi:c=0.5", 2),
]


def _assert_control_mean_holds(report):
    """The control of a left-hand side with a CI: its sample mean within
    CONTROL_Z standard errors of its exact grid mean; none of a zero kernel."""
    if report.provenance.get("kernel") == "zero":  # the control has no variance
        assert report.lhs.control is None and "control_mean" not in report.checks
        return
    assert report.lhs.control is not None, report.name
    check = report.checks["control_mean"]
    assert check.value == report.lhs.control.z and check.passed, (report.name, check.value)


@pytest.mark.parametrize("spec, dim", CONTROL_ZOO)
def test_each_control_has_its_exact_mean(spec, dim):
    # 20,000 paths at N = 16: q of eta(kappa) (transf), h without and with a
    # direction (harmonic), psi of the tail kernel (cameron_martin); the
    # verdicts are not asserted, as the grid bias of N = 16 is past 2% for some
    g, x = make_grid(1.0, 16), np.linspace(1.0, -0.5, dim)
    runs = [verify_transf(spec, "cos_end:1.0", g, dim, 20_000, seed=2),
            verify_harmonic(spec, 1.0, None, "one", g, dim, 20_000, seed=2),
            verify_harmonic(spec, 1.0, x, "cos_end:1.0", g, dim, 20_000, seed=2),
            verify_cameron_martin(spec, "cos_end:1.0", g, dim, 20_000, seed=2)]
    for report in runs:
        if report.gate["guard"] == "ok":
            _assert_control_mean_holds(report)
        else:  # remark_gencv as phi: no CI, so the plain mean and median
            assert report.lhs.control is None and "control_mean" not in report.checks


def test_finite_dim_and_the_laplace_family_controls_have_their_exact_means():
    for matrix in (np.diag([0.2, -0.1]), [[0.1, 0.2], [-0.15, 0.05]]):
        r = verify_finite_dim(matrix, "cos_sum", n_samples=20_000, seed=2)
        _assert_control_mean_holds(r)
        a = np.asarray(matrix)  # psi's mean on unit steps: -tr A - |A|_F^2 / 2
        npt.assert_allclose(r.lhs.control.exact, -np.trace(a) - 0.5 * np.sum(a * a), rtol=1e-14)
    own, *rows = sc.surjective_scenario("rank1:b=0.5", "one", MEAN_GRID, 1, 20_000, seed=2,
                                     lambdas=[0.25, 0.5])
    assert own.lhs.control is None  # lambda_eta = 0.5: CI-less
    for r in rows:
        _assert_control_mean_holds(r)
        npt.assert_allclose(r.lhs.control.exact, 0.25, rtol=1e-12)  # tr B_eta / 2 = b / 2


def test_inverse_controls_its_mass_too():
    r = verify_inverse("rank1:b=0.3", "cos_end:1.0", MEAN_GRID, n_paths=20_000, seed=2)
    assert r.passed
    for name in ("control_mean", "rn_control_mean"):
        assert r.checks[name].passed and r.checks[name].tol == sc.CONTROL_Z


def test_control_mean_fails_far_from_the_exact_mean():
    est = sc.MCEstimate(1.0, 0.1, 100, True, (1.0,), sc.Control(0.6, 0.0, 1.0, 6.0))
    check = sc._control_check(est)
    assert not check.passed and check.value == 6.0 and check.target == 0.0
    assert est.to_dict()["control_mean"] == 0.6 and est.to_dict()["control_beta"] == 1.0


def test_each_diagonal_is_computed_once_per_kernel(monkeypatch):
    # q reads its kernel's diagonal blocks at every block of every chunk; the
    # kernel computes them once, in the calling thread, before any chunk
    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 32 * 200)
    monkeypatch.setattr(sc, "PATH_BLOCK", 32 * 50)
    monkeypatch.setattr(sc, "WORKERS", 2)
    computed, lock, form_blocks = [], threading.Lock(), gk.LowRank.diagonal_blocks

    def counted(self, grid, dim):
        with lock:
            computed.append((self, threading.current_thread()))  # kept: no id is reused
        return form_blocks(self, grid, dim)
    monkeypatch.setattr(gk.LowRank, "diagonal_blocks", counted)
    g = make_grid(1.0, 32)
    reports = [verify_inverse("rank1:b=0.3", "cos_end:1.0", g, n_paths=1_100, seed=5),
               *sc.surjective_scenario("rank1:b=0.5", "one", g, n_paths=1_100, seed=5,
                                    lambdas=[0.25, 0.5])]
    assert all(r.passed for r in reports)
    # inverse's kappa (its trace), eta and eta_hat, the family's eta: once each
    assert len(computed) == len({id(form) for form, _ in computed}) == 4
    assert {thread for _, thread in computed} == {threading.main_thread()}
    dense = scale_kernel(kernel_zoo("rank1:b=0.3", g), 1.0)
    blocks = dense.diagonal_blocks()
    assert dense.diagonal_blocks() is blocks and not blocks.flags.writeable


# ---------------------------------------------------------------------------
# harmonic oscillator
# ---------------------------------------------------------------------------

def test_harmonic_lambda_zero_trivial(grid):
    r = verify_harmonic("volterra", 0.0, None, "one", grid, n_paths=2_000, seed=1)
    assert r.passed and r.rel_error == 0.0


def test_harmonic_volterra_cosh_oracle():
    g = make_grid(1.0, 256)
    r = verify_harmonic("volterra", 1.0, None, "one", g, n_paths=50_000, seed=5)
    assert r.passed
    oracle = np.cosh(1.0) ** -0.5
    det_side = np.exp(-0.5 * r.spectra["det_log"])
    assert abs(det_side - oracle) <= 0.01 * oracle
    assert abs(r.lhs.mean - oracle) <= max(3.0 * r.lhs.std_error, 0.01 * oracle)
    assert r.checks["det_dual_route"].passed


def test_harmonic_expdiag_matrix_valued(grid):
    r = verify_harmonic("expdiag:p=[0.5,-0.5]", 0.5, None, "one", grid,
                        dim=2, n_paths=40_000, seed=6)
    assert r.passed


def test_harmonic_with_direction(grid):
    r = verify_harmonic("expdiag:p=[0.5,-0.5]", 1.0, [1.0, 0.0], "one", grid,
                        dim=2, n_paths=40_000, seed=7)
    assert r.passed
    assert r.checks["lambda_nonpositive"].passed


def _halted_by_underflow(*args, **kwargs):
    """The report of a harmonic scenario whose every weight underflows, as
    its body left it when it halted with the PreconditionError that names it."""
    s = sc.resolve_scenario("harmonic", *args, **kwargs)
    (result,) = sc.drive([s.run()])
    assert isinstance(result, PreconditionError) and "underflows to 0" in str(result)
    return s.report


def test_lower_exp_harmonic_reads_the_riccati_determinant_whatever_f():
    # with f = cos_end the eigensolve of the dense B_c gave det_log 32.5938
    # against 32.6205 from the closed form (det_dual_route failed) and a gate
    # of 0.018 (lambda_nonpositive failed); it now builds the image kernel alone.
    # Every weight e^{-h} of this kernel underflows, so the run halts at its
    # identity, after these checks
    g = make_grid(1.0, 64)
    r = _halted_by_underflow("expdiag:p=[20]", "cos_end:1", g, n_paths=500, lam=1.0)
    assert r.checks["det_dual_route"].passed and r.checks["lambda_nonpositive"].passed
    assert r.gate["lambda_eta"] == 0.0
    want = operator.c_logdet(kernel_zoo("expdiag:p=[20]", g), 1.0)
    assert abs(r.spectra["det_log"] - want) <= 1e-12 * abs(want)


def test_harmonic_rejects_negative_lambda(grid):
    with pytest.raises(InvalidArgumentError):
        verify_harmonic("volterra", -1.0, None, "one", grid, n_paths=10, seed=0)


@pytest.mark.parametrize("functional", ["one", "cos_end:1"])
@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("x", [None, [1.0, 0.0]], ids=["no-x", "x"])
@pytest.mark.parametrize("spec", ["volterra", "expdiag:p=[0.5,-0.5]"])
def test_harmonic_of_lambda_is_harmonic_of_the_scaled_kernel(spec, x, lam, functional):
    # the identity of lambda is the identity of sqrt(lambda) kappa at lambda = 1:
    # c(sqrt(lambda) kappa) = lambda c(kappa) and h(sqrt(lambda) kappa) = lambda h(kappa)
    g = make_grid(1.0, 32)
    args = dict(functional=functional, grid=g, dim=2, n_paths=500, seed=3)
    got = verify_harmonic(spec, lam, x, **args)
    scaled = scale_kernel(kernel_zoo(spec, g, 2), np.sqrt(lam))
    want = verify_harmonic(scaled, 1.0, x, **args)

    def close(a, b):
        assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)

    close(got.gate["lambda_eta"], want.gate["lambda_eta"])
    for key in ("det_log", "hs_norm"):
        close(got.spectra[key], want.spectra[key])
    assert got.checks.keys() == want.checks.keys()
    for key, check in got.checks.items():
        close(check.value, want.checks[key].value)
    close(got.lhs.mean, want.lhs.mean)
    close(got.rhs.mean, want.rhs.mean)
    assert got.verdict == want.verdict == "pass"


@pytest.mark.parametrize("n, lams", [(64, [0.0, 1e-8, 0.5, 1.0, 4.0]), (512, [1.0])])
@pytest.mark.parametrize("spec, dim", [("volterra", 1), ("expdiag:p=[0.5,-0.5]", 2),
                                       ("expdiag:p=[3.0]", 1), ("expdiag:p=[-50]", 1),
                                       ("expdiag:p=[-2000]", 1)])
def test_lower_exp_harmonic_matches_the_dense_route(spec, dim, n, lams):
    # the Riccati recursion, the gate 0, the closed-form norm and determinant
    # against the eigensolve, the Frobenius norm and the slogdet of the same
    # kernel given by its matrix
    g = make_grid(1.0, n)
    kappa = kernel_zoo(spec, g, dim)
    dense = replace(kappa, factored=None)
    for lam in lams:
        got, want = (verify_harmonic(k, lam, None, "one", g, dim=dim, n_paths=100, seed=2)
                     for k in (kappa, dense))
        pairs = [(got.gate["lambda_eta"], want.gate["lambda_eta"])]
        pairs += [(got.spectra[key], want.spectra[key]) for key in ("det_log", "hs_norm")]
        dual, dual_dense = got.checks["det_dual_route"], want.checks["det_dual_route"]
        pairs += [(dual.value, dual_dense.value), (dual.target, dual_dense.target)]
        for a, b in pairs:
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (lam, a, b)
        assert dual.passed and got.checks["lambda_nonpositive"].passed


def test_lower_exp_harmonic_of_a_large_rate_reads_a_finite_determinant():
    # an accepted kernel whose dense B_c is past the float range: the
    # Riccati recursion and the closed form stay finite and agree
    r = _halted_by_underflow("expdiag:p=[400]", "one", make_grid(1.0, 64), n_paths=200,
                             seed=0, lam=1.0)
    assert np.isfinite(r.spectra["det_log"])
    assert r.checks["det_dual_route"].passed


def test_a_side_whose_every_weight_underflows_halts():
    # every weight e^{-h} is 0 against the exact right-hand side 6.3e-170: the
    # run ended at 'fail' with rel error 1, a verdict on no test of the identity
    with pytest.raises(PreconditionError, match=r"underflows to 0, against the exact side 6\.3e-170"):
        verify_harmonic("expdiag:p=[400]", 1.0, None, "one", make_grid(1.0, 64), n_paths=200)


def _record_kernels(monkeypatch) -> list:
    """Whether each kernel built is dense, in order; scale_kernel raises."""
    dense, post_init = [], gk.MatrixKernel.__post_init__

    def recorded(self):
        post_init(self)
        dense.append(self.factored is None)

    def no_scaling(*args):
        raise AssertionError("scale_kernel called")
    monkeypatch.setattr(gk.MatrixKernel, "__post_init__", recorded)
    monkeypatch.setattr(gk, "scale_kernel", no_scaling)
    return dense


def test_harmonic_builds_one_dense_kernel_and_scales_none(monkeypatch):
    # the c kernel of kappa is eigensolved once and read at the factor -lambda:
    # no copy of sqrt(lambda) kappa, and no copy of c with its sign flipped.
    # A direction takes volterra's dense route
    dense = _record_kernels(monkeypatch)
    r = verify_harmonic("volterra", 2.0, [1.0], "one", make_grid(1.0, 32), n_paths=500)
    assert r.passed
    assert dense == [False, True]  # the zoo's form of kappa, then c(kappa; x)


def test_lower_exp_harmonic_builds_no_kernel_and_scales_none(monkeypatch):
    # f = 1 and no direction: the Riccati recursion reads the rates of kappa
    dense = _record_kernels(monkeypatch)
    r = verify_harmonic("volterra", 2.0, None, "one", make_grid(1.0, 32), n_paths=500)
    assert r.passed
    assert dense == [False]  # the zoo's form of kappa alone


def test_zero_paths_is_a_typed_error(grid):
    # both Monte Carlo reducers: the path one and the plain Gaussian one
    with pytest.raises(InvalidArgumentError, match="paths must be >= 1"):
        verify_transf("rank1:b=0.3", "cos_end:1.0", grid, n_paths=0, seed=0)
    with pytest.raises(InvalidArgumentError, match="paths must be >= 1"):
        verify_finite_dim(np.diag([0.2, -0.1]), "cos_sum", n_samples=0, seed=0)


@pytest.mark.parametrize("run", [
    lambda g: verify_transf("rank1:b=0.3", None, g),
    lambda g: verify_inverse("rank1:b=0.3", None, g),
    lambda g: verify_surjective("rank1:b=0.3", None, g),
    lambda g: sweep_laplace("rank1:b=0.3", [0.5], None, g),
    lambda g: verify_harmonic("rank1:b=0.3", 1.0, None, None, g),
    lambda g: verify_cameron_martin("const:c=1", None, g),
    lambda g: verify_gencv_example(g, functional=None),
], ids=["transf", "inverse", "surjective", "sweep", "harmonic", "cameron_martin", "gencv"])
def test_missing_functional_is_a_typed_error_before_any_work(grid, monkeypatch, run):
    solved = []
    monkeypatch.setattr(operator, "spectrum", lambda *args, **kwargs: solved.append(args))
    with pytest.raises(InvalidArgumentError, match="needs a functional"):
        run(grid)
    assert not solved


@pytest.mark.parametrize("run, verdict", [
    # the gate 1 - 1e-6 admits the kernel; the LU pivot ratio 1e-15 is singular
    (lambda g: verify_transf("remark_gencv:b1=1e12,b2=-0.999", "cos_end:1.0", g), "singular"),
    (lambda g: verify_inverse("remark_gencv:b1=1e12,b2=-0.999", "cos_end:1.0", g), "singular"),
    (lambda g: verify_inverse("rank1:b=-1", "cos_end:1.0", g), "rejected-by-hypothesis"),
    # c = -2 / (1 - 1/N): I + B_kappa_phi is singular, so the gate reaches 1
    (lambda g: verify_cameron_martin("const:c=-2.0317460317460316", "cos_end:1.0", g),
     "rejected-by-hypothesis"),
], ids=["transf-singular", "inverse-singular", "inverse-gate", "cameron_martin-gate"])
def test_a_halted_scenario_draws_no_paths(monkeypatch, run, verdict):
    drawn = []
    monkeypatch.setattr(stochastic, "path_blocks", lambda *args, **kwargs: drawn.append(args))
    r = run(make_grid(1.0, 64))
    assert r.verdict == verdict
    assert r.lhs is None and r.rhs is None
    assert not drawn


# ---------------------------------------------------------------------------
# linear transformations
# ---------------------------------------------------------------------------

def test_cameron_martin_zero_exact(grid):
    r = verify_cameron_martin("zero", "cos_end:1.0", grid, n_paths=5_000, seed=1)
    assert r.passed
    _assert_exact_rhs(r, np.exp(-0.5))


def test_cameron_martin_constant_phi():
    g = make_grid(1.0, 512)
    r = verify_cameron_martin("const:c=1", "cos_end:1.0", g, n_paths=60_000, seed=7)
    assert r.passed
    # rank-one Fredholm determinant: 1 + c T^2/2 - the exact 1/(2N) grid shift
    det = np.exp(r.spectra["det_log"])
    npt.assert_allclose(det, 1.5 - 1.0 / (2.0 * g.n_steps), rtol=1e-10)
    assert abs(det - 1.5) <= 1e-3
    for check in ("trace_formula", "det2_consistency", "pathwise_drift"):
        assert r.checks[check].passed


def test_trace_formula_sees_an_inclusive_tail_sum(monkeypatch):
    # the target is the exponent's trace correction alone, the sum over u > s,
    # so a tail sum over u >= s fails it
    g = make_grid(1.0, 64)

    def inclusive_tail(phi):
        tail = np.cumsum(phi.values[:, ::-1], axis=1)[:, ::-1]
        return gk.MatrixKernel(g, phi.dim, np.ascontiguousarray(tail) * g.step)

    check = verify_cameron_martin("const:c=1", "one", g, n_paths=200).checks["trace_formula"]
    assert check.passed
    monkeypatch.setattr(gk, "kappa_from_phi", inclusive_tail)
    check = verify_cameron_martin("const:c=1", "one", g, n_paths=200).checks["trace_formula"]
    # the tail sum keeps the diagonal phi(t_i, t_i) Delta: N Delta^2 = 1 / N of the trace
    assert not check.passed
    npt.assert_allclose(check.value - check.target, 1.0 / 64, rtol=1e-9)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_cameron_martin_is_exact_on_a_coarse_grid(seed):
    # the identity is the exact change of variables on R^{N d}, so at N = 16
    # the z measures Monte Carlo error alone; a tail sum over u >= s biases
    # it by O(Delta), to z of about 22 to 25 at these seeds
    r = verify_cameron_martin("const:c=1", "cos_end:1.0", make_grid(1.0, 16),
                              n_paths=400_000, seed=seed)
    assert r.passed and abs(r.z_score) <= 4.0


def _whole_batch_probe_gap(kind, kernel, seed):
    """The pathwise check's value from one (PROBE_PATHS, N d) batch, the
    first paths of the left-hand stream (one chunk at these N): the round
    trip of inverse, or the drift of cameron_martin."""
    assert sc._chunk_sizes(sc.PROBE_PATHS, kernel.grid.n_steps) == [sc.PROBE_PATHS]
    probe = sample_paths(kernel.grid, kernel.dim, sc.PROBE_PATHS, seed,
                         stream=(sc._STREAM_LHS, 0, kernel.grid.n_steps))
    if kind == "inverse":
        kappa_hat = operator.inverse_kernel(kernel)
        err = max(np.max(np.abs(stochastic.apply_transformation(
            outer, stochastic.apply_transformation(inner, probe)).increments - probe.increments))
            for inner, outer in ((kappa_hat, kernel), (kernel, kappa_hat)))
        return err / max(1.0, np.max(np.abs(probe.increments)))
    integral = stochastic.wiener_integral(gk.kappa_from_phi(kernel), probe)
    err = np.max(np.abs(stochastic.cameron_martin_drift(kernel, probe) - integral))
    return err / max(1.0, np.max(np.abs(integral)))


@pytest.mark.parametrize("kind, spec, check", [
    ("inverse", "rank1:b=0.1", "composition_roundtrip"),
    ("cameron_martin", "const:c=1", "pathwise_drift"),
])
def test_probe_checks_run_in_blocks_and_read_the_whole_batch_value(kind, spec, check):
    # at N d = 4096 one (PROBE_PATHS, N d) batch is 31 MiB: the probes run in
    # blocks of PATH_BLOCK increments, so the whole run peaks below a quarter
    # of one, and the check reads the value of the whole batch
    import tracemalloc

    g, seed = make_grid(1.0, 4096), 3
    run = verify_inverse if kind == "inverse" else verify_cameron_martin
    tracemalloc.start()
    try:
        r = run(spec, "one", g, n_paths=256, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.passed
    assert peak < sc.PROBE_PATHS * g.n_steps * 8 / 4
    want = _whole_batch_probe_gap(kind, kernel_zoo(spec, g), seed)
    assert abs(r.checks[check].value - want) <= 1e-15


def _spy_passes(monkeypatch) -> list:
    """Every `_mc_paths` pass, as (N, seed, stream id, the paths each of its
    requests reads)."""
    passes, mc_paths = [], sc._mc_paths

    def counted(key, requests):
        passes.append((key[0].n_steps, key[1], key[2], [r.n_paths for r in requests]))
        return mc_paths(key, requests)
    monkeypatch.setattr(sc, "_mc_paths", counted)
    return passes


@pytest.mark.parametrize("run, probes", [
    (lambda: verify_transf("rank1:b=0.3", "cos_end:1", MEAN_GRID, n_paths=400, seed=3), 0),
    (lambda: verify_inverse("rank1:b=0.3", "cos_end:1", MEAN_GRID, n_paths=400, seed=3), 1),
    (lambda: verify_surjective("rank1:b=0.5", "cos_end:1", MEAN_GRID, n_paths=400, seed=3), 0),
    (lambda: sweep_laplace("rank1:b=0.5", [0.25, 0.5], "one", MEAN_GRID, n_paths=400,
                           seed=3), 0),
    (lambda: verify_harmonic("volterra", 1.0, [1.0], "cos_end:1", MEAN_GRID, n_paths=400,
                             seed=3), 0),
    (lambda: verify_cameron_martin("const:c=1", "cos_end:1", MEAN_GRID, n_paths=400,
                                   seed=3), 1),
    (lambda: verify_gencv_example(MEAN_GRID, n_paths=400, seed=3), 0),
    (lambda: verify_integrability_bound("rank1:b=0.5", MEAN_GRID, n_paths=400, seed=3), 0),
    # A on 16 unit steps
    (lambda: verify_finite_dim(np.diag(np.full(16, 0.1)), n_samples=400, seed=3), 0),
], ids=["transf", "inverse", "surjective", "sweep", "harmonic", "cameron_martin", "gencv",
        "integrability", "finite_dim"])
def test_each_verify_is_one_pass_of_one_stream(monkeypatch, run, probes):
    # a scenario yields once, through identity: its left-hand pass and each
    # pathwise check are requests of one pass over the left-hand stream
    passes = _spy_passes(monkeypatch)
    run()
    assert passes == [(16, 3, sc._STREAM_LHS, [400] + [sc.PROBE_PATHS] * probes)]


def test_estimate_and_probe_are_plain_methods():
    # they return the requests that identity yields to drive, once
    import inspect

    assert not hasattr(sc, "_STREAM_PROBE") and not hasattr(sc, "_ROUNDS")
    for method in (sc.Scenario.estimate, sc.Scenario.probe):
        assert not inspect.isgeneratorfunction(method)
    assert inspect.isgeneratorfunction(sc.Scenario.identity)


@pytest.mark.parametrize("kind, spec, check", [
    ("inverse", "rank1:b=0.3", "composition_roundtrip"),
    ("cameron_martin", "const:c=1", "pathwise_drift"),
])
def test_a_probe_reads_its_paths_past_the_left_hand_count(monkeypatch, kind, spec, check):
    # 64 left-hand paths: the stream is drawn for the PROBE_PATHS paths the
    # pathwise check reads, of which the estimate reads the first 64
    draws, path_blocks = [], stochastic.path_blocks

    def recorded(grid, dim, n_paths, *args, **kwargs):
        draws.append(int(np.max(n_paths)))
        return path_blocks(grid, dim, n_paths, *args, **kwargs)
    monkeypatch.setattr(stochastic, "path_blocks", recorded)
    run = verify_inverse if kind == "inverse" else verify_cameron_martin
    r = run(spec, "cos_end:1", MEAN_GRID, n_paths=64, seed=5)
    assert draws == [sc.PROBE_PATHS]
    assert r.lhs.n_samples == 64
    want = _whole_batch_probe_gap(kind, kernel_zoo(spec, MEAN_GRID), 5)
    assert abs(r.checks[check].value - want) <= 1e-15


# ---------------------------------------------------------------------------
# general-change-of-variables counterexample
# ---------------------------------------------------------------------------

def test_gencv_spectral_triple(grid):
    r = verify_gencv_example(grid, n_paths=60_000, seed=4)
    assert r.passed
    npt.assert_allclose(r.checks["lambda_s"].value, 6.0, atol=1e-8)
    npt.assert_allclose(r.checks["lambda_eta"].value, 0.0, atol=1e-8)
    npt.assert_allclose(r.checks["det2_value"].value, 2.0 * np.exp(5.0), rtol=1e-8)
    assert r.spectra["lambda_s"] > 2.0 and r.spectra["lambda_eta"] < 1.0


@pytest.mark.parametrize("b1, b2", [(0.5, -0.5), (0.2, 0.3), (-0.5, -3.0), (-2.0, -3.0)])
def test_gencv_closed_forms_hold_for_every_b(b1, b2):
    # each target is the largest of both directions' eigenvalues and of the
    # zeros on the other N - 2 grid directions, whatever the signs of b
    r = verify_gencv_example(make_grid(1.0, 64), b1, b2, "cos_end:1.0", 2_000, 5)
    for check in ("lambda_s", "lambda_eta", "det2_value"):
        assert r.checks[check].passed, (check, r.checks[check])
    assert [r.checks[c].note for c in ("lambda_s", "lambda_eta")] == [
        "Lambda(B_s) = max(0, -2 b1, -2 b2)",
        "Lambda(B_eta) = max(0, 1 - (1+b1)^2, 1 - (1+b2)^2)",
    ]


def test_gencv_builds_its_kernel_from_the_exact_b():
    # the spec was formatted with :g, so b1 = -2.0000123 built the kernel of
    # -2.00001 while the closed forms read -2.0000123: det2_value failed
    r = verify_gencv_example(make_grid(1.0, 64), -2.0000123, -3.0, "cos_end:1.0", 2_000, 1)
    assert r.provenance["kernel"] == "remark_gencv:b1=-2.0000123,b2=-3"
    for check in ("lambda_s", "lambda_eta", "det2_value"):
        assert r.checks[check].passed, (check, r.checks[check])
    assert r.verdict == "pass"


def test_gencv_closed_forms_on_two_nodes():
    # N = 2: the two directions of the kernel are the whole grid, with no zeros
    r = verify_gencv_example(make_grid(1.0, 2), 0.2, 0.3, "cos_end:1.0", 200, 5)
    npt.assert_allclose([r.checks["lambda_s"].target, r.checks["lambda_eta"].target],
                        [-0.4, 1.0 - 1.2 ** 2])
    assert r.checks["lambda_s"].passed and r.checks["lambda_eta"].passed
    assert r.checks["lambda_s"].note == "Lambda(B_s) = max(-2 b1, -2 b2)"


def test_gencv_is_the_transf_row_of_its_own_kernel(grid):
    g = verify_gencv_example(grid, -2.0, -3.0, "cos_end:1.0", 3_000, 7)
    t = verify_transf("remark_gencv:b1=-2,b2=-3", "cos_end:1.0", grid, 1, 3_000, 7)
    assert (g.lhs, g.rhs, g.z_score, g.gate) == (t.lhs, t.rhs, t.z_score, t.gate)


def test_gencv_singular_variant(grid):
    r = verify_gencv_example(grid, b1=-1.0, b2=-1.0, n_paths=10, seed=4)
    assert r.verdict == "singular"


# ---------------------------------------------------------------------------
# integrability bound
# ---------------------------------------------------------------------------

def test_integrability_zero_is_equality(grid):
    r = verify_integrability_bound("zero", grid, n_paths=1_000, seed=5)
    assert r.passed
    assert r.spectra["bound"] == 1.0 and r.lhs.mean == 1.0


def test_integrability_rank_one_numbers(grid):
    # bound at lambda = 1/2, ||eta||^2 = 1/4:
    # exp(1/2 (1/2 + (1/2)/(3/8)) / 4) = exp(11/48)
    npt.assert_allclose(integrability_bound(0.5, 0.5), np.exp(11.0 / 48.0), rtol=1e-12)
    assert abs(integrability_bound(0.5, 0.5) - 1.2575) <= 1e-4
    npt.assert_allclose(rank1_exp_q_moment(0.5), 1.1014, atol=1e-4)
    r = verify_integrability_bound("rank1:b=0.5", grid, n_paths=60_000, seed=5)
    assert r.passed
    assert r.checks["bound"].passed and r.checks["identity"].passed
    _assert_exact_rhs(r, rank1_exp_q_moment(0.5))
    assert r.spectra["exact_value"] == r.rhs.mean
    assert r.gate["guard"] == "ok_no_ci"


@pytest.mark.parametrize("spec", [" rank1:b=0.5", "rank1 : b = 0.5 ", "rank1:n=1, b=0.5"])
def test_integrability_equivalent_spellings_give_equal_reports(grid, spec):
    # the report reads the kernel, not its spelling: only the name and the
    # provenance's kernel, the spec as given, may differ
    def spelled_out(s):
        d = verify_integrability_bound(s, grid, n_paths=2_000, seed=5).to_dict()
        assert d.pop("name") == f"integrability[{s}]" and d["provenance"].pop("kernel") == s
        return d
    assert spelled_out(spec) == spelled_out("rank1:b=0.5")


def test_integrability_negative_spectrum(grid):
    # 0 v lambda = 0: bound collapses to exp(||eta||^2 / 4) = e
    r = verify_integrability_bound("rank1:b=-2", grid, n_paths=40_000, seed=6)
    assert r.passed and r.checks["identity"].passed
    npt.assert_allclose(r.spectra["bound"], np.exp(1.0), rtol=1e-10)
    _assert_exact_rhs(r, rank1_exp_q_moment(-2.0))
    npt.assert_allclose(r.rhs.mean, (3.0 * np.exp(-2.0)) ** -0.5, rtol=1e-12)


NO_ORACLE_ETAS = [("const:c=0.2", 1), ("const:c=0.2", 2), ("rank2:b=0.2,c=0.3,member=1", 1),
                  ("remark_gencv:b1=0.1,b2=0.2", 1)]


@pytest.mark.parametrize("spec, dim", NO_ORACLE_ETAS)
def test_integrability_is_the_surjective_identity_for_any_eta(monkeypatch, spec, dim):
    # the right-hand side is det2(I - B_eta)^{-1/2}, here against an eigvalsh
    # of the assembled operator matrix; the left-hand side is surjective's
    # with f = 1, drawn from the left-hand stream alone
    g = make_grid(1.0, 64)
    w = np.linalg.eigvalsh(operator.assemble(kernel_zoo(spec, g, dim)))
    streams, path_blocks = [], stochastic.path_blocks

    def recorded(*args, **kwargs):
        streams.append(kwargs["stream"])
        return path_blocks(*args, **kwargs)
    monkeypatch.setattr(stochastic, "path_blocks", recorded)
    r = verify_integrability_bound(spec, g, dim, n_paths=3_000, seed=4)
    assert streams and all(stream[0] == 0 for stream in streams)
    assert r.passed and r.checks["identity"].passed and r.checks["bound"].passed
    _assert_exact_rhs(r, np.prod((1.0 - w) * np.exp(w)) ** -0.5)
    assert r.lhs == verify_surjective(spec, "one", g, dim, n_paths=3_000, seed=4).lhs


def test_integrability_fails_a_bound_below_the_estimate(grid, monkeypatch):
    monkeypatch.setattr(sc, "integrability_bound", lambda lam, hs_norm: 0.5)
    r = verify_integrability_bound("rank1:b=0.2", grid, n_paths=4_000, seed=5)
    assert r.checks["identity"].passed and not r.checks["bound"].passed
    assert r.verdict == "fail"


def test_integrability_gate(grid):
    r = verify_integrability_bound("rank1:b=1.0", grid, n_paths=10, seed=0)
    assert r.verdict == "rejected-by-hypothesis"


# ---------------------------------------------------------------------------
# determinism and refinement
# ---------------------------------------------------------------------------

def test_reports_are_bit_reproducible(grid):
    import json

    a = verify_transf("rank1:b=0.3", "cos_end:1.0", grid, n_paths=20_000, seed=7)
    b = verify_transf("rank1:b=0.3", "cos_end:1.0", grid, n_paths=20_000, seed=7)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    c = verify_transf("rank1:b=0.3", "cos_end:1.0", grid, n_paths=20_000, seed=8)
    assert a.lhs.mean != c.lhs.mean


def test_refinement_smoke():
    # doubling N keeps the closed-form comparisons inside their tolerances
    for n in (128, 256):
        g = make_grid(1.0, n)
        r = verify_harmonic("volterra", 1.0, None, "one", g, n_paths=20_000, seed=9)
        oracle = np.cosh(1.0) ** -0.5
        det_side = np.exp(-0.5 * r.spectra["det_log"])
        assert abs(det_side - oracle) <= 0.01 * oracle
        r2 = verify_transf("rank1:b=0.3", "one", g, n_paths=20_000, seed=9)
        assert r2.passed


# ---------------------------------------------------------------------------
# the chunk reducer and its pool
# ---------------------------------------------------------------------------

def _estimates(report):
    return [(e.mean, e.std_error, e.n_samples, e.ci_valid, e.chunk_means)
            for e in (report.lhs, report.rhs)]


def test_worker_count_does_not_change_estimates(monkeypatch):
    # 1,100 paths of 32 increments in chunks of at most 200 paths: 6 chunks,
    # the last of 100 paths a sub-batch with the fifth
    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 32 * 200)
    g = make_grid(1.0, 32)
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(sc, "WORKERS", workers)
        runs[workers] = [
            verify_transf("rank1:b=0.3", "cos_end:1.0", g, n_paths=1_100, seed=5),
            verify_inverse("volterra", "cos_mid:1.0,0.5", g, n_paths=1_100, seed=5),
            verify_cameron_martin("const:c=1", "cos_end:1.0", g, n_paths=1_100, seed=5),
            verify_surjective("rank1:b=0.5", "exp_negsq", g, n_paths=1_100, seed=5),
            verify_finite_dim(np.diag([0.2, -0.1]), "cos_sum", n_samples=3_300, seed=5),
            verify_harmonic("expdiag:p=[0.5,-0.5]", 0.5, [1.0, -0.5], "cos_end:1.0", g, 2,
                            n_paths=1_100, seed=5),
            # one row per lambda, merged row by row, all controlled by one q
            *sweep_laplace("rank1:b=0.5", [0.25, 1.0, 0.5], "cos_end:1.0", g, n_paths=1_100,
                           seed=5),
        ]
    assert len(runs[1][0].lhs.chunk_means) == 5
    assert runs[1][3].lhs.ci_valid is False  # the median-of-chunk-means fallback
    assert runs[1][3].lhs.control is None
    # controlled sides: transf's q, harmonic's h, and the Laplace family's one control
    assert runs[1][0].lhs.control and runs[1][5].lhs.control
    laplace = [r for r in runs[1][6:] if r.lhs.control]  # lambda = 1 is CI-less
    assert len(laplace) == 2 and laplace[0].lhs.control.mean == laplace[1].lhs.control.mean
    for one, two in zip(runs[1], runs[2]):
        assert _estimates(one) == _estimates(two), one.name
        assert one.to_dict() == two.to_dict()


class _ChunkFailure(RuntimeError):
    pass


def test_chunk_exception_propagates_and_the_pool_stops(monkeypatch):
    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 16 * 10)
    monkeypatch.setattr(sc, "WORKERS", 2)
    g = make_grid(1.0, 16)

    def per_path(batch):
        if batch.stream[1] == 3:
            raise _ChunkFailure("chunk 3")
        return batch.value_at_node(g.n_steps)[:, 0]

    before = threading.active_count()
    with pytest.raises(_ChunkFailure, match="chunk 3"):
        _pass(g, 1, 80, 0, 0, per_path)
    assert threading.active_count() == before
    (est,) = _pass(g, 1, 80, 0, 0, lambda b: b.value_at_node(g.n_steps)[:, 0])
    assert est.n_samples == 80 and len(est.chunk_means) == 8


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_blocks_reproduce_the_fresh_chunk(monkeypatch, workers):
    # 8 chunks of 10 paths, each drawn in blocks of 3, 3, 3 and 1 paths
    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 16 * 10)
    monkeypatch.setattr(sc, "PATH_BLOCK", 16 * 3)
    monkeypatch.setattr(sc, "WORKERS", workers)
    g = make_grid(1.0, 16)
    blocks, lock = [], threading.Lock()

    def per_path(batch):
        with lock:
            blocks.append(batch.n_paths)
        return batch.value_at_node(g.n_steps)[:, 0]

    (est,) = _pass(g, 1, 80, 0, 0, per_path)
    assert len(est.chunk_means) == 8 and sorted(blocks) == [1] * 8 + [3] * 24
    for idx, size in enumerate(sc._chunk_sizes(80, 16)):
        fresh = next(stochastic.path_blocks(g, 1, size, 0, stream=(0, idx, g.n_steps),
                                            net=((0,), 10 * idx)))
        npt.assert_allclose(est.chunk_means[idx], fresh.value_at_node(g.n_steps)[:, 0].mean(),
                            rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n_paths,ends", [(11, [11]), (21, [10, 21]), (25, [10, 25]),
                                          (30, [10, 20, 30])])
def test_a_short_last_chunk_joins_the_one_before_it_in_the_median(monkeypatch, n_paths, ends):
    # chunks of 10 paths: at n = cap + 1 the chunks are 10 and 1, but the
    # median fallback reads one sub-batch of all 11 paths, not the mean of a
    # chunk beside a single path; a full last chunk is a sub-batch of its own
    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 16 * 10)
    monkeypatch.setattr(sc, "WORKERS", 1)
    g = make_grid(1.0, 16)
    drawn = []

    def per_path(batch):
        drawn.append(batch.value_at_node(g.n_steps)[:, 0].copy())
        return drawn[-1]

    (est,) = _pass(g, 1, n_paths, 0, 0, per_path)
    vals = np.concatenate(drawn)
    assert len(drawn) == -(-n_paths // 10) and est.n_samples == n_paths
    want = [vals[start:end].mean() for start, end in zip([0] + ends[:-1], ends)]
    npt.assert_allclose(est.chunk_means, want, rtol=1e-13, atol=1e-15)
    npt.assert_allclose(est.mean, vals.mean(), rtol=1e-13, atol=1e-15)
    npt.assert_allclose(est.median, np.median(want), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("spec,dim", [("rank1:b=0.3", 1), ("const_phi:c=-0.4", 2),
                                      ("volterra", 1), ("expdiag:p=[0.5,-0.5]", 2)])
def test_reductions_do_not_depend_on_the_path_block(spec, dim, monkeypatch):
    # 50 paths of one chunk, in one block and in blocks of 7: seven full
    # blocks and a ragged one of 1 path, on the factored kernel, its eta and a
    # dense copy of it.  BLAS may sum a block's products in another order, so
    # the moments agree to 1e-13 of the largest value: h with x of the dense
    # const_phi copy has a path that cancels to 3.7e-7, whose last bits move
    # by 1.3e-13 of itself
    g = make_grid(1.0, 64)
    kappa = kernel_zoo(spec, g, dim)
    kernels = [kappa, gk.eta_of_kappa(kappa), scale_kernel(kappa, 1.0)]
    weights, x = stochastic.node_weights(kappa, 40), np.linspace(1.0, 0.5, dim)
    largest, blocks = np.zeros(1 + 3 * len(kernels) + dim), []

    def per_path(batch):
        blocks.append(batch.n_paths)
        vals = np.array([stochastic.quadratic_form(kernels[1], batch)]
                        + [fn(k, batch) for k in kernels
                           for fn in (stochastic.h_functionals,
                                      lambda k, b: stochastic.h_functionals(k, b, x),
                                      stochastic.cm_exponent)]
                        + list(stochastic.node_value(batch, weights).T))
        np.maximum(largest, np.max(np.abs(vals), axis=1), out=largest)
        return vals

    def moments():
        blocks.clear()
        ests = _pass(g, dim, 50, 11, 0, per_path)
        assert max(blocks) <= max(1, sc.PATH_BLOCK // 64)
        return np.array([(e.mean, e.std_error) for e in ests])

    whole = moments()
    assert blocks == [50]
    monkeypatch.setattr(sc, "PATH_BLOCK", 7 * 64)
    blocked = moments()
    assert blocks == [7] * 7 + [1]
    for row, (got, want) in enumerate(zip(blocked, whole)):
        npt.assert_allclose(got, want, rtol=0, atol=1e-13 * largest[row], err_msg=f"row {row}")


@pytest.mark.parametrize("n_paths,n_steps,sizes", [
    (50_000, 256, [16_384] * 3 + [848]), (60_000, 1024, [4_096] * 14 + [2_656]),
    (2_048, 2_048, [2_048]), (4_000, 64, [4_000]), (1, 1 << 23, [1]),
])
def test_chunk_plan_examples(n_paths, n_steps, sizes):
    assert sc._chunk_sizes(n_paths, n_steps) == sizes


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**7), n_steps=st.integers(1, 1 << 24))
def test_chunk_plan_is_full_chunks_and_a_last_one(n, n_steps):
    # cap = CHUNK_ELEMENTS // N paths per chunk, whatever the dimension: the
    # chunks of n paths are those of any larger count, cut at n
    sizes = sc._chunk_sizes(n, n_steps)
    cap = max(1, sc.CHUNK_ELEMENTS // n_steps)
    assert sum(sizes) == n
    assert sizes[:-1] == [cap] * (len(sizes) - 1) and 1 <= sizes[-1] <= cap
    assert len(sizes) == -(-n // cap)


def _reads(g, reads):
    """Per (n_paths, dim) of reads, the (chunk, increments) of each batch it
    reads in one `_mc_paths` pass of them all."""
    seen = [[] for _ in reads]

    def reader(r):
        def per_path(batch):
            seen[r].append((batch.stream[1], batch.increments.copy()))
            return np.zeros(batch.n_paths)
        return per_path
    merge = partial(sc._merged, scale=1.0, ci_valid=True)
    sc._mc_paths((g, 9, sc._STREAM_LHS),
                 [sc._Request(None, n, d, reader(r), sc._moments, sc._chan, merge)
                  for r, (n, d) in enumerate(reads)])
    return seen


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 60), extra=st.integers(0, 40), d=st.integers(1, 2),
       extra_d=st.integers(0, 1), n_steps=st.sampled_from([16, 64, 300]))
def test_a_pass_reads_the_prefix_of_a_larger_one(n, extra, d, extra_d, n_steps):
    # chunks of 13 paths in blocks of 5: the first n paths and d components of
    # a pass read at (n', d') are, chunk by chunk, the bits of a pass read at
    # (n, d), and a reader of (n, d) beside one of (n', d') reads, block by
    # block, the contiguous batches of its pass alone
    g = make_grid(1.0, n_steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "CHUNK_ELEMENTS", 13 * n_steps)
        mp.setattr(sc, "PATH_BLOCK", 5 * n_steps)
        mp.setattr(sc, "WORKERS", 1)
        (alone,) = _reads(g, [(n, d)])
        large, fused = _reads(g, [(n + extra, d + extra_d), (n, d)])
        plan = sc._chunk_sizes(n, n_steps)
    assert [chunk for chunk, _ in alone] == [idx for idx in range(-(-n // 13))
                                             for _ in range(-(-min(13, n - 13 * idx) // 5))]
    for (chunk, want), (fused_chunk, got) in zip(alone, fused, strict=True):
        assert chunk == fused_chunk and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    assert plan == [13] * (n // 13) + [n % 13] * (n % 13 > 0)
    for idx, size in enumerate(plan):
        want = np.concatenate([inc for chunk, inc in alone if chunk == idx])
        got = np.concatenate([inc for chunk, inc in large if chunk == idx])
        assert got[:size, :, :d].tobytes() == want.tobytes()


def test_controlled_estimate_is_stable_for_any_chunking(monkeypatch):
    # y and its control x, each 1e8 + a unit Gaussian: beta, the controlled mean
    # and its residual error on n - 2 degrees of freedom are those of np.cov
    def per_sample(batch):
        xi = batch.increments[:, :, 0]
        vals = np.stack([1e8 + xi[:, 0] + 0.5 * xi[:, 1], 1e8 + xi[:, 0]])
        drawn.append(vals)
        return vals

    exact = 1e8  # the control's exact mean
    merge = partial(sc._merged, scale=1.0, ci_valid=True, controls=[(1, exact)])
    monkeypatch.setattr(sc, "WORKERS", 1)
    for cap in (1 << 22, 3_000, 1_024, 7):
        monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 2 * cap)
        drawn = []
        (est,) = sc._mc_paths((TimeGrid(1.0, 2), 3, 0), [sc._Request(
            None, 10_000, 1, per_sample, sc._moments, sc._chan, merge)])[0]
        y, x = np.concatenate(drawn, axis=1)
        n, cov, gap = y.size, np.cov(y, x), np.mean(x - exact)  # x - 1e8 is exact
        beta = cov[0, 1] / cov[1, 1]
        npt.assert_allclose(est.control.beta, beta, rtol=1e-12)
        npt.assert_allclose(est.control.mean, x.mean(), rtol=1e-15)
        npt.assert_allclose(est.mean, exact + (np.mean(y - exact) - beta * gap), rtol=1e-15)
        residual = (cov[0, 0] - beta * cov[0, 1]) * (n - 1) / (n - 2)
        npt.assert_allclose(est.std_error ** 2 * n, residual, rtol=1e-12)
        npt.assert_allclose(est.control.z, abs(gap) / np.sqrt(cov[1, 1] / n), rtol=1e-12)
        # the sub-batch means stay plain
        assert len(est.chunk_means) == max(1, 10_000 // cap)
        npt.assert_allclose(est.chunk_means[0], y[:min(cap, n)].mean(), rtol=1e-15)


@pytest.mark.parametrize("values, controlled", [
    (lambda xi: [xi[:, 0] + xi[:, 1], np.zeros(len(xi))], False),  # a control of no variance
    (lambda xi: [xi[:, 0] + xi[:, 1], xi[:, 0]], True),
])
@pytest.mark.parametrize("n_paths", [1, 2, 3])
def test_a_side_stays_plain_without_a_usable_control(values, controlled, n_paths):
    # fewer than 3 paths, or a control of zero variance (the zero kernel's):
    # the plain mean and standard error
    g = TimeGrid(1.0, 2)
    merge = partial(sc._merged, scale=2.0, ci_valid=True, controls=[(1, 0.0)])
    seen = []

    def per_path(batch):
        seen.append(values(batch.increments[:, :, 0]))
        return seen[-1]
    (est,) = sc._mc_paths((g, 4, 0), [sc._Request(None, n_paths, 1, per_path, sc._moments,
                                                   sc._chan, merge)])[0]
    y = np.concatenate([v[0] for v in seen])
    assert (est.control is not None) == (controlled and n_paths >= 3)
    if est.control is None:
        npt.assert_allclose(est.mean, 2.0 * y.mean(), rtol=1e-15)
        if n_paths > 1:
            npt.assert_allclose(est.std_error, 2.0 * np.std(y, ddof=1) / np.sqrt(n_paths),
                                rtol=1e-12)


def test_merged_variance_is_stable_for_any_chunking(monkeypatch):
    # values 1e8 + N(0, 1): sum x^2 - n mean^2 cancels every significant digit
    def per_sample(batch):
        vals = 1e8 + batch.increments[:, 0, 0]
        drawn.append(vals)
        return vals

    monkeypatch.setattr(sc, "WORKERS", 1)
    for cap in (1 << 22, 3_000, 1_024, 7):
        monkeypatch.setattr(sc, "CHUNK_ELEMENTS", cap)
        drawn = []
        (est,) = _pass(TimeGrid(1.0, 1), 1, 10_000, 3, 0, per_sample)
        vals = np.concatenate(drawn)
        two_pass = np.var(vals, ddof=1)
        npt.assert_allclose(est.std_error ** 2 * est.n_samples, two_pass, rtol=1e-12)
        naive = (np.sum(vals * vals) / vals.size - vals.mean() ** 2) * vals.size / (vals.size - 1)
        assert abs(naive / two_pass - 1.0) > 1e-3  # what sum x^2 - n mean^2 gives
        npt.assert_allclose(est.mean, vals.mean(), rtol=1e-15)
        assert len(drawn) == -(-10_000 // cap)
        assert len(est.chunk_means) == max(1, 10_000 // cap)  # a short last chunk joins one


def _replicated(n_paths, per_path, exact):
    """The estimates of per_path's row 0, controlled by its row 1 against exact, and of
    its row 1 alone, over the left-hand stream on a grid of one step, their errors read
    from the replicates."""
    merge = partial(sc._merged, scale=1.0, ci_valid=True, controls=[(1, exact), None])
    (out,) = sc._mc_paths((TimeGrid(1.0, 1), 8, 0), [sc._Request(
        None, n_paths, 1, per_path, partial(sc._moments, replicates=stochastic.REPLICATES),
        sc._chan, merge)])
    return out


@pytest.mark.parametrize("cap", [1 << 22, 1_000, 45, 7])
def test_the_replicate_error_is_the_spread_of_the_replicate_estimates(monkeypatch, cap):
    # path j of replicate j % 32: m_r = y_r - beta (x_r - exact), beta pooled over
    # every path, and SE^2 = R / (R - 1) sum_r (n_r / n)^2 (m_r - m)^2, whatever
    # the chunks (cap paths, their first paths no multiples of 32) and blocks,
    # at an offset of 1e8; the control's z reads the replicate error of x, and
    # x alone has the plain mean and the replicate error of its own spread
    drawn = []

    def per_sample(batch):
        xi = batch.increments[:, 0, 0]
        drawn.append(np.stack([1e8 + np.cos(xi) + 0.3 * xi, 1e8 + xi * xi]))
        return drawn[-1]

    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", cap)
    monkeypatch.setattr(sc, "PATH_BLOCK", 13)
    monkeypatch.setattr(sc, "WORKERS", 1)  # the values are drawn in path order
    n, big = 1_001, 1e8
    est, alone = _replicated(n, per_sample, big + 1.0)
    y, x = np.concatenate(drawn, axis=1) - big
    cov = np.cov(y, x)
    beta, replicate = cov[0, 1] / cov[1, 1], np.arange(n) % 32
    share = np.bincount(replicate) / n

    def spread(v):  # per replicate, its share times its mean less the mean
        return share * (np.bincount(replicate, v) / np.bincount(replicate) - v.mean())

    def se(dev):
        return np.sqrt(32 / 31 * np.sum(dev * dev))
    m = y.mean() - beta * (x.mean() - 1.0)
    npt.assert_allclose(est.mean - big, m, rtol=1e-7)
    npt.assert_allclose(est.control.beta, beta, rtol=1e-10)
    npt.assert_allclose(est.std_error, se(spread(y) - beta * spread(x)), rtol=1e-9)
    npt.assert_allclose(est.control.z, abs(x.mean() - 1.0) / se(spread(x)), rtol=1e-9)
    assert alone.control is None
    npt.assert_allclose(alone.mean, np.mean(big + x), rtol=1e-15)
    npt.assert_allclose(alone.std_error, se(spread(x)), rtol=1e-9)


@pytest.mark.parametrize("n_paths", [3, 20, 32])
def test_at_most_one_path_per_replicate_gives_the_plain_error(n_paths):
    # n <= 32 paths are n one-path replicates: the plain residual error on
    # n - 2 degrees of freedom, as with independent paths
    drawn = []

    def per_sample(batch):
        xi = batch.increments[:, 0, 0]
        drawn.append(np.stack([np.cos(xi) + 0.3 * xi, xi * xi]))
        return drawn[-1]
    est = _replicated(n_paths, per_sample, 1.0)[0]
    y, x = np.concatenate(drawn, axis=1)
    cov = np.cov(y, x)
    beta = cov[0, 1] / cov[1, 1]
    residual = (cov[0, 0] - beta * cov[0, 1]) * (n_paths - 1) / (n_paths - 2)
    npt.assert_allclose(est.std_error ** 2 * n_paths, residual, rtol=1e-10)
    npt.assert_allclose(est.control.z, abs(x.mean() - 1.0) / np.sqrt(cov[1, 1] / n_paths),
                        rtol=1e-10)


@pytest.mark.parametrize("n_steps, run", [
    (32, lambda g: verify_gencv_example(g, functional="one", n_paths=100_000, seed=3)),
    (32, lambda g: verify_surjective("rank1:b=0.3", "cos_end:1.0", g, n_paths=100_000, seed=3)),
    (16, lambda g: verify_transf("const:c=0.3", "cos_end:1.0", g, 2, n_paths=100_000, seed=3)),
    (16, lambda g: verify_harmonic("expdiag:p=[0.5,-0.5]", 0.5, grid=g, dim=2,
                                   n_paths=100_000, seed=3)),
], ids=["gencv", "surjective", "transf_d2", "harmonic_d2"])
def test_the_exact_grid_value_is_the_monte_carlo_limit(monkeypatch, n_steps, run):
    # the closed form of a left-hand side on its grid is what its estimate
    # converges to, within 4 of its standard errors at N d = 32, whatever its
    # grid bias against the right-hand side (6% for gencv's f = one at N =
    # 32); harmonic's right-hand side is its grid's own determinant
    rows = spy_rows(monkeypatch)
    report = run(make_grid(1.0, n_steps))
    s, side = rows[report.name]
    exact = exact_grid_lhs(s, side)
    assert abs(report.lhs.mean - exact) <= 4.0 * report.lhs.std_error
    if report.kind == "harmonic":
        npt.assert_allclose(exact, report.rhs.mean, rtol=1e-12)


def test_the_replicate_error_is_calibrated():
    # cameron_martin of const:c=1 at N = 16 is exact on the grid and all net:
    # over 24 seeds the spread of the estimates is the reported error's,
    # which reads 32 replicates of 64 paths each
    g = make_grid(1.0, 16)
    reports = [verify_cameron_martin("const:c=1", "cos_end:1.0", g, n_paths=2_048, seed=seed)
               for seed in range(24)]
    means = np.array([r.lhs.mean for r in reports])
    errors = np.array([r.lhs.std_error for r in reports])
    assert all(r.passed for r in reports)
    assert 0.6 <= np.std(means, ddof=1) / errors.mean() <= 1.6
    # the net: the error is far below the plain error of as many paths
    plain = _pass(g, 1, 2_048, 0, 0, lambda b: np.cos(b.value_at_node(16)[:, 0]))[0]
    assert errors.mean() < 0.5 * plain.std_error
