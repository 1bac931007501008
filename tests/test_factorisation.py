"""One factorisation per operator: how many eigensolves and LUs each scenario
makes, the quantities derived from a shared factorisation against direct
routes, and the embedded checks that must stay on an independent route.

A check shares nothing with the factorisation it checks when perturbing that
factorisation by 1e-6 makes the check fail; a check read from the same
factorisation would pass regardless."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from orderone import (
    SingularOperatorError,
    assemble,
    eta_of_kappa,
    inverse_kernel,
    kernel_zoo,
    lambda_max,
    make_grid,
    orthonormal_columns,
    scale_kernel,
    sweep_laplace,
    verify_cameron_martin,
    verify_gencv_example,
    verify_harmonic,
    verify_integrability_bound,
    verify_inverse,
    verify_surjective,
    verify_transf,
)
from orderone import grid_kernel, operator, scenarios, stochastic
from orderone.grid_kernel import MatrixKernel
from orderone.operator import GATE_MARGIN, factor_identity_plus, spectrum
from orderone.stochastic import moment_guard

EPS = 1e-6
ZOO = [
    ("zero", 1), ("volterra", 1), ("rank1:b=0.3", 1), ("rank1:b=-0.6,n=2", 1),
    ("rank2:b=0.2,c=0.3", 1), ("rank2:b=0.2,c=0.3,member=2", 1),
    ("remark_gencv:b1=-2,b2=-3", 1), ("expdiag:p=[0.5,-0.5]", 2), ("const:c=1", 1),
    ("const_phi:c=1", 1),
]


@pytest.fixture
def grid():
    return make_grid(1.0, 32)


class _Calls(Counter):
    """Factorisations by name; `orders` holds (name, order of the matrix) of each call."""

    def __init__(self):
        super().__init__()
        self.orders = []


def _counting(monkeypatch):
    calls = _Calls()

    def wrap(owner, name):
        original = getattr(owner, name)

        def counted(a, *args, **kwargs):
            calls[name] += 1
            calls.orders.append((name, np.shape(a)[0]))
            return original(a, *args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("eigvalsh", "eigh", "slogdet", "solve"):
        wrap(np.linalg, name)
    wrap(scipy.linalg, "lu_factor")
    return calls


def _perturb_eigenvalues(monkeypatch):
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: eigvalsh(a, *args, **kw) + EPS)

    def perturbed_eigh(a, *args, **kw):
        w, v = eigh(a, *args, **kw)
        return w + EPS, v
    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)


def _perturb_pivots(monkeypatch):
    lu_factor = scipy.linalg.lu_factor

    def perturbed(a, *args, **kw):
        lu, piv = lu_factor(a, *args, **kw)
        lu[np.diag_indices_from(lu)] *= 1.0 + EPS
        return lu, piv
    monkeypatch.setattr(scipy.linalg, "lu_factor", perturbed)


# ---------------------------------------------------------------------------
# factorisation counts
# ---------------------------------------------------------------------------

# `largest`: the largest order factorised; on a rank-r kernel at most 2r (the
# eta of rank1 has rank 2), on a dense one the grid's N d
@pytest.mark.parametrize("run, expected, largest", [
    (lambda g: verify_transf("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500),
     {"eigvalsh": 1, "lu_factor": 1}, 2),
    (lambda g: verify_inverse("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500),
     {"eigvalsh": 1, "lu_factor": 2}, 2),
    # det2_sqrt_identity: the LU of the order-1 Sylvester matrix, not of I - B_eta
    (lambda g: verify_surjective("rank1:b=0.3", "one", grid=g, n_paths=500),
     {"eigh": 1, "lu_factor": 1}, 1),
    (lambda g: verify_surjective("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500),
     {"eigh": 1, "lu_factor": 1}, 1),
    # a LowerExp kernel with f = 1: one Riccati recursion per rate and the
    # closed form of det(I + lam B^T B), no factorisation
    (lambda g: verify_harmonic("volterra", 1.0, None, "one", grid=g, n_paths=500), {}, 0),
    # the same kernel given by its matrix: the dense route, the eigensolve of
    # B_c and the slogdet of I + lam B^T B
    (lambda g: verify_harmonic(replace(kernel_zoo("volterra", g), factored=None), 1.0, None,
                               "one", grid=g, n_paths=500),
     {"eigvalsh": 1, "slogdet": 1}, 32),
    # cos_end takes volterra to the dense eigensolve of B_c; det_dual_route
    # stays the closed form
    (lambda g: verify_harmonic("volterra", 1.0, None, "cos_end:1.0", grid=g, n_paths=500),
     {"eigh": 1}, 32),
    (lambda g: verify_harmonic("expdiag:p=[0.5,-0.5]", 0.5, [1.0, 0.0], "one", grid=g, dim=2,
                               n_paths=500),
     {"eigvalsh": 1}, 64),
    # the order-r c form, and Sylvester's determinant of order r
    (lambda g: verify_harmonic("rank1:b=0.3", 1.0, None, "cos_end:1.0", grid=g, n_paths=500),
     {"eigh": 1, "slogdet": 1}, 1),
    # the s-kernel gate, then its own prologue: the eta gate and the LU of det2
    (lambda g: verify_gencv_example(g, functional="cos_end:1.0", n_paths=500),
     {"eigvalsh": 2, "lu_factor": 1}, 4),
], ids=["transf", "inverse", "surjective-one", "surjective-cos", "harmonic-one",
        "harmonic-dense-one", "harmonic-cos", "harmonic-x", "harmonic-low-rank", "gencv"])
def test_one_factorisation_per_operator(grid, monkeypatch, run, expected, largest):
    calls = _counting(monkeypatch)
    report = run(grid)
    assert report.verdict == "pass"
    assert dict(calls) == expected
    assert max((order for _, order in calls.orders), default=0) == largest


@pytest.mark.parametrize("functional", ["one", "cos_end:1.0"])
def test_sweep_is_one_eigensolve_and_one_pass_per_side(grid, monkeypatch, functional):
    # three factors: one eigh of B_eta, one LU of I - c S per factor (S the
    # order-1 Sylvester matrix of B_eta), and each chunk of the left-hand side
    # drawn once (the right-hand side has no exponent, so it is exact and
    # draws nothing); q is evaluated once per chunk and each factor's row
    # reads c q
    monkeypatch.setattr(scenarios, "CHUNK_ELEMENTS", 32 * 200)  # 1,000 paths in 5 chunks
    calls = _counting(monkeypatch)
    drawn, path_blocks = [], stochastic.path_blocks
    forms, quadratic_form = [], stochastic.quadratic_form

    def recorded(*args, **kwargs):
        drawn.append(kwargs["stream"])
        return path_blocks(*args, **kwargs)

    def counted(eta, batch):
        forms.append(batch.stream)
        return quadratic_form(eta, batch)
    monkeypatch.setattr(stochastic, "path_blocks", recorded)
    monkeypatch.setattr(stochastic, "quadratic_form", counted)
    reports = sweep_laplace("rank1:b=0.3", [0.25, 0.5, 0.75], functional, grid, n_paths=1_000)
    assert [r.verdict for r in reports] == ["pass"] * 3
    assert calls.orders == [("eigh", 1)] + [("lu_factor", 1)] * 3
    assert sorted(drawn) == [(0, idx, 32) for idx in range(5)]
    assert sorted(forms) == [(0, idx, 32) for idx in range(5)]  # 5 chunks x 3 factors: 5, not 15


@pytest.mark.parametrize("functional", ["one", "cos_end:1.0"])
def test_run_of_a_surjective_scenario_is_one_family(tmp_path, grid, monkeypatch, functional):
    # `run` verified a surjective scenario's own identity and then swept its
    # lambdas in a second pass: two eigensolves, and each chunk drawn twice;
    # now one eigh, and one LU of order 1 per factor
    from orderone.cli import main

    monkeypatch.setattr(scenarios, "CHUNK_ELEMENTS", 32 * 200)  # 1,000 paths in 5 chunks
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\nn_steps = 32\nsamples = 1000\nseed = 5\n[scenario sq]\n"
                   f"verify = surjective\nkernel = rank1:b=0.3\nfunctional = {functional}\n"
                   f"lambdas = 0.25, 0.5, 0.75\n")
    calls = _counting(monkeypatch)
    drawn, path_blocks = [], stochastic.path_blocks

    def recorded(*args, **kwargs):
        drawn.append(kwargs["stream"])
        return path_blocks(*args, **kwargs)
    monkeypatch.setattr(stochastic, "path_blocks", recorded)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path), "--format", "json"]) == 0
    assert calls.orders == [("eigh", 1)] + [("lu_factor", 1)] * 4
    assert sorted(drawn) == [(0, idx, 32) for idx in range(5)]  # the left-hand side alone

    got = json.loads((tmp_path / "reports.json").read_text())
    args = (functional, grid, 1, 1000, 5)
    want = [verify_surjective("rank1:b=0.3", *args, name="sq"),
            *sweep_laplace("rank1:b=0.3", [0.25, 0.5, 0.75], *args)]
    assert got == [r.to_dict() for r in want]


N = 32  # the order of an operator on the grid fixture, d = 1


@pytest.mark.parametrize("run, rank, lus", [
    (lambda g: verify_transf("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500), 1, [1]),
    # the second LU is rn_normalization's, of I + B_khat, whose form
    # (Q, X / Delta, Q) has one factor
    (lambda g: verify_inverse("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500),
     1, [1, 1]),
    # det2_sqrt_identity: an LU of I - c S per factor, S the Sylvester matrix
    # of B_eta, of order r
    (lambda g: verify_surjective("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500), 1, [1]),
    (lambda g: sweep_laplace("rank1:b=0.3", [0.25, 0.5, 0.75], "one", g, n_paths=500),
     1, [1, 1, 1]),
    # the surjective family at factor 1: the same LU as surjective's
    (lambda g: verify_integrability_bound("rank1:b=0.3", grid=g, n_paths=500), 1, [1]),
    (lambda g: verify_gencv_example(g, functional="cos_end:1.0", n_paths=500), 2, [2]),
    # kappa_phi has distinct factors, so its reduced matrix is of order 2r;
    # det2_consistency: a slogdet of I + S, S the Sylvester matrix of order r
    (lambda g: verify_cameron_martin("const:c=1", grid=g, n_paths=500), 1, [2]),
    # the c kernel's form of order r, and det_dual_route's Sylvester determinant
    (lambda g: verify_harmonic("rank1:b=0.3", 1.0, None, "cos_end:1.0", grid=g, n_paths=500),
     1, []),
], ids=["transf", "inverse", "surjective", "sweep", "integrability", "gencv",
        "cameron_martin", "harmonic"])
def test_low_rank_hot_paths_factor_only_small_matrices(grid, monkeypatch, run, rank, lus):
    # a rank-r kernel: every eigensolve, LU and slogdet, the check routes'
    # included, is of order <= 2r, and the LUs are of exactly these orders
    calls = _counting(monkeypatch)
    reports = run(grid)
    for report in reports if isinstance(reports, list) else [reports]:
        assert report.verdict == "pass"
    assert calls.orders and max(order for _, order in calls.orders) <= 2 * rank
    assert [order for name, order in calls.orders if name == "lu_factor"] == lus


@pytest.mark.parametrize("run, expected", [
    (lambda g: verify_transf("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500), 0),
    (lambda g: verify_inverse("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500), 0),
    (lambda g: verify_gencv_example(g, functional="cos_end:1.0", n_paths=500), 0),
    (lambda g: verify_integrability_bound("rank1:b=0.3", grid=g, n_paths=500), 0),
    # det2_sqrt_identity reads the factors of eta, eta_roundtrip the stacked form
    (lambda g: verify_surjective("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500), 0),
    (lambda g: sweep_laplace("rank1:b=0.3", [0.25, 0.5, 0.75], "one", g, n_paths=500), 0),
    # trace_formula and det2_consistency read the Sylvester matrix of kappa_phi's
    # factors, of order r, not the operator matrix
    (lambda g: verify_cameron_martin("const:c=1", grid=g, n_paths=500), 0),
    (lambda g: verify_harmonic("rank1:b=0.3", 1.0, None, "cos_end:1.0", grid=g, n_paths=500), 0),
    # a LowerExp kernel with f = 1: the Riccati recursion and the closed form
    (lambda g: verify_harmonic("volterra", 1.0, grid=g, n_paths=500), 0),
    # a dense route: the gate and det2 (transf); the c kernel of harmonic,
    # whose image kernel takes a LowerExp kernel dense
    (lambda g: verify_transf("volterra", "cos_end:1.0", grid=g, n_paths=500), 2),
    (lambda g: verify_harmonic("volterra", 1.0, None, "cos_end:1.0", grid=g, n_paths=500), 1),
], ids=["transf", "inverse", "gencv", "integrability", "surjective", "sweep",
        "cameron_martin", "harmonic", "harmonic-lower-exp", "transf-dense", "harmonic-dense"])
def test_dense_matrices_assembled_per_scenario(grid, monkeypatch, run, expected):
    # an order-N matrix is assembled only for the dense route and the checks
    orders, assemble = [], operator.assemble

    def counted(kappa):
        orders.append(kappa.grid.n_steps * kappa.dim)
        return assemble(kappa)
    monkeypatch.setattr(operator, "assemble", counted)
    reports = run(grid)
    for report in reports if isinstance(reports, list) else [reports]:
        assert report.verdict == "pass"
    assert orders == [N] * expected


@pytest.mark.parametrize("run", [
    lambda g: verify_transf("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500),
    lambda g: verify_inverse("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500),
    lambda g: verify_surjective("rank1:b=0.3", "cos_end:1.0", grid=g, n_paths=500),
    lambda g: sweep_laplace("rank1:b=0.3", [0.25, 0.5, 0.75], "cos_end:1.0", g, n_paths=500),
    # trace_formula reads the tail sums of phi from its factors
    lambda g: verify_cameron_martin("const:c=1", grid=g, n_paths=500),
    lambda g: verify_gencv_example(g, functional="cos_end:1.0", n_paths=500),
    lambda g: verify_integrability_bound("rank1:b=0.3", grid=g, n_paths=500),
    # c(kappa) is the form R (C^T (L^T L) C Delta) R^T, its image (V, ., V)
    lambda g: verify_harmonic("rank1:b=0.3", 1.0, None, "cos_end:1.0", grid=g, n_paths=500),
], ids=["transf", "inverse", "surjective", "sweep", "cameron_martin", "gencv", "integrability",
        "harmonic"])
def test_low_rank_hot_paths_build_no_matrix(grid, monkeypatch, run):
    # every kernel of these runs is its LowRank form: none is given values,
    # none has its matrix multiplied out on a read, and every symmetry scan
    # reads a reduced matrix of order <= 2r, never one of order N
    given, read, scanned = [], [], []
    post_init, getattr_ = MatrixKernel.__post_init__, MatrixKernel.__getattr__

    def counted_post_init(self):
        post_init(self)
        given.append("matrix" in self.__dict__)

    def counted_getattr(self, name):
        read.append(name)
        return getattr_(self, name)

    def counted_symmetry(m):
        scanned.append(len(m))
        return symmetry(m)
    symmetry = grid_kernel.symmetry
    monkeypatch.setattr(MatrixKernel, "__post_init__", counted_post_init)
    monkeypatch.setattr(MatrixKernel, "__getattr__", counted_getattr)
    for module in (grid_kernel, operator):
        monkeypatch.setattr(module, "symmetry", counted_symmetry)
    reports = run(grid)
    for report in reports if isinstance(reports, list) else [reports]:
        assert report.passed
    assert given and not any(given)
    assert [name for name in read if name in ("matrix", "values")] == []
    assert all(order <= 2 for order in scanned)


# ---------------------------------------------------------------------------
# derived quantities against direct routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec, dim", ZOO)
def test_image_gate_derived_from_gate_spectrum(spec, dim):
    g = make_grid(1.0, 64)
    kappa = kernel_zoo(spec, g, dim)
    lam_min = spectrum(eta_of_kappa(kappa)).lambda_min
    derived = 1.0 - 1.0 / (1.0 - lam_min)
    direct = lambda_max(eta_of_kappa(inverse_kernel(kappa)))
    assert abs(derived - direct) <= 1e-10 * max(1.0, abs(direct))


@pytest.mark.parametrize("spec, dim", ZOO)
def test_inverse_by_lu_solve_matches_dense_solve(spec, dim):
    g = make_grid(1.0, 64)
    m = assemble(kernel_zoo(spec, g, dim))
    reference = -np.linalg.solve(np.eye(m.shape[0]) + m, m)
    got = assemble(inverse_kernel(kernel_zoo(spec, g, dim)))
    assert np.max(np.abs(got - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))


@pytest.mark.parametrize("spec, dim", [("rank1:b=0.5", 1), ("rank2:b=0.2,c=0.3", 1),
                                       ("expdiag:p=[0.5,-0.5]", 2)])
def test_spectrum_readers_match_direct_routes(spec, dim):
    g = make_grid(1.0, 64)
    kappa = kernel_zoo(spec, g, dim)
    eta = eta_of_kappa(kappa)
    m_eta = assemble(eta)
    eig = spectrum(eta, vectors=True)
    sign, logdet = np.linalg.slogdet(np.eye(m_eta.shape[0]) - m_eta)
    assert sign == 1.0
    assert abs(eig.logdet_complement() - logdet) <= 1e-12 * max(1.0, abs(logdet))
    d2 = factor_identity_plus(-m_eta).det2
    assert abs(eig.det2_complement().log_modulus - d2.log_modulus) <= 1e-12
    root = assemble(eig.sqrt_kernel())
    oracle = np.real(scipy.linalg.sqrtm(np.eye(len(root)) - m_eta)) - np.eye(len(root))
    assert np.max(np.abs(root - oracle)) <= 1e-10
    inv_root = assemble(eig.inverse_sqrt_kernel())
    assert np.max(np.abs(inv_root - assemble(inverse_kernel(eig.sqrt_kernel())))) <= 1e-12


@pytest.mark.parametrize("inverse", [
    lambda k: inverse_kernel(k),
    lambda k: factor_identity_plus(k).inverse_matrix(),
])
@pytest.mark.parametrize("spec, dim", [
    ("rank1:b=-1", 1),
    # c = -2 / (1 - 1/N): singular on a reduced matrix of order 2r, padded with ones
    ("const_phi:c=-2.0317460317460316", 1), ("const_phi:c=-2.0317460317460316", 2),
])
def test_singular_operator_has_no_inverse(inverse, spec, dim):
    kappa = kernel_zoo(spec, make_grid(1.0, 64), dim)
    assert factor_identity_plus(kappa).det2.singular
    with pytest.raises(SingularOperatorError):
        inverse(kappa)


def test_moment_guard_states():
    assert moment_guard(1.0 - GATE_MARGIN) == "reject"
    assert moment_guard(0.5 - 1e-13) == "ok_no_ci"
    assert moment_guard(0.75) == "ok_no_ci"
    assert moment_guard(0.49) == "ok"
    assert moment_guard(-3.0) == "ok"


# ---------------------------------------------------------------------------
# embedded checks stay on independent routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("check", ["det2_sqrt_identity", "eta_roundtrip"])
def test_surjective_checks_see_a_perturbed_spectrum(grid, monkeypatch, check):
    run = lambda: verify_surjective("rank1:b=0.3", "one", grid=grid, n_paths=500)  # noqa: E731
    assert run().checks[check].passed
    _perturb_eigenvalues(monkeypatch)
    assert not run().checks[check].passed


def test_det2_sqrt_identity_sees_perturbed_pivots(grid, monkeypatch):
    # its route is the LU of the Sylvester matrix, so a slip there shows
    run = lambda: verify_surjective("rank1:b=0.3", "one", grid=grid, n_paths=500)  # noqa: E731
    assert run().checks["det2_sqrt_identity"].passed
    _perturb_pivots(monkeypatch)
    assert not run().checks["det2_sqrt_identity"].passed


def test_harmonic_dual_route_sees_a_perturbed_spectrum(grid, monkeypatch):
    # a dense copy of volterra takes the dense route: the eigensolve of the dense B_c
    dense = scale_kernel(kernel_zoo("volterra", grid), 1.0)
    run = lambda: verify_harmonic(dense, 1.0, None, "cos_end:1.0", grid=grid,  # noqa: E731
                                  n_paths=500)
    assert run().checks["det_dual_route"].passed
    _perturb_eigenvalues(monkeypatch)
    assert not run().checks["det_dual_route"].passed


def test_harmonic_sylvester_route_sees_a_perturbed_spectrum(grid, monkeypatch):
    # the eigensolve of the c kernel's order-r core, against Sylvester's determinant
    run = lambda: verify_harmonic("rank1:b=0.3", 1.0, None, "one", grid=grid,  # noqa: E731
                                  n_paths=500)
    assert run().checks["det_dual_route"].passed
    _perturb_eigenvalues(monkeypatch)
    assert not run().checks["det_dual_route"].passed


@pytest.mark.parametrize("spec, dim", [("volterra", 1), ("expdiag:p=[0.5,-0.5]", 2)])
def test_lower_exp_harmonic_reads_assembles_and_factorises_nothing(grid, monkeypatch, spec, dim):
    # f = 1: det(I + lam B_c) by the Riccati recursion, det_dual_route by the
    # closed form and hs_norm from the rates; no kernel is given values or
    # has them multiplied out, and no operator is assembled or factorised
    calls = _counting(monkeypatch)
    given, read, assembled = [], [], []
    post_init, getattr_, assemble_ = (MatrixKernel.__post_init__, MatrixKernel.__getattr__,
                                      operator.assemble)

    def counted_post_init(self):
        post_init(self)
        given.append("matrix" in self.__dict__)

    def counted_getattr(self, name):
        read.append(name)
        return getattr_(self, name)

    def counted_assemble(kappa):
        assembled.append(kappa)
        return assemble_(kappa)
    monkeypatch.setattr(MatrixKernel, "__post_init__", counted_post_init)
    monkeypatch.setattr(MatrixKernel, "__getattr__", counted_getattr)
    monkeypatch.setattr(operator, "assemble", counted_assemble)
    report = verify_harmonic(spec, 0.5, None, "one", grid=grid, dim=dim, n_paths=500)
    assert report.passed and report.checks["det_dual_route"].passed
    assert given == [False]  # the zoo's form of kappa alone
    assert [name for name in read if name in ("matrix", "values")] == []
    assert assembled == [] and dict(calls) == {}


def test_det2_consistency_sees_perturbed_pivots(grid, monkeypatch):
    run = lambda: verify_cameron_martin("const:c=1", grid=grid, n_paths=500)  # noqa: E731
    assert run().checks["det2_consistency"].passed
    _perturb_pivots(monkeypatch)
    assert not run().checks["det2_consistency"].passed


def test_cameron_martin_routes_agree_on_a_dense_phi(monkeypatch):
    # the same drift as its LowRank form and as its dense copy: the checks read
    # the order-r Sylvester matrix of the one and the operator matrix of the
    # other.  The dense copy is the only dense phi here with a nonzero trace:
    # volterra and expdiag are strictly lower, so their checks read 0
    g = make_grid(1.0, 64)
    phi = kernel_zoo("const:c=1", g)
    reports, largest = [], []
    for kernel in (phi, replace(phi, factored=None)):
        calls = _counting(monkeypatch)
        reports.append(verify_cameron_martin(kernel, "cos_end:1.0", grid=g, n_paths=2_000,
                                             seed=5))
        largest.append(max(order for _, order in calls.orders))
    low, dense = reports
    assert low.verdict == dense.verdict == "pass"
    pairs = [(low.spectra["det_log"], dense.spectra["det_log"])] + [
        (getattr(low.checks[key], attr), getattr(dense.checks[key], attr))
        for key in ("trace_formula", "det2_consistency", "det2_product")
        for attr in ("value", "target")]
    for a, b in pairs:
        assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)
    assert largest == [2, 64]  # kappa_phi's reduced matrix of order 2r, then B_kappa_phi


def _rotation_kernel(grid, angle=0.7):
    """I + B is a rotation of span(e1, e2): eta and the image eta vanish, so
    every weight is exactly 1 and the Radon-Nikodym mass has zero variance."""
    e = orthonormal_columns(grid, 2)
    c, s = np.cos(angle), np.sin(angle)
    vals = ((c - 1.0) * (np.outer(e[:, 0], e[:, 0]) + np.outer(e[:, 1], e[:, 1]))
            + s * (np.outer(e[:, 1], e[:, 0]) - np.outer(e[:, 0], e[:, 1])))
    return MatrixKernel(grid, 1, vals[:, :, None, None])


def test_rn_normalization_sees_perturbed_pivots(grid, monkeypatch):
    # zero variance lets the mass be checked at 1e-9 instead of the MC tolerance
    run = lambda: verify_inverse(_rotation_kernel(grid), "one", grid=grid,  # noqa: E731
                                 n_paths=500, tol=1e-9)
    report = run()
    assert report.verdict == "pass"
    assert report.checks["rn_normalization"].passed
    _perturb_pivots(monkeypatch)
    assert not run().checks["rn_normalization"].passed
