"""Spectral calculus on assembled operators: determinants, inverses, square
roots, and the identities tying them to the kernel algebra."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings, strategies as st

from orderone import (
    NotContractiveError,
    PreconditionError,
    SingularOperatorError,
    adjoint_kernel,
    assemble,
    det2,
    det2_product_identity_check,
    eta_of_kappa,
    injectivity_witness,
    inverse_kernel,
    kappa_s,
    kernel_from_matrix,
    kernel_from_values,
    kernel_l2_norm,
    kernel_zoo,
    lambda_max,
    make_grid,
    remark_pair,
    s_of_kappa,
    scale_kernel,
    spectral_summary,
    trace,
)
from orderone import InvalidArgumentError
from orderone.grid_kernel import SYMMETRY_TOL, LowRank, MatrixKernel
from orderone.operator import GATE_MARGIN, PIVOT_RTOL, det2_matrix, spectrum


@pytest.fixture
def grid():
    return make_grid(1.0, 64)


def random_symmetric_kernel(grid, dim=1, seed=0, lam=None):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(grid.n_steps, grid.n_steps, dim, dim))
    vals = 0.5 * (vals + np.transpose(vals, (1, 0, 3, 2)))
    k = MatrixKernel(grid, dim, vals, symmetric=True)
    if lam is not None:
        top = lambda_max(k)
        assert top > 0
        k = MatrixKernel(grid, dim, vals * (lam / top), symmetric=True)
    return k


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_zero(grid):
    assert np.all(assemble(kernel_zoo("zero", grid)) == 0)


def test_assemble_volterra_tabulation():
    g = make_grid(1.0, 4)
    m = assemble(kernel_zoo("volterra", g))
    expect = np.tril(np.ones((4, 4)), k=-1) * 0.25
    npt.assert_array_equal(m, expect)


def test_assemble_rank_one_spectrum():
    # rank-one spectral oracle: single nonzero eigenvalue equal to b
    g = make_grid(1.0, 128)
    m = assemble(kernel_zoo("rank1:b=0.3", g))
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (m + m.T)))
    npt.assert_allclose(eigs[-1], 0.3, atol=1e-12)
    npt.assert_allclose(eigs[:-1], 0.0, atol=1e-12)


def test_assemble_adjoint_is_transpose(grid):
    from orderone.grid_kernel import adjoint_kernel

    rng = np.random.default_rng(2)
    k = MatrixKernel(grid, 2, rng.normal(size=(64, 64, 2, 2)))
    npt.assert_array_equal(assemble(adjoint_kernel(k)), assemble(k).T)


def test_assemble_frobenius_equals_l2_norm(grid):
    rng = np.random.default_rng(3)
    k = MatrixKernel(grid, 2, rng.normal(size=(64, 64, 2, 2)))
    npt.assert_allclose(np.linalg.norm(assemble(k)), kernel_l2_norm(k), rtol=1e-12)


def test_kernel_matrix_round_trip(grid):
    rng = np.random.default_rng(4)
    k = MatrixKernel(grid, 2, rng.normal(size=(64, 64, 2, 2)))
    back = kernel_from_matrix(assemble(k), grid, 2)
    npt.assert_array_equal(back.values, k.values)


# ---------------------------------------------------------------------------
# lambda_max
# ---------------------------------------------------------------------------

def test_lambda_max_zero(grid):
    assert lambda_max(kernel_zoo("zero", grid)) == 0.0


def test_lambda_max_gencv_values():
    g = make_grid(1.0, 128)
    k = kernel_zoo("remark_gencv:b1=-2,b2=-3", g)
    npt.assert_allclose(lambda_max(s_of_kappa(k)), 6.0, atol=1e-10)
    npt.assert_allclose(lambda_max(eta_of_kappa(k)), 0.0, atol=1e-10)


def test_lambda_max_rank_one():
    g = make_grid(1.0, 128)
    eta = kernel_zoo("rank1:b=0.5", g)
    npt.assert_allclose(lambda_max(eta), 0.5, atol=1e-12)


def test_lambda_max_rejects_asymmetric(grid):
    with pytest.raises(PreconditionError):
        lambda_max(kernel_zoo("volterra", grid))


@pytest.mark.parametrize("magnitude", [0.25, 8.0])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_one_symmetry_rule_at_its_boundary(grid, magnitude, ratio):
    # max |A - A^T| <= SYMMETRY_TOL max(1, max |A|), for kernel values and
    # operator matrices alike: just under the bound passes, just over fails
    rng = np.random.default_rng(4)
    a = rng.uniform(-1.0, 1.0, (64, 64))
    a = magnitude * (a + a.T) / np.max(np.abs(a + a.T))
    a[0, 1] += ratio * SYMMETRY_TOL * max(1.0, magnitude)
    symmetric = ratio < 1.0
    if symmetric:
        MatrixKernel(grid, 1, a[:, :, None, None], symmetric=True)
        spectrum(a)
    else:
        with pytest.raises(InvalidArgumentError, match="flagged symmetric"):
            MatrixKernel(grid, 1, a[:, :, None, None], symmetric=True)
        with pytest.raises(PreconditionError, match="symmetric operator"):
            spectrum(a)


# ---------------------------------------------------------------------------
# det2
# ---------------------------------------------------------------------------

def test_det2_of_zero(grid):
    d = det2(kernel_zoo("zero", grid))
    assert (d.sign, d.log_modulus, d.singular) == (1, 0.0, False)


def test_det2_gencv_closed_form():
    g = make_grid(1.0, 256)
    d = det2(kernel_zoo("remark_gencv:b1=-2,b2=-3", g))
    assert d.sign == 1
    npt.assert_allclose(d.value, 2.0 * np.exp(5.0), rtol=1e-6)


@pytest.mark.parametrize("b", [0.3, -0.5, -2.0])
def test_det2_rank_one_closed_form(b):
    g = make_grid(1.0, 256)
    d = det2(kernel_zoo(f"rank1:b={b}", g))
    expected = (1.0 + b) * np.exp(-b)
    assert d.sign == np.sign(expected)
    npt.assert_allclose(d.sign * np.exp(d.log_modulus), expected, rtol=1e-10)


def test_det2_value_past_the_float_range_is_the_signed_infinity():
    # det2 = (1 + b) e^{-b} = -799 e^{800}; an overflow warning would be an error here
    d = det2(kernel_zoo("rank1:b=-800", make_grid(1.0, 64)))
    assert d.sign == -1 and not d.singular and d.value == -np.inf
    npt.assert_allclose(d.log_modulus, np.log(799.0) + 800.0, rtol=1e-12)


def test_det2_singular_outcome():
    g = make_grid(1.0, 128)
    d = det2(kernel_zoo("rank1:b=-1", g))
    assert d.singular and d.sign == 0 and d.value == 0.0


def test_det2_permutation_invariance(grid):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(64, 64)) * 0.1
    base = det2_matrix(m)
    perm = rng.permutation(64)
    shuffled = det2_matrix(m[np.ix_(perm, perm)])
    assert shuffled.sign == base.sign
    npt.assert_allclose(shuffled.log_modulus, base.log_modulus, atol=1e-10)


def test_det2_finite_dim_against_dense_determinant():
    # oracle: det2(I+M) = det(I+M) e^{-tr M} computed directly
    rng = np.random.default_rng(6)
    m = rng.normal(size=(8, 8))
    d = det2_matrix(m)
    expected = np.linalg.det(np.eye(8) + m) * np.exp(-np.trace(m))
    npt.assert_allclose(d.sign * np.exp(d.log_modulus), expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# det2 product identity
# ---------------------------------------------------------------------------

def test_product_identity_zero(grid):
    rep = det2_product_identity_check(kernel_zoo("zero", grid))
    assert rep.lhs_log == 0.0 and rep.rhs_log == 0.0 and rep.discrepancy == 0.0


def test_product_identity_random_8x8():
    # oracle: both sides via dense determinants on a small matrix
    rng = np.random.default_rng(7)
    g = make_grid(1.0, 8)
    k = kernel_from_values(g, rng.normal(size=(8, 8)))
    rep = det2_product_identity_check(k)
    assert rep.discrepancy <= 1e-10
    m = assemble(k)
    lhs_direct = np.linalg.det((np.eye(8) + m.T) @ (np.eye(8) + m)) * np.exp(
        -np.trace(m + m.T + m.T @ m)
    )
    npt.assert_allclose(np.exp(rep.lhs_log), lhs_direct, rtol=1e-10)
    assert rep.eta_discrepancy is not None and rep.eta_discrepancy <= 1e-10


def test_product_identity_rank_one_closed_form():
    g = make_grid(1.0, 128)
    b = 0.3
    rep = det2_product_identity_check(kernel_zoo(f"rank1:b={b}", g))
    # (I+B)^2 has the single eigenvalue (1+b)^2; tr of the B part is 2b + b^2
    expected_log = np.log((1.0 + b) ** 2) - (2.0 * b + b * b)
    npt.assert_allclose(rep.lhs_log, expected_log, atol=1e-10)
    assert rep.discrepancy <= 1e-10


def test_eta_assembly_identity(grid):
    # B_eta = -(M + M^T + M^T M) on the grid
    rng = np.random.default_rng(8)
    k = MatrixKernel(grid, 2, rng.normal(size=(64, 64, 2, 2)) * 0.2)
    m = assemble(k)
    m_eta = assemble(eta_of_kappa(k))
    npt.assert_allclose(m_eta, -(m + m.T + m.T @ m), atol=1e-12)


def test_gap_identity_rayleigh():
    # 1 - Lambda(B_eta) = min eig of (I+M)^T (I+M)
    g = make_grid(1.0, 64)
    rng = np.random.default_rng(9)
    k = kernel_from_values(g, rng.normal(size=(64, 64)) * 0.3)
    m = assemble(k)
    lam = lambda_max(eta_of_kappa(k))
    a = np.eye(64) + m
    min_sq = np.linalg.eigvalsh(a.T @ a)[0]
    npt.assert_allclose(1.0 - lam, min_sq, atol=1e-8)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_zero(grid):
    assert trace(kernel_zoo("zero", grid)) == 0.0


def test_trace_constant_phi_tail():
    # int_0^1 c (1 - t) dt = c / 2, up to the left-endpoint O(step) offset
    g = make_grid(1.0, 256)
    c = 1.3
    k = kernel_zoo(f"const_phi:c={c}", g)
    npt.assert_allclose(trace(k), c / 2.0, atol=2.0 * c / g.n_steps)


def test_trace_rank_one():
    g = make_grid(1.0, 128)
    npt.assert_allclose(trace(kernel_zoo("rank1:b=0.7", g)), 0.7, atol=1e-12)


# ---------------------------------------------------------------------------
# inverse kernel
# ---------------------------------------------------------------------------

def test_inverse_of_zero(grid):
    assert np.all(inverse_kernel(kernel_zoo("zero", grid)).values == 0)


def test_inverse_rank_one_closed_form():
    # scalar inverse on the eigenline: b -> -b / (1 + b); matrix-inverse oracle
    g = make_grid(1.0, 128)
    b = 0.3
    k = kernel_zoo(f"rank1:b={b}", g)
    k_hat = inverse_kernel(k)
    npt.assert_allclose(k_hat.values, (-b / (1.0 + b)) / b * k.values, atol=1e-12)
    m = assemble(k)
    oracle = np.linalg.inv(np.eye(128) + m) - np.eye(128)
    npt.assert_allclose(assemble(k_hat), oracle, atol=1e-12)


def test_inverse_round_trips(grid):
    rng = np.random.default_rng(10)
    k = kernel_from_values(grid, rng.normal(size=(64, 64)) * 0.3)
    k_hat = inverse_kernel(k)
    m, m_hat = assemble(k), assemble(k_hat)
    eye = np.eye(64)
    npt.assert_allclose((eye + m) @ (eye + m_hat), eye, atol=1e-10)
    npt.assert_allclose((eye + m_hat) @ (eye + m), eye, atol=1e-10)
    back = inverse_kernel(k_hat)
    npt.assert_allclose(back.values, k.values, atol=1e-10)


def test_inverse_singular_error():
    g = make_grid(1.0, 64)
    with pytest.raises(SingularOperatorError):
        inverse_kernel(kernel_zoo("rank1:b=-1", g))


# ---------------------------------------------------------------------------
# square-root kernel
# ---------------------------------------------------------------------------

def test_kappa_s_zero(grid):
    assert np.all(kappa_s(kernel_zoo("zero", grid)).values == 0)


def test_kappa_s_rank_one():
    g = make_grid(1.0, 128)
    eta = kernel_zoo("rank1:b=0.5", g)
    k = kappa_s(eta)
    npt.assert_allclose(k.values, (np.sqrt(0.5) - 1.0) / 0.5 * eta.values, atol=1e-12)


def test_kappa_s_round_trip_and_sqrtm_oracle(grid):
    eta = random_symmetric_kernel(grid, seed=11, lam=0.9)
    k = kappa_s(eta)
    assert k.symmetric
    round_trip = eta_of_kappa(k)
    err = kernel_l2_norm(MatrixKernel(grid, 1, round_trip.values - eta.values))
    assert err <= 1e-8 * kernel_l2_norm(eta)
    # independent square-root oracle
    m_eta = assemble(eta)
    oracle = np.real(sla.sqrtm(np.eye(64) - m_eta)) - np.eye(64)
    npt.assert_allclose(assemble(k), oracle, atol=1e-8)
    # membership: I + B_kappa_s is PSD
    assert np.linalg.eigvalsh(np.eye(64) + assemble(k))[0] >= -1e-12


def test_kappa_s_gate():
    g = make_grid(1.0, 64)
    with pytest.raises(NotContractiveError):
        kappa_s(kernel_zoo("rank1:b=1.0", g))
    kappa_s(kernel_zoo("rank1:b=1.0", g), enforce_gate=False)  # explicit override


def test_kappa_s_requires_symmetric(grid):
    with pytest.raises(PreconditionError):
        kappa_s(kernel_zoo("volterra", grid))


# ---------------------------------------------------------------------------
# injectivity witness
# ---------------------------------------------------------------------------

def test_witness_equal_kernels(grid):
    eta = random_symmetric_kernel(grid, seed=12, lam=0.5)
    k = kappa_s(eta)
    rep = injectivity_witness(k, k)
    assert rep.eta_distance == 0.0 and rep.kappa_distance == 0.0
    assert rep.implication_holds


def test_witness_sqrtm_route(grid):
    # kappa_s against an independently square-rooted eta: PSD root is unique
    eta = random_symmetric_kernel(grid, seed=13, lam=0.8)
    k1 = kappa_s(eta)
    oracle = np.real(sla.sqrtm(np.eye(64) - assemble(eta))) - np.eye(64)
    k2 = kernel_from_matrix(0.5 * (oracle + oracle.T), grid, 1, symmetric=True)
    rep = injectivity_witness(k1, k2)
    assert rep.kappa_distance <= 1e-8
    assert rep.implication_holds


def test_witness_remark_pair_documents_noninjectivity():
    g = make_grid(1.0, 128)
    b = np.sqrt(2.0) - 1.0
    k1, k2 = remark_pair(g, b, 1.0)
    with pytest.raises(PreconditionError):
        injectivity_witness(k1, k2)
    rep = injectivity_witness(k1, k2, strict=False)
    assert not rep.member_2  # the antisymmetric member is outside the domain
    assert rep.eta_distance <= 1e-10
    npt.assert_allclose(rep.kappa_distance, np.sqrt(8.0 - 4.0 * np.sqrt(2.0)), atol=1e-3)
    assert not rep.implication_holds


# ---------------------------------------------------------------------------
# spectral summaries and basis independence
# ---------------------------------------------------------------------------

def test_spectral_summary_fields():
    g = make_grid(1.0, 128)
    s = spectral_summary(kernel_zoo("rank1:b=0.3", g))
    d = s.to_dict()
    assert set(d) == {"lambda_max", "det2_sign", "det2_log_modulus", "trace", "hs_norm", "singular"}
    npt.assert_allclose(d["hs_norm"], 0.3, atol=1e-12)
    npt.assert_allclose(d["trace"], 0.3, atol=1e-12)
    # gate eigenvalue of the rank-deficient eta kernel: max over the spectrum is 0
    npt.assert_allclose(d["lambda_max"], 0.0, atol=1e-12)


def test_spectral_facts_are_basis_independent():
    # rank-one facts depend only on the coefficient, not on the orthonormal
    # family realizing the kernel
    from orderone import orthonormal_columns

    g = make_grid(1.0, 128)
    b = -0.4
    results = []
    for kind in ("cosine", "legendre"):
        v = orthonormal_columns(g, 3, kind=kind)[:, 2]
        k = MatrixKernel(g, 1, b * np.outer(v, v)[:, :, None, None], symmetric=True)
        d2 = det2(k)
        results.append((lambda_max(k), d2.sign, d2.log_modulus))
    npt.assert_allclose(results[0], results[1], atol=1e-10)


# ---------------------------------------------------------------------------
# LowRank routes against the dense routes
# ---------------------------------------------------------------------------

LOW_RANK_ZOO = [
    ("rank1:b={b}", 1), ("rank1:b={b},n=2", 1), ("rank2:b={b},c={c}", 1),
    ("rank2:b={b},c={c},member=2", 1), ("remark_gencv:b1={b},b2={c}", 1),
    ("const:c={b}", 1), ("const:c={b}", 2), ("const_phi:c={b}", 1), ("const_phi:c={b}", 2),
]
# coefficients are 0 or of normal size (a subnormal kernel has no 1e-12
# relative precision on either route)
_COEFF = st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


def _low_rank_variants(kernel, factor):
    """The kernel as built, scaled, adjoint, its eta, its inverse kernel and
    the square-root kernel of its eta, each as the operator layer builds it."""
    eta = eta_of_kappa(kernel)
    variants = {"built": kernel, "scaled": scale_kernel(kernel, factor),
                "adjoint": adjoint_kernel(kernel), "eta": eta}
    if not det2(kernel).singular:
        variants["kappa_hat"] = inverse_kernel(kernel)
    if lambda_max(eta) < 1.0 - GATE_MARGIN:
        variants["kappa_s"] = kappa_s(eta)
    return variants


def _assert_close(got, want, tol, what):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    assert err <= tol, f"{what}: {err:.3e} > {tol:.3e}"


def _assert_operators_close(got, want, tol, what):
    """Kernels compared as operators: their Nystrom matrices, to tol times the
    HS norm of want (at least 1).  Entries of a dense factorisation carry an
    error of eps times that norm, which is N eps of the largest kernel value."""
    ref = assemble(want)
    _assert_close(assemble(got), ref, tol * max(1.0, np.linalg.norm(ref)), what)


def _assert_low_rank_routes_match_dense(kernel, what):
    """Every reader of the LowRank route equals the dense route on the same
    values to 1e-12 of its magnitude (the HS norm for a kernel), times the
    condition number of the factorised operator (I + M, or I - M for the
    complement readers): both routes are backward stable, so that is their
    forward-error scale."""
    assert isinstance(kernel.factored, LowRank), what
    dense = replace(kernel, factored=None)
    d_low, d_dense = det2(kernel), det2(dense)
    if d_low.singular != d_dense.singular:
        # only within a decade of the rank rule's threshold may they differ
        m = assemble(dense)
        sv = np.linalg.svd(np.eye(len(m)) + m, compute_uv=False)
        assert 0.1 * PIVOT_RTOL <= sv[-1] / sv[0] <= 10.0 * PIVOT_RTOL, what
    if d_low.singular or d_dense.singular:
        return
    assert d_low.sign == d_dense.sign, what
    if np.isfinite(d_low.value) and np.isfinite(d_dense.value):
        _assert_close(d_low.value, d_dense.value, 1e-12 * max(1.0, abs(d_dense.value)),
                      f"{what}: det2(I + B)")
    else:  # past the float range: the log modulus, to 1e-12 of its size, as the log readers below
        _assert_close(d_low.log_modulus, d_dense.log_modulus,
                      1e-12 * max(1.0, abs(d_dense.log_modulus)), f"{what}: log det2(I + B)")
    inv_dense = inverse_kernel(dense)
    eye = np.eye(kernel.grid.n_steps * kernel.dim)
    cond = (np.linalg.norm(eye + assemble(dense), 1)
            * np.linalg.norm(eye + assemble(inv_dense), 1))  # of I + M, in the 1-norm
    _assert_operators_close(inverse_kernel(kernel), inv_dense, 1e-12 * cond,
                            f"{what}: inverse kernel")

    if not kernel.symmetric:
        return
    low, full = spectrum(kernel, vectors=True), spectrum(dense, vectors=True)
    rho = max(1.0, abs(full.lambda_max), abs(full.lambda_min))
    _assert_close(low.lambda_max, full.lambda_max, 1e-12 * rho, f"{what}: lambda_max")
    _assert_close(low.lambda_min, full.lambda_min, 1e-12 * rho, f"{what}: lambda_min")
    if full.lambda_max >= 1.0 - GATE_MARGIN:
        return
    cond_c = rho / (1.0 - full.lambda_max)  # of I - M
    for reader, got, want in (
        ("logdet_complement", low.logdet_complement(), full.logdet_complement()),
        ("det2_complement", low.det2_complement().log_modulus,
         full.det2_complement().log_modulus),
    ):
        _assert_close(got, want, 1e-12 * max(1.0, abs(want)) * cond_c, f"{what}: {reader}")
    for reader in ("sqrt_kernel", "inverse_sqrt_kernel"):
        root = getattr(low, reader)()
        # a basis that spans the whole grid space gains nothing from a form
        assert isinstance(root.factored, LowRank) == (low.zeros > 0) and root.symmetric, what
        _assert_operators_close(root, getattr(full, reader)(), 1e-12 * cond_c,
                                f"{what}: {reader}")


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 512), case=st.sampled_from(LOW_RANK_ZOO), b=_COEFF, c=_COEFF,
       factor=_COEFF)
@example(n=64, case=("rank1:b={b}", 1), b=-1.0, c=0.0, factor=1.0)
@example(n=64, case=("rank1:b={b}", 1), b=-0.999999, c=0.0, factor=1.0)
@example(n=512, case=("remark_gencv:b1={b},b2={c}", 1), b=-2.0, c=-3.0, factor=-1.7)
def test_low_rank_routes_match_dense_property(n, case, b, c, factor):
    template, dim = case
    spec = template.format(b=repr(b), c=repr(c))
    kernel = kernel_zoo(spec, make_grid(1.0, n), dim)
    rank = kernel.factored.core.shape[0]
    for name, variant in _low_rank_variants(kernel, factor).items():
        if variant.factored is None:
            # the eigenbasis of eta (rank 2r) spans the whole grid space
            assert name == "kappa_s" and n * dim <= 2 * rank
            continue
        _assert_low_rank_routes_match_dense(variant, f"{spec} d={dim} N={n} {name}")


def test_rank_one_singular_decision_matches_dense():
    g = make_grid(1.0, 64)
    for b, singular in ((-1.0, True), (-0.999999, False)):
        kernel = kernel_zoo(f"rank1:b={b}", g)
        d_low = det2(kernel)
        assert d_low.singular == det2(replace(kernel, factored=None)).singular
        assert d_low.singular == singular
