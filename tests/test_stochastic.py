"""Path sampling and the Wiener functionals: determinism, moment checks at
5 sigma, Ito conventions, and the closed-form chaos oracles."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from orderone import (
    InvalidArgumentError,
    MatrixKernel,
    PreconditionError,
    TestFunctional,
    adjoint_kernel,
    apply_linear_transformation,
    apply_transformation,
    cameron_martin_drift,
    c_kernels,
    cm_exponent,
    cm_trace_correction,
    eta_of_kappa,
    exp_q_moment_guard,
    h_functionals,
    inverse_kernel,
    kappa_from_phi,
    kernel_from_values,
    kappa_s,
    kernel_zoo,
    linear_node_value,
    make_grid,
    orthonormal_columns,
    quadratic_form,
    sample_paths,
    scale_kernel,
    transformed_node_value,
    wiener_integral,
)
from orderone.grid_kernel import LowerExp, LowRank
from orderone.operator import spectrum


@pytest.fixture
def grid():
    return make_grid(1.0, 64)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic(grid):
    a = sample_paths(grid, 1, 1, seed=42)
    b = sample_paths(grid, 1, 1, seed=42)
    npt.assert_array_equal(a.increments, b.increments)
    c = sample_paths(grid, 1, 1, seed=43)
    assert np.any(c.increments != a.increments)


def test_sampling_streams_are_distinct(grid):
    a = sample_paths(grid, 1, 8, seed=1, stream=(0, 0))
    b = sample_paths(grid, 1, 8, seed=1, stream=(0, 1))
    assert np.any(a.increments != b.increments)


def test_sampling_into_a_buffer_gives_the_same_bits(grid):
    fresh = sample_paths(grid, 2, 9, seed=4, stream=(1, 3))
    buf = np.full(9 * grid.n_steps * 2 + 5, -1.0)
    into = sample_paths(grid, 2, 9, seed=4, stream=(1, 3), out=buf)
    npt.assert_array_equal(into.increments, fresh.increments)
    assert np.shares_memory(into.increments, buf)
    assert np.all(buf[-5:] == -1.0)  # only the head is drawn into
    for bad in (np.empty(9 * grid.n_steps * 2 - 1), np.empty((9, grid.n_steps * 2)),
                np.empty(9 * grid.n_steps * 2, dtype=np.float32)):
        with pytest.raises(InvalidArgumentError):
            sample_paths(grid, 2, 9, seed=4, out=bad)


def test_terminal_variance_matches_horizon():
    g = make_grid(2.0, 32)
    batch = sample_paths(g, 1, 100_000, seed=7)
    end = batch.terminal_values()[:, 0]
    var = end.var(ddof=1)
    # sampling std of the variance estimator is about T sqrt(2/M)
    assert abs(var - 2.0) <= 5.0 * 2.0 * np.sqrt(2.0 / 100_000)
    assert abs(end.mean()) <= 5.0 * np.sqrt(2.0 / 100_000)


def test_coordinates_uncorrelated():
    g = make_grid(1.0, 16)
    batch = sample_paths(g, 2, 100_000, seed=8)
    end = batch.terminal_values()
    corr = np.mean(end[:, 0] * end[:, 1])
    assert abs(corr) <= 5.0 / np.sqrt(100_000)


def test_left_node_values_start_at_zero(grid):
    batch = sample_paths(grid, 2, 10, seed=3)
    w = batch.left_node_values()
    assert np.all(w[:, 0] == 0)
    npt.assert_allclose(w[:, 5], batch.increments[:, :5].sum(axis=1), atol=1e-15)
    npt.assert_allclose(batch.value_at_node(grid.n_steps), batch.terminal_values())


# ---------------------------------------------------------------------------
# Wiener integral
# ---------------------------------------------------------------------------

def test_wiener_integral_zero_kernel(grid):
    batch = sample_paths(grid, 1, 5, seed=0)
    assert np.all(wiener_integral(kernel_zoo("zero", grid), batch) == 0)


def test_wiener_integral_volterra_reproduces_path(grid):
    batch = sample_paths(grid, 1, 10, seed=1)
    integral = wiener_integral(kernel_zoo("volterra", grid), batch)
    npt.assert_allclose(integral, batch.left_node_values(), atol=1e-14)


def test_wiener_integral_ito_isometry():
    # brute-force isometry: Cov(I_i) ~ sum_j kappa_ij kappa_ij^T Delta at 5 sigma
    g = make_grid(1.0, 16)
    rng = np.random.default_rng(5)
    k = kernel_from_values(g, rng.normal(size=(16, 16)))
    m = 200_000
    batch = sample_paths(g, 1, m, seed=5)
    integral = wiener_integral(k, batch)[:, :, 0]
    target = np.einsum("ij,ij->i", k.values[:, :, 0, 0], k.values[:, :, 0, 0]) * g.step
    for i in (0, 7, 15):
        sample = integral[:, i]
        assert abs(sample.mean()) <= 5.0 * sample.std(ddof=1) / np.sqrt(m)
        var = sample.var(ddof=1)
        assert abs(var - target[i]) <= 5.0 * var * np.sqrt(2.0 / m)


# ---------------------------------------------------------------------------
# transformation of order one
# ---------------------------------------------------------------------------

def test_transform_zero_kernel_is_identity(grid):
    batch = sample_paths(grid, 1, 4, seed=2)
    out = apply_transformation(kernel_zoo("zero", grid), batch)
    npt.assert_array_equal(out.increments, batch.increments)


def test_transform_of_zero_path_is_zero(grid):
    from orderone.stochastic import PathBatch

    zero = PathBatch(grid, 1, np.zeros((3, grid.n_steps, 1)), seed=0)
    k = kernel_zoo("rank1:b=0.4", grid)
    out = apply_transformation(k, zero)
    assert np.all(out.increments == 0)


def test_transform_round_trip_rank_one(grid):
    k = kernel_zoo("rank1:b=0.3", grid)
    k_hat = inverse_kernel(k)
    batch = sample_paths(grid, 1, 100, seed=3)
    back = apply_transformation(k, apply_transformation(k_hat, batch))
    scale = np.max(np.abs(batch.increments))
    assert np.max(np.abs(back.increments - batch.increments)) <= 1e-8 * scale


def test_transform_volterra_is_explicit_euler(grid):
    b = 0.7
    k = scale_kernel(kernel_zoo("volterra", grid), b)
    batch = sample_paths(grid, 1, 6, seed=4)
    out = apply_transformation(k, batch)
    w = batch.left_node_values()[:, :, 0]
    expected = batch.increments[:, :, 0] + b * w * grid.step
    npt.assert_allclose(out.increments[:, :, 0], expected, atol=1e-14)


# ---------------------------------------------------------------------------
# quadratic form
# ---------------------------------------------------------------------------

def test_quadratic_form_zero(grid):
    batch = sample_paths(grid, 1, 5, seed=0)
    assert np.all(quadratic_form(kernel_zoo("zero", grid), batch) == 0)


def test_quadratic_form_requires_symmetry(grid):
    batch = sample_paths(grid, 1, 5, seed=0)
    with pytest.raises(PreconditionError):
        quadratic_form(kernel_zoo("volterra", grid), batch)


def test_quadratic_form_volterra_algebraic_identity():
    # with the symmetrized Volterra kernel (1/2)(1_{s<t} + 1_{t<s}), the strict
    # triangle gives q = sum W_i dW_i = (W_T^2 - sum dW^2)/2 exactly per path
    g = make_grid(1.0, 32)
    vol = kernel_zoo("volterra", g)
    sym = kernel_from_values(
        g, 0.5 * (vol.values + np.transpose(vol.values, (1, 0, 3, 2))), symmetric=True
    )
    batch = sample_paths(g, 1, 50, seed=6)
    q = 2.0 * quadratic_form(sym, batch)  # the two triangles contribute equally
    end = batch.terminal_values()[:, 0]
    expected = 0.5 * (end**2 - np.sum(batch.increments[:, :, 0] ** 2, axis=1))
    npt.assert_allclose(q, expected, atol=1e-12)


def test_quadratic_form_rank_one_chaos_oracle():
    # q ~ (a/2)(G^2 - 1) with G the Gaussian weight of the mode, to 5 sqrt(step)
    g = make_grid(1.0, 256)
    a = 0.8
    eta = kernel_zoo(f"rank1:b={a}", g)
    m = 2000
    batch = sample_paths(g, 1, m, seed=7)
    q = quadratic_form(eta, batch)
    e = orthonormal_columns(g, 1)[:, 0]
    gaus = batch.increments[:, :, 0] @ e
    oracle = 0.5 * a * (gaus**2 - 1.0)
    assert np.max(np.abs(q - oracle)) <= 5.0 * np.sqrt(g.step) * max(a, 1.0)


@pytest.mark.parametrize(
    "spec,dim",
    [
        ("rank1:b=0.5", 1),
        ("remark_gencv:b1=-2,b2=-3", 1),
        ("volterra", 1),
        ("rank2:b=0.41421356,c=1,member=2", 1),
        ("expdiag:p=[0.5,-0.5]", 2),
    ],
)
def test_quadratic_form_moments(spec, dim):
    # E q = 0 (Ito sums are martingale increments); Var q = ||eta||^2 / 2,
    # for the eta kernel of every zoo family
    from orderone import kernel_l2_norm

    g = make_grid(1.0, 128)
    eta = eta_of_kappa(kernel_zoo(spec, g, dim))
    m = 100_000
    batch = sample_paths(g, dim, m, seed=8)
    q = quadratic_form(eta, batch)
    se_mean = q.std(ddof=1) / np.sqrt(m)
    assert abs(q.mean()) <= 5.0 * se_mean
    var = q.var(ddof=1)
    centered = (q - q.mean()) ** 2
    se_var = centered.std(ddof=1) / np.sqrt(m)
    assert abs(var - 0.5 * kernel_l2_norm(eta) ** 2) <= 5.0 * se_var


# ---------------------------------------------------------------------------
# oscillator functionals
# ---------------------------------------------------------------------------

def test_h_zero_kernel(grid):
    batch = sample_paths(grid, 1, 5, seed=0)
    assert np.all(h_functionals(kernel_zoo("zero", grid), batch) == 0)


def test_h_volterra_mean():
    # E int_0^1 W_t^2 dt = 1/2, so E h = 1/4
    g = make_grid(1.0, 128)
    batch = sample_paths(g, 1, 100_000, seed=9)
    h = h_functionals(kernel_zoo("volterra", g), batch)
    se = h.std(ddof=1) / np.sqrt(batch.n_paths)
    # left-endpoint quadrature bias of E h is (1 - 1/N)/4 - 1/4 ~ -1/(4N)
    assert abs(h.mean() - 0.25 * (1.0 - 1.0 / g.n_steps)) <= 5.0 * se


def test_h_scalar_direction_collapse(grid):
    k = kernel_zoo("rank1:b=0.5", grid)
    batch = sample_paths(grid, 1, 20, seed=10)
    npt.assert_allclose(
        h_functionals(k, batch, np.array([1.0])), h_functionals(k, batch), atol=1e-15
    )


def test_h_sums_over_basis():
    g = make_grid(1.0, 32)
    k = kernel_zoo("expdiag:p=[0.5,-0.5]", g)
    batch = sample_paths(g, 2, 40, seed=11)
    total = h_functionals(k, batch, np.array([1.0, 0.0])) + h_functionals(
        k, batch, np.array([0.0, 1.0])
    )
    npt.assert_allclose(total, h_functionals(k, batch), atol=1e-12)

    assert np.all(h_functionals(k, batch) >= 0)
    with pytest.raises(InvalidArgumentError):
        h_functionals(k, batch, np.array([1.0]))


# ---------------------------------------------------------------------------
# linear-transformation exponent
# ---------------------------------------------------------------------------

def test_cm_exponent_zero(grid):
    batch = sample_paths(grid, 1, 5, seed=0)
    psi, psi_t = cm_exponent(kernel_zoo("zero", grid), batch)
    assert np.all(psi == 0) and np.all(psi_t == 0)


def test_cm_trace_correction_constant():
    # for phi == c on [0,1]^2 the correction is c sum_j t_j Delta -> c/2
    g = make_grid(1.0, 256)
    c = 1.4
    phi = kernel_zoo(f"const:c={c}", g)
    corr = cm_trace_correction(phi)
    expected = c * np.sum(g.nodes) * g.step
    npt.assert_allclose(corr, expected, atol=1e-13)
    npt.assert_allclose(corr, c / 2.0, atol=2.0 * c / g.n_steps)
    batch = sample_paths(g, 1, 7, seed=12)
    psi, psi_t = cm_exponent(phi, batch)
    npt.assert_allclose(psi_t - psi, corr, atol=1e-12)


def test_cm_cross_term_unbiased_after_trace_correction():
    # the cross term has mean -(psi_tilde - psi); adding the deterministic
    # trace correction centers it, and the left-node convention keeps the
    # diagonal pairs from adding any extra bias
    g = make_grid(1.0, 64)
    phi = kernel_zoo("const:c=1", g)
    m = 200_000
    batch = sample_paths(g, 1, m, seed=13)
    drift = cameron_martin_drift(phi, batch)
    psi, _ = cm_exponent(phi, batch)
    quad = -0.5 * np.sum(drift[:, :, 0] ** 2, axis=1) * g.step
    cross = psi - quad
    se = cross.std(ddof=1) / np.sqrt(m)
    assert abs(cross.mean() + cm_trace_correction(phi)) <= 5.0 * se


def test_cm_drift_matches_wiener_integral_of_tail():
    from orderone import kappa_from_phi

    g = make_grid(1.0, 256)
    phi = kernel_zoo("const:c=1", g)
    batch = sample_paths(g, 1, 500, seed=14)
    drift = cameron_martin_drift(phi, batch)
    integral = wiener_integral(kappa_from_phi(phi), batch)
    scale = max(1.0, np.max(np.abs(integral)))
    assert np.max(np.abs(drift - integral)) <= 5.0 * np.sqrt(g.step) * scale


def test_apply_linear_transformation_shifts_by_drift(grid):
    phi = kernel_zoo("const:c=0.5", grid)
    batch = sample_paths(grid, 1, 9, seed=15)
    out = apply_linear_transformation(phi, batch)
    drift = cameron_martin_drift(phi, batch)
    npt.assert_allclose(out.increments, batch.increments + drift * grid.step, atol=1e-15)


# ---------------------------------------------------------------------------
# moment guard and functionals
# ---------------------------------------------------------------------------

def test_moment_guard_states(grid):
    assert exp_q_moment_guard(kernel_zoo("zero", grid)) == "ok"
    assert exp_q_moment_guard(kernel_zoo("rank1:b=0.4", grid)) == "ok"
    assert exp_q_moment_guard(kernel_zoo("rank1:b=0.6", grid)) == "ok_no_ci"
    assert exp_q_moment_guard(kernel_zoo("rank1:b=0.5", grid)) == "ok_no_ci"  # boundary
    assert exp_q_moment_guard(kernel_zoo("rank1:b=1.0", grid)) == "reject"
    assert exp_q_moment_guard(kernel_zoo("rank1:b=-5.0", grid)) == "ok"


def test_functional_family_bounded(grid):
    batch = sample_paths(grid, 2, 1000, seed=16)
    for text in ("one", "cos_end:1.3", "exp_negsq", "cos_mid:2.0,0.5"):
        f = TestFunctional.parse(text)
        vals = f.evaluate(batch)
        assert np.all(np.abs(vals) <= 1.0 + 1e-15)
        assert str(TestFunctional.parse(str(f))) == str(f)


def test_functional_parse_errors():
    for bad in ("nope", "cos_end:x", "cos_mid:1.0", "cos_mid:x,0.5", "cos_mid:1,2,3",
                "cos_end:nan", "cos_end:inf", "cos_end:-inf", "cos_mid:nan,0.5",
                "cos_mid:1,nan", "cos_mid:inf,0.5", "cos_mid:1,-inf"):
        with pytest.raises(InvalidArgumentError):
            TestFunctional.parse(bad)


def test_functional_evaluations(grid):
    batch = sample_paths(grid, 1, 50, seed=17)
    end = batch.terminal_values()[:, 0]
    npt.assert_allclose(
        TestFunctional.parse("cos_end:2.0").evaluate(batch), np.cos(2.0 * end), atol=1e-15
    )
    npt.assert_allclose(
        TestFunctional.parse("exp_negsq").evaluate(batch), np.exp(-(end**2)), atol=1e-15
    )
    mid = batch.value_at_node(32)[:, 0]
    npt.assert_allclose(
        TestFunctional.parse("cos_mid:1.0,0.5").evaluate(batch), np.cos(mid), atol=1e-15
    )


# ---------------------------------------------------------------------------
# factored kernel forms against the dense product
# ---------------------------------------------------------------------------

FACTORED_ZOO = [
    ("volterra", 1), ("volterra", 2), ("rank1:b=0.3", 1), ("rank1:b=-0.6,n=3", 1),
    ("rank2:b=0.2,c=0.3", 1), ("rank2:b=0.2,c=0.3,member=2", 1),
    ("remark_gencv:b1=-2,b2=-3", 1), ("expdiag:p=[0.5,-0.5]", 2), ("expdiag:p=[-3]", 1),
    ("const:c=1", 1), ("const:c=0.7", 2), ("const_phi:c=1", 1), ("const_phi:c=-0.4", 2),
]
DERIVED = {
    "as built": lambda k: k,
    "scaled": lambda k: scale_kernel(k, -1.7),
    "adjoint": adjoint_kernel,
    "eta": eta_of_kappa,
    "tail": kappa_from_phi,
}


def _dense(kernel):
    return replace(kernel, factored=None)


def _magnitudes(kernel):
    """The kernel's entries before any cancellation: |L| |C| |R|^T for a
    low-rank form, |values| otherwise."""
    form = kernel.factored
    vals = np.abs(kernel.values)
    if isinstance(form, LowRank):
        bound = LowRank(np.abs(form.left), np.abs(form.core), np.abs(form.right))
        vals = bound.rows(kernel.grid, kernel.dim, np.arange(kernel.grid.n_steps))
    return MatrixKernel(kernel.grid, kernel.dim, np.ascontiguousarray(vals), kernel.symmetric)


def _assert_functionals_match(kernel, batch):
    """Every path functional on the factored kernel equals the dense product
    to 1e-12 of its magnitude: the larger of the dense result and the same
    functional of |kernel| on |dW|, which bounds the terms before they cancel."""
    dense, bound = _dense(kernel), _magnitudes(kernel)
    abs_batch = replace(batch, increments=np.abs(batch.increments))
    x = np.linspace(1.0, 0.5, kernel.dim)
    functionals = [wiener_integral, h_functionals, cameron_martin_drift,
                   lambda k, b: h_functionals(k, b, x), lambda k, b: cm_exponent(k, b)[0]]
    if kernel.symmetric:
        functionals.append(quadratic_form)
    for fn in functionals:
        want = fn(dense, batch)
        scale = max(np.max(np.abs(want)), np.max(np.abs(fn(bound, abs_batch))))
        npt.assert_allclose(fn(kernel, batch), want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("derive", sorted(DERIVED))
@pytest.mark.parametrize("spec,dim", FACTORED_ZOO)
def test_factored_functionals_match_dense(spec, dim, derive):
    # N = 150 is not a multiple of anything the recursions block by
    g = make_grid(1.0, 150)
    kernel = DERIVED[derive](kernel_zoo(spec, g, dim))
    _assert_functionals_match(kernel, sample_paths(g, dim, 40, seed=21))


# coefficients are 0 or of normal size: a subnormal kernel has no 1e-12
# relative precision on either route
_COEFF = st.floats(-5.0, 5.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 90),
    rates=st.lists(st.floats(-400.0, 40.0), min_size=1, max_size=2),
    b=_COEFF,
    c=_COEFF,
    factor=_COEFF,
)
def test_factored_forms_match_dense_property(n, rates, b, c, factor):
    g = make_grid(2.0, n)
    specs = [(f"expdiag:p=[{','.join(map(repr, rates))}]", len(rates)),
             (f"remark_gencv:b1={b!r},b2={c!r}", 1), (f"const_phi:c={b!r}", len(rates))]
    batch = {d: sample_paths(g, d, 8, seed=n) for d in (1, len(rates))}
    for spec, dim in specs:
        kernel = kernel_zoo(spec, g, dim)
        for derived in (kernel, scale_kernel(kernel, factor), adjoint_kernel(kernel),
                        eta_of_kappa(kernel)):
            _assert_functionals_match(derived, batch[dim])


def test_quadratic_form_matches_strict_lower_sum():
    # the half (full - diagonal) identity against the defining strict-lower sum
    g = make_grid(1.0, 24)
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(24, 24, 2, 2))
    eta = kernel_from_values(g, 0.5 * (raw + raw.transpose(1, 0, 3, 2)), symmetric=True)
    batch = sample_paths(g, 2, 30, seed=4)
    dw = batch.increments
    oracle = np.einsum("mia,ijab,mjb,ij->m", dw, eta.values, dw, np.tri(24, k=-1))
    npt.assert_allclose(quadratic_form(eta, batch), oracle, rtol=1e-12, atol=1e-12)
    rank = eta_of_kappa(kernel_zoo("remark_gencv:b1=-2,b2=-3", g))
    dw = sample_paths(g, 1, 30, seed=5)
    oracle = np.einsum("mia,ijab,mjb,ij->m", dw.increments, rank.values, dw.increments,
                       np.tri(24, k=-1))
    npt.assert_allclose(quadratic_form(rank, dw), oracle, rtol=1e-12, atol=1e-12)


def test_factored_form_survives_scenario_chains(grid):
    # transf and inverse take q from the eta of a rank-one kernel; harmonic
    # takes h from sqrt(lambda) times volterra or expdiag
    assert isinstance(kernel_zoo("rank1:b=0.3", grid).factored, LowRank)
    eta = eta_of_kappa(kernel_zoo("rank1:b=0.3", grid))
    assert isinstance(eta.factored, LowRank) and eta.factored.core.shape == (2, 2)
    assert isinstance(scale_kernel(eta, 0.5).factored, LowRank)
    assert isinstance(kappa_from_phi(kernel_zoo("const:c=1", grid)).factored, LowRank)
    for spec, dim in (("volterra", 1), ("expdiag:p=[0.5,-0.5]", 2)):
        scaled = scale_kernel(kernel_zoo(spec, grid, dim), np.sqrt(0.5))
        assert isinstance(scaled.factored, LowerExp)
    # kernels built by dense algebra, or by the operator layer from a dense
    # kernel, carry no form; the operator layer keeps a LowRank one
    assert eta_of_kappa(kernel_zoo("volterra", grid)).factored is None
    assert inverse_kernel(kernel_zoo("volterra", grid)).factored is None
    assert isinstance(inverse_kernel(kernel_zoo("rank1:b=0.3", grid)).factored, LowRank)


def test_factors_that_disagree_with_values_are_rejected(grid):
    good = kernel_zoo("rank1:b=0.3", grid)
    form = good.factored
    for wrong in (LowRank(form.left, form.core * (1 + 1e-9), form.right),
                  LowRank(form.left, -form.core, form.right),
                  LowRank(form.left[:-1], form.core, form.right[:-1])):
        with pytest.raises(InvalidArgumentError):
            MatrixKernel(grid, 1, good.values.copy(), True, wrong)
    vol = kernel_zoo("volterra", grid)
    for wrong in (LowerExp(np.array([1e-6])), LowerExp(np.zeros(1), transposed=True),
                  LowerExp(np.zeros(1), scale=2.0), LowerExp(np.zeros(2))):
        with pytest.raises(InvalidArgumentError):
            MatrixKernel(grid, 1, vol.values.copy(), factored=wrong)


def test_expdiag_large_negative_rate_is_finite():
    # e^{-p t} alone would overflow at p t = 2000; the blocked recursion does not
    g = make_grid(1.0, 64)
    kernel = kernel_zoo("expdiag:p=[-2000,-300]", g)
    batch = sample_paths(g, 2, 20, seed=9)
    for k in (kernel, adjoint_kernel(kernel), scale_kernel(kernel, 3.0)):
        assert np.all(np.isfinite(wiener_integral(k, batch)))
        _assert_functionals_match(k, batch)


# ---------------------------------------------------------------------------
# the node read against the transformed batch
# ---------------------------------------------------------------------------

NODE_GRID = make_grid(1.0, 40)
# every functional tag; cos_mid at tau = 0, at an interior node and at tau = T
NODE_FUNCTIONALS = ["one", "cos_end:1.3", "exp_negsq", "cos_mid:2.0,0", "cos_mid:2.0,0.45",
                    "cos_mid:2.0,1"]


def _dense_operator_kernels():
    """The kernels the operator layer builds for the right-hand sides: kappa_hat
    (inverse), kappa_s and its inverse (surjective) and c'_hat (harmonic)."""
    g, out = NODE_GRID, {}
    for dim in (1, 2):
        kappa = scale_kernel(kernel_zoo("volterra", g, dim), 0.5)
        out[f"kappa_hat[{dim}]"] = inverse_kernel(kappa)
        eta = scale_kernel(eta_of_kappa(kernel_zoo("volterra", g, dim)), 0.3)
        out[f"kappa_s[{dim}]"] = kappa_s(eta)
        out[f"kappa_s_hat[{dim}]"] = spectrum(eta, vectors=True).inverse_sqrt_kernel()
        neg_c = scale_kernel(c_kernels(kernel_zoo("volterra", g, dim)), -1.0)
        out[f"c_prime_hat[{dim}]"] = spectrum(neg_c, vectors=True).inverse_sqrt_kernel()
    return out


NODE_KERNELS = {f"{spec},{dim}": kernel_zoo(spec, NODE_GRID, dim)
                for spec, dim in FACTORED_ZOO + [("volterra", 1), ("zero", 1), ("zero", 2),
                                                  ("const:c=1", 2), ("expdiag:p=[0.8]", 1)]}
NODE_KERNELS.update(_dense_operator_kernels())


def _assert_node_read_matches(f, image, read, batch):
    k = f.node(batch.grid)
    if k is None:  # 'one' reads no node
        npt.assert_array_equal(f.evaluate(image), np.ones(batch.n_paths))
        return
    want = image.value_at_node(k)
    got = read(k)
    scale = max(1.0, np.max(np.abs(want)))
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    npt.assert_allclose(f.at_node(got), f.evaluate(image), rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("text", NODE_FUNCTIONALS)
@pytest.mark.parametrize("name", sorted(NODE_KERNELS))
def test_transformed_node_value_matches_transformed_batch(name, text):
    kernel, f = NODE_KERNELS[name], TestFunctional.parse(text)
    batch = sample_paths(NODE_GRID, kernel.dim, 30, seed=31)
    _assert_node_read_matches(f, apply_transformation(kernel, batch),
                              lambda k: transformed_node_value(kernel, batch, k), batch)


@pytest.mark.parametrize("text", NODE_FUNCTIONALS)
@pytest.mark.parametrize("spec,dim", [("const:c=1", 1), ("const:c=1", 2), ("volterra", 2),
                                      ("const_phi:c=-0.4", 2), ("expdiag:p=[0.5,-0.5]", 2)])
def test_linear_node_value_matches_linear_transformation(spec, dim, text):
    phi, f = kernel_zoo(spec, NODE_GRID, dim), TestFunctional.parse(text)
    batch = sample_paths(NODE_GRID, dim, 30, seed=32)
    _assert_node_read_matches(f, apply_linear_transformation(phi, batch),
                              lambda k: linear_node_value(phi, batch, k), batch)


def test_functional_nodes():
    g = make_grid(1.0, 40)
    assert TestFunctional.parse("one").node(g) is None
    assert TestFunctional.parse("cos_end:1").node(g) == 40
    assert TestFunctional.parse("exp_negsq").node(g) == 40
    assert [TestFunctional.parse(f"cos_mid:1,{tau}").node(g)
            for tau in (0, 0.45, 1)] == [0, 18, 40]
    # a tau outside [0, T] was clamped to an end node without a word
    for tau in (-1, 7, 1.0000001):
        with pytest.raises(InvalidArgumentError, match=r"outside \[0, 1\]"):
            TestFunctional.parse(f"cos_mid:1,{tau}").node(g)
    with pytest.raises(InvalidArgumentError):
        transformed_node_value(kernel_zoo("volterra", g), sample_paths(g, 1, 3, seed=1), 41)
