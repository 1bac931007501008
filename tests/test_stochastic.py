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
    make_grid,
    node_value,
    node_weights,
    orthonormal_columns,
    quadratic_form,
    ramer_exponent,
    sample_paths,
    scale_kernel,
    wiener_integral,
)
from orderone import grid_kernel, stochastic
from orderone.grid_kernel import LowerExp, LowRank
from orderone.operator import spectrum
from test_grid_kernel import lower_exp_closed_form


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


@pytest.mark.parametrize("dim, n_paths, seed, stream", [(1, 5, 0, ()), (2, 3, 42, (0, 7)),
                                                      (1, 4, -1, (1, 0))])
def test_sampling_generator_is_pinned(grid, dim, n_paths, seed, stream):
    # component a from SFC64 seeded by SeedSequence([seed, *stream]) (a = 0)
    # or SeedSequence([seed, *stream, a]), scaled by sqrt(Delta): a change of
    # generator moves every number the package reports
    keys = [np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *stream, *[a] * (a > 0)])
            for a in range(dim)]
    want = np.stack([np.random.Generator(np.random.SFC64(key)).standard_normal(
        (n_paths, grid.n_steps)) for key in keys], axis=-1) * np.sqrt(grid.step)
    got = sample_paths(grid, dim, n_paths, seed, stream).increments
    assert got.tobytes() == want.tobytes()


def test_sampling_streams_are_distinct(grid):
    a = sample_paths(grid, 1, 8, seed=1, stream=(0, 0))
    b = sample_paths(grid, 1, 8, seed=1, stream=(0, 1))
    assert np.any(a.increments != b.increments)


@pytest.mark.parametrize("rows", [1, 7, 9, 14])
def test_path_blocks_give_the_bits_of_one_draw(grid, rows):
    # 9 paths in blocks of 1, 7 (a ragged last block of 2), 9 and 9 + 5 rows
    whole = sample_paths(grid, 2, 9, seed=4, stream=(1, 3)).increments
    heads, parts = set(), []
    for block in stochastic.path_blocks(grid, 2, 9, seed=4, stream=(1, 3), rows=rows):
        assert block.stream == (1, 3) and not block.increments.flags.writeable
        heads.add(block.increments.__array_interface__["data"][0])
        parts.append(block.increments.copy())
    assert [len(p) for p in parts] == [min(rows, 9 - r0) for r0 in range(0, 9, rows)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert len(heads) == 1  # every block is the head of one buffer


def test_a_draw_holds_the_draw_of_fewer_paths_and_components(grid):
    # each component is its own generator's draw: the first n paths and d
    # components of a draw are the draw of n paths and d components, and a
    # component given fewer paths is drawn for those alone, nan past them
    whole = sample_paths(grid, 3, 9, seed=4, stream=(1, 3)).increments
    for n, d in ((9, 1), (4, 2), (1, 3)):
        part = sample_paths(grid, d, n, seed=4, stream=(1, 3)).increments
        assert np.ascontiguousarray(whole[:n, :, :d]).tobytes() == part.tobytes()
    parts = [block.increments.copy()
             for block in stochastic.path_blocks(grid, 3, (9, 5, 2), seed=4, stream=(1, 3), rows=4)]
    stair = np.concatenate(parts)
    for a, n in enumerate((9, 5, 2)):
        assert stair[:n, :, a].tobytes() == whole[:n, :, a].tobytes()
        assert np.isnan(stair[n:, :, a]).all()


@pytest.mark.parametrize("counts", [(0, 0), (3, 4), (3, -1), (3,), (3, 2, 1)])
def test_component_counts_are_checked(grid, counts):
    # one count per component, non-increasing, the first at least 1
    with pytest.raises(InvalidArgumentError, match="n_paths must be >= 1"):
        next(stochastic.path_blocks(grid, 2, counts, seed=0))


def test_terminal_variance_matches_horizon():
    g = make_grid(2.0, 32)
    batch = sample_paths(g, 1, 100_000, seed=7)
    end = batch.value_at_node(g.n_steps)[:, 0]
    var = end.var(ddof=1)
    # sampling std of the variance estimator is about T sqrt(2/M)
    assert abs(var - 2.0) <= 5.0 * 2.0 * np.sqrt(2.0 / 100_000)
    assert abs(end.mean()) <= 5.0 * np.sqrt(2.0 / 100_000)


def test_coordinates_uncorrelated():
    g = make_grid(1.0, 16)
    batch = sample_paths(g, 2, 100_000, seed=8)
    end = batch.value_at_node(g.n_steps)
    corr = np.mean(end[:, 0] * end[:, 1])
    assert abs(corr) <= 5.0 / np.sqrt(100_000)


def test_left_node_values_start_at_zero(grid):
    batch = sample_paths(grid, 2, 10, seed=3)
    w = batch.left_node_values()
    assert np.all(w[:, 0] == 0)
    npt.assert_allclose(w[:, 5], batch.increments[:, :5].sum(axis=1), atol=1e-15)
    npt.assert_allclose(batch.value_at_node(grid.n_steps), batch.increments.sum(axis=1))


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
    end = batch.value_at_node(g.n_steps)[:, 0]
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
    assert np.all(cm_exponent(kernel_zoo("zero", grid), batch) == 0)


def test_cm_trace_correction_constant():
    # for phi == c on [0,1]^2 the correction is c sum_j t_j Delta -> c/2
    g = make_grid(1.0, 256)
    c = 1.4
    phi = kernel_zoo(f"const:c={c}", g)
    corr = cm_trace_correction(phi)
    expected = c * np.sum(g.nodes) * g.step
    npt.assert_allclose(corr, expected, atol=1e-13)
    npt.assert_allclose(corr, c / 2.0, atol=2.0 * c / g.n_steps)


@pytest.mark.parametrize("spec, dim", [
    ("const:c=1", 1), ("const:c=-0.7", 2), ("const_phi:c=0.7", 1), ("const_phi:c=0.7", 2),
    ("rank1:b=0.3", 1), ("rank2:b=0.2,c=0.3,member=2", 1), ("remark_gencv:b1=-2,b2=-3", 1),
])
def test_cm_trace_correction_of_the_factors_matches_the_dense_sum(spec, dim):
    # a LowRank phi is read from its factors; its multiplied-out copy takes
    # the dense sum, which stays the reference
    g = make_grid(1.0, 64)
    phi = kernel_zoo(spec, g, dim)
    assert isinstance(phi.factored, grid_kernel.LowRank)
    low = cm_trace_correction(phi)
    npt.assert_allclose(low, cm_trace_correction(MatrixKernel(g, dim, phi.matrix)),
                        rtol=1e-13, atol=1e-15)


def test_cm_cross_term_unbiased_after_trace_correction():
    # the cross term has mean -(psi_tilde - psi); adding the deterministic
    # trace correction centers it, and the left-node convention keeps the
    # diagonal pairs from adding any extra bias
    g = make_grid(1.0, 64)
    phi = kernel_zoo("const:c=1", g)
    m = 200_000
    batch = sample_paths(g, 1, m, seed=13)
    drift = cameron_martin_drift(phi, batch)
    psi = cm_exponent(phi, batch)
    quad = -0.5 * np.sum(drift[:, :, 0] ** 2, axis=1) * g.step
    cross = psi - quad
    se = cross.std(ddof=1) / np.sqrt(m)
    assert abs(cross.mean() + cm_trace_correction(phi)) <= 5.0 * se


def test_cm_drift_matches_wiener_integral_of_tail():
    # the tail sum over u > s makes the linear drift the Wiener integral of
    # kappa_phi path by path, not only up to an O(sqrt(Delta)) gap
    g = make_grid(1.0, 256)
    phi = kernel_zoo("const:c=1", g)
    batch = sample_paths(g, 1, 500, seed=14)
    drift = cameron_martin_drift(phi, batch)
    integral = wiener_integral(kappa_from_phi(phi), batch)
    scale = max(1.0, np.max(np.abs(integral)))
    assert np.max(np.abs(drift - integral)) <= 1e-12 * scale


# drift kernels phi, or kernels kappa, at d = 1 and d = 2
RAMER_KERNELS = [("rank1:b=0.3", 1), ("rank2:b=0.2,c=0.3,member=2", 1), ("volterra", 1),
                 ("volterra", 2), ("expdiag:p=[0.5,-0.5]", 2), ("const_phi:c=-0.4", 2),
                 ("const:c=1", 1), ("const:c=0.7", 2)]


@pytest.mark.parametrize("spec,dim", RAMER_KERNELS)
def test_cm_exponent_is_the_path_based_psi(spec, dim):
    # Psi as the paper writes it, from the path at the left nodes:
    # - sum_j < sum_i phi_ij^T dW_i, W(t_j) > Delta - 1/2 Delta |G|^2,
    # G_i = sum_j phi(t_i, t_j) W(t_j) Delta
    g = make_grid(1.0, 48)
    phi, batch = kernel_zoo(spec, g, dim), sample_paths(g, dim, 30, seed=16)
    dw, w = batch.increments, batch.left_node_values()
    drift = np.einsum("ijab,mjb->mia", phi.values, w) * g.step
    psi = (-np.einsum("ijab,mia,mjb->m", phi.values, dw, w) * g.step
           - 0.5 * np.einsum("mia,mia->m", drift, drift) * g.step)
    npt.assert_allclose(cm_exponent(phi, batch), psi, rtol=0,
                        atol=1e-12 * max(1.0, np.max(np.abs(psi))))


@pytest.mark.parametrize("spec,dim", RAMER_KERNELS)
def test_ramer_exponent_is_q_of_eta_plus_its_diagonal(spec, dim):
    # the first line of the forward theorem path by path: with I = K dW,
    # -<I, dW> - 1/2 Delta |I|^2 = q_eta(kappa) + 1/2 sum_i <dW_i, eta_ii dW_i>
    g = make_grid(1.0, 48)
    kappa, batch = kernel_zoo(spec, g, dim), sample_paths(g, dim, 30, seed=17)
    eta, dw = eta_of_kappa(kappa), batch.increments
    want = (quadratic_form(eta, batch)
            + 0.5 * np.einsum("mia,iab,mib->m", dw, eta.diagonal_blocks(), dw))
    got = ramer_exponent(kappa, batch)
    npt.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(want))))


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
    assert str(TestFunctional.parse("cos_end:1.0")) == "cos_end:1"  # as demo writes it


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(a=_FINITE, tau=_FINITE)
def test_functional_text_reads_back_exactly(a, tau):
    # provenance writes each parameter as its shortest exact decimal
    for f in (TestFunctional("cos_end", a=a), TestFunctional("cos_mid", a=a, tau=tau)):
        assert TestFunctional.parse(str(f)) == f


def test_functional_parse_errors():
    for bad in ("nope", "cos_end:x", "cos_mid:1.0", "cos_mid:x,0.5", "cos_mid:1,2,3",
                "cos_end:nan", "cos_end:inf", "cos_end:-inf", "cos_mid:nan,0.5",
                "cos_mid:1,nan", "cos_mid:inf,0.5", "cos_mid:1,-inf",
                # a tag without parameters takes none
                "exp_negsq:5", "one:3", "one:"):
        with pytest.raises(InvalidArgumentError):
            TestFunctional.parse(bad)


def test_functional_evaluations(grid):
    batch = sample_paths(grid, 1, 50, seed=17)
    end = batch.value_at_node(grid.n_steps)[:, 0]
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
# scale_kernel and adjoint_kernel give dense kernels, as do eta and the tail
# integral of a LowerExp kernel: their matrix is the form multiplied out
DERIVED = {
    "as built": lambda k: k,
    "scaled": lambda k: scale_kernel(k, -1.7),
    "adjoint": adjoint_kernel,
    "eta": eta_of_kappa,
    "tail": kappa_from_phi,
}


def _dense(kernel):
    """The dense kernel of the form's definition, L C R^T or
    1_{s < t} diag(e^{(t - s) p}), independent of the form's `apply`."""
    form = kernel.factored
    if isinstance(form, LowRank):
        matrix = form.left @ form.core @ form.right.T
    else:
        matrix = lower_exp_closed_form(kernel.grid, form.rates)
    return MatrixKernel(kernel.grid, kernel.dim, matrix, kernel.symmetric)


def _magnitudes(kernel, dense):
    """The kernel's entries before any cancellation: |L| |C| |R|^T for a
    low-rank form, |dense| otherwise."""
    form = kernel.factored
    if isinstance(form, LowRank):
        vals = np.abs(form.left) @ np.abs(form.core) @ np.abs(form.right).T
    else:
        vals = np.abs(dense.matrix)
    return MatrixKernel(kernel.grid, kernel.dim, np.ascontiguousarray(vals), kernel.symmetric)


# every path functional of a kernel, by name; q only of a symmetric one
_FUNCTIONALS = {
    "wiener_integral": wiener_integral,
    "h": h_functionals,
    "h_x": lambda k, b: h_functionals(k, b, np.linspace(1.0, 0.5, k.dim)),
    "drift": cameron_martin_drift,
    "psi": cm_exponent,
    "ramer": ramer_exponent,
    "q": quadratic_form,
}


def _assert_functionals_match(kernel, batch, derive=lambda k: k, names=tuple(_FUNCTIONALS)):
    """Every path functional named on derive(kernel), for a factored kernel,
    equals the dense product of derive of the form's definition to 1e-12 of
    its magnitude: the larger of the dense result and the same functional of
    |kernel| on |dW|, which bounds the terms before they cancel."""
    assert kernel.factored is not None
    kernel, dense = derive(kernel), derive(_dense(kernel))
    bound = _magnitudes(kernel, dense)
    abs_batch = replace(batch, increments=np.abs(batch.increments))
    for name in names:
        if name == "q" and not kernel.symmetric:
            continue
        fn = _FUNCTIONALS[name]
        want = fn(dense, batch)
        scale = max(np.max(np.abs(want)), np.max(np.abs(fn(bound, abs_batch))))
        npt.assert_allclose(fn(kernel, batch), want, rtol=0, atol=1e-12 * scale, err_msg=name)


@pytest.mark.parametrize("derive", sorted(DERIVED))
@pytest.mark.parametrize("spec,dim", FACTORED_ZOO)
def test_factored_functionals_match_dense(spec, dim, derive):
    # N = 150 is not a multiple of anything the recursions block by
    g = make_grid(1.0, 150)
    _assert_functionals_match(kernel_zoo(spec, g, dim), sample_paths(g, dim, 40, seed=21),
                              DERIVED[derive])


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
        for derive in (lambda k: k, lambda k: scale_kernel(k, factor), adjoint_kernel,
                       eta_of_kappa):
            _assert_functionals_match(kernel, batch[dim], derive)


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
    # takes h from volterra or expdiag itself, at the factor lambda
    assert isinstance(kernel_zoo("rank1:b=0.3", grid).factored, LowRank)
    eta = eta_of_kappa(kernel_zoo("rank1:b=0.3", grid))
    assert isinstance(eta.factored, LowRank) and eta.factored.core.shape == (2, 2)
    assert isinstance(kappa_from_phi(kernel_zoo("const:c=1", grid)).factored, LowRank)
    for spec, dim in (("volterra", 1), ("expdiag:p=[0.5,-0.5]", 2)):
        assert isinstance(kernel_zoo(spec, grid, dim).factored, LowerExp)
    # kernels built by dense algebra, or by the operator layer from a dense
    # kernel, carry no form; the operator layer keeps a LowRank one
    assert eta_of_kappa(kernel_zoo("volterra", grid)).factored is None
    assert inverse_kernel(kernel_zoo("volterra", grid)).factored is None
    assert isinstance(inverse_kernel(kernel_zoo("rank1:b=0.3", grid)).factored, LowRank)


def test_values_with_a_form_are_rejected(grid):
    # a kernel is its values or its form: a form given beside values is
    # refused whether it agrees with them or not, and so is neither
    for spec, other in (("rank1:b=0.3", "rank1:b=0.3000000003"),
                        ("volterra", "expdiag:p=[1e-9]"), ("zero", "const:c=1e-9")):
        kernel = kernel_zoo(spec, grid)
        for given in (kernel.factored, kernel_zoo(other, grid).factored):
            with pytest.raises(InvalidArgumentError, match="not both"):
                MatrixKernel(grid, 1, kernel.matrix.copy(), kernel.symmetric, given)
    with pytest.raises(InvalidArgumentError, match="not both"):
        MatrixKernel(grid, 1, None)
    # a form alone that does not fit the kernel is refused as well
    form = kernel_zoo("rank1:b=0.3", grid).factored
    for wrong, reason in ((LowRank(form.left[:-1], form.core, form.right[:-1]), "do not fit"),
                          (LowerExp(np.zeros(2)), "1 rates expected")):
        with pytest.raises(InvalidArgumentError, match=reason):
            grid_kernel.kernel_from_form(grid, 1, wrong)


def test_closed_forms_catch_a_slip_of_the_form_route(grid, monkeypatch):
    # a kernel's matrix is its form's adjoint `apply` of unit rows, the
    # route every path functional runs, so a slip of 1e-9 there reaches the
    # matrix too; only the comparison with the form's definition catches it
    causal_sum, apply = grid_kernel._exp_causal_sum, LowRank.apply

    def off_sum(*args):
        causal_sum(*args)
        args[-1][...] *= 1.0 + 1e-9  # out, the last argument

    monkeypatch.setattr(grid_kernel, "_exp_causal_sum", off_sum)
    monkeypatch.setattr(LowRank, "apply", lambda *a, **kw: apply(*a, **kw) * (1.0 + 1e-9))
    batch = {d: sample_paths(grid, d, 8, seed=3) for d in (1, 2)}
    for spec, dim in (("volterra", 1), ("expdiag:p=[0.5,-0.5]", 2), ("rank1:b=0.3", 1)):
        kernel = kernel_zoo(spec, grid, dim)
        nd = grid.n_steps * dim
        rows = [kernel.apply_adjoint(np.eye(nd)[r:r + 1].reshape(1, grid.n_steps, dim))
                for r in range(nd)]
        npt.assert_array_equal(kernel.matrix, np.reshape(rows, (nd, nd)))
        for derive in DERIVED.values():  # dense derivations read the slipped matrix
            with pytest.raises(AssertionError):
                _assert_functionals_match(kernel, batch[dim], derive)


# LowRank kernels, one of them with an antisymmetric core
SLIP_KERNELS = [("rank1:b=0.3", 1), ("rank2:b=0.2,c=0.3,member=2", 1), ("const_phi:c=-0.4", 2)]


@pytest.mark.parametrize("spec,dim", SLIP_KERNELS)
def test_closed_forms_catch_a_slip_of_the_projection_route(spec, dim, monkeypatch):
    # q, h and psi of a LowRank kernel read its r projections through one
    # bilinear form; a slip of 1e-9 there must fail each of them on its own
    g = make_grid(1.0, 64)
    kernel, batch = kernel_zoo(spec, g, dim), sample_paths(g, dim, 8, seed=3)
    bilinear = stochastic._bilinear
    monkeypatch.setattr(stochastic, "_bilinear", lambda *a: bilinear(*a) * (1.0 + 1e-9))
    slipped = set()
    for derive in ("as built", "eta", "tail"):
        derived = DERIVED[derive](kernel)
        assert isinstance(derived.factored, LowRank)
        for name in ("q", "h", "h_x", "psi", "ramer"):
            if name == "q" and not derived.symmetric:
                continue
            with pytest.raises(AssertionError):
                _assert_functionals_match(kernel, batch, DERIVED[derive], [name])
            slipped.add(name)
        # the routes that do not read the projections keep their precision
        _assert_functionals_match(kernel, batch, DERIVED[derive], ["wiener_integral", "drift"])
    assert slipped == {"q", "h", "h_x", "psi", "ramer"}


def test_low_rank_reductions_read_no_apply(grid, monkeypatch):
    # q, h and psi of a LowRank kernel never form the (M, N d) product
    kernels = [(kernel_zoo(spec, grid, dim), dim) for spec, dim in SLIP_KERNELS]
    kernels += [(eta_of_kappa(kappa), dim) for kappa, dim in kernels]

    def raises(*args, **kwargs):
        raise AssertionError("LowRank.apply called")
    monkeypatch.setattr(LowRank, "apply", raises)
    for kernel, dim in kernels:
        batch = sample_paths(grid, dim, 10, seed=8)
        assert isinstance(kernel.factored, LowRank)
        h_functionals(kernel, batch)
        h_functionals(kernel, batch, np.ones(dim))
        cm_exponent(kernel, batch)
        ramer_exponent(kernel, batch)
        if kernel.symmetric:
            quadratic_form(kernel, batch)
    with pytest.raises(AssertionError, match="LowRank.apply"):
        wiener_integral(kernels[0][0], sample_paths(grid, 1, 10, seed=8))


@pytest.mark.parametrize("dim", [1, 2])
def test_ramer_exponent_forms_one_wiener_integral(grid, monkeypatch, dim):
    # -<I, dW> and 1/2 Delta |I|^2 both read one product I = K dW, and the
    # value is the sum of the two functionals that form it on their own
    kappa = kappa_from_phi(kernel_zoo("volterra", grid, dim))
    batch = sample_paths(grid, dim, 10, seed=4)
    dw = batch.increments
    want = -np.einsum("mia,mia->m", kappa.apply(dw), dw) - h_functionals(kappa, batch)
    calls, apply = [], MatrixKernel.apply

    def counted(self, x):
        calls.append(x.shape)
        return apply(self, x)
    monkeypatch.setattr(MatrixKernel, "apply", counted)
    got = ramer_exponent(kappa, batch)
    assert calls == [dw.shape]
    assert np.array_equal(got, want)


def test_expdiag_large_negative_rate_is_finite():
    # e^{-p t} alone would overflow at p t = 2000; the blocked recursion does not
    g = make_grid(1.0, 64)
    kernel = kernel_zoo("expdiag:p=[-2000,-300]", g)
    batch = sample_paths(g, 2, 20, seed=9)
    for derive in (lambda k: k, adjoint_kernel, lambda k: scale_kernel(k, 3.0)):
        assert np.all(np.isfinite(wiener_integral(derive(kernel), batch)))
        _assert_functionals_match(kernel, batch, derive)


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
def test_node_value_matches_transformed_batch(name, text):
    kernel, f = NODE_KERNELS[name], TestFunctional.parse(text)
    batch = sample_paths(NODE_GRID, kernel.dim, 30, seed=31)
    _assert_node_read_matches(f, apply_transformation(kernel, batch),
                              lambda k: node_value(batch, node_weights(kernel, k)), batch)


@pytest.mark.parametrize("text", NODE_FUNCTIONALS)
@pytest.mark.parametrize("spec,dim", [("const:c=1", 1), ("const:c=1", 2), ("volterra", 2),
                                      ("const_phi:c=-0.4", 2), ("expdiag:p=[0.5,-0.5]", 2)])
def test_linear_node_value_matches_linear_transformation(spec, dim, text):
    phi, f = kernel_zoo(spec, NODE_GRID, dim), TestFunctional.parse(text)
    batch = sample_paths(NODE_GRID, dim, 30, seed=32)
    # the linear image of phi is the image of its tail kernel
    _assert_node_read_matches(f, apply_linear_transformation(phi, batch),
                              lambda k: node_value(batch, node_weights(kappa_from_phi(phi), k)),
                              batch)


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
    with pytest.raises(InvalidArgumentError, match="node index 41 outside"):
        node_weights(kernel_zoo("volterra", g), 41)
