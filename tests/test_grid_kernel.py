"""Kernel algebra on the grid: constructors, norms, adjoints, compositions,
eta/s/c kernels, tail integrals, and the constructor zoo."""

import copy

import numpy as np
import numpy.testing as npt
import pytest

from orderone import (
    InvalidArgumentError,
    grid_kernel,
    inverse_kernel,
    kappa_s,
    kernel_from_matrix,
    kernel_from_values,
    kernel_l2_norm,
    kernel_zoo,
    make_grid,
    orthonormal_columns,
    remark_pair,
)
from orderone.grid_kernel import (
    MatrixKernel,
    adjoint_kernel,
    c_kernels,
    compose_kernels,
    eta_of_kappa,
    kappa_from_phi,
    s_of_kappa,
    scale_kernel,
)


@pytest.fixture
def grid():
    return make_grid(1.0, 64)


def random_kernel(grid, dim=1, seed=0, symmetric=False):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(grid.n_steps, grid.n_steps, dim, dim))
    if symmetric:
        vals = 0.5 * (vals + np.transpose(vals, (1, 0, 3, 2)))
    return MatrixKernel(grid, dim, vals, symmetric)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_make_grid_nodes():
    g = make_grid(1.0, 4)
    npt.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75])
    assert g.step == 0.25


def test_make_grid_two_steps():
    g = make_grid(2.0, 2)
    npt.assert_allclose(g.nodes, [0.0, 1.0])
    assert g.step == 1.0


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        make_grid(1.0, 1)
    with pytest.raises(InvalidArgumentError):
        make_grid(0.0, 8)
    with pytest.raises(InvalidArgumentError):
        make_grid(-2.0, 8)


def test_grid_step_times_steps_is_horizon():
    g = make_grid(0.7, 13)
    assert abs(g.step * g.n_steps - 0.7) <= np.finfo(float).eps * 0.7
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] == 0.0
    npt.assert_allclose(g.nodes[-1], 0.7 - g.step)


# ---------------------------------------------------------------------------
# L2 norm
# ---------------------------------------------------------------------------

def test_l2_norm_zero(grid):
    assert kernel_l2_norm(kernel_zoo("zero", grid)) == 0.0


def test_l2_norm_brute_force_quadrature():
    # independent oracle: plain double loop over the sampled values
    g = make_grid(1.0, 16)
    k = random_kernel(g, dim=2, seed=3)
    acc = 0.0
    for i in range(g.n_steps):
        for j in range(g.n_steps):
            acc += np.sum(k.values[i, j] ** 2) * g.step**2
    npt.assert_allclose(kernel_l2_norm(k), np.sqrt(acc), rtol=1e-13)


@pytest.mark.parametrize("rates", [[0.0], [0.5, -0.5], [3.0], [-50.0], [-2000.0], [20.0]])
@pytest.mark.parametrize("n", [2, 3, 64, 512])
def test_l2_norm_of_lower_exp_is_its_closed_form(rates, n):
    # read from the rates, against the Frobenius norm of the matrix multiplied out
    g = make_grid(1.0, n)
    kappa = kernel_zoo(f"expdiag:p=[{','.join(map(str, rates))}]", g)
    dense = MatrixKernel(g, len(rates), lower_exp_closed_form(g, rates))
    npt.assert_allclose(kernel_l2_norm(kappa), kernel_l2_norm(dense), rtol=1e-13)


def test_l2_norm_rank_one():
    # continuum oracle: ||b e x e||_2 = |b| (int e'^2 dt)^... = |b| for unit e
    g = make_grid(1.0, 256)
    k = kernel_zoo("rank1:b=0.3", g)
    npt.assert_allclose(kernel_l2_norm(k), 0.3, atol=10.0 / g.n_steps)


def test_l2_norm_remark_pair_distance():
    # ||k1 - k2||^2 = 2 (b^2 + c^2) = 8 - 4 sqrt(2) for b = sqrt(2)-1, c = 1
    g = make_grid(1.0, 256)
    b = np.sqrt(2.0) - 1.0
    k1, k2 = remark_pair(g, b, 1.0)
    diff = MatrixKernel(g, 1, k1.values - k2.values)
    npt.assert_allclose(kernel_l2_norm(diff) ** 2, 8.0 - 4.0 * np.sqrt(2.0), atol=1e-3)


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------

def test_adjoint_fixes_symmetric_kernels(grid):
    eta = random_kernel(grid, dim=2, seed=1, symmetric=True)
    npt.assert_array_equal(adjoint_kernel(eta).values, eta.values)


def test_adjoint_volterra_is_strict_upper(grid):
    k = kernel_zoo("volterra", grid)
    adj = adjoint_kernel(k)
    flat = adj.values[:, :, 0, 0]
    assert np.all(flat[np.tril_indices(grid.n_steps)] == 0)
    assert np.all(flat[np.triu_indices(grid.n_steps, k=1)] == 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_adjoint_is_involution(grid, seed):
    k = random_kernel(grid, dim=2, seed=seed)
    npt.assert_array_equal(adjoint_kernel(adjoint_kernel(k)).values, k.values)


@pytest.mark.parametrize("seed", [5, 6])
def test_adjoint_is_isometry(grid, seed):
    k = random_kernel(grid, dim=2, seed=seed)
    npt.assert_allclose(kernel_l2_norm(adjoint_kernel(k)), kernel_l2_norm(k), rtol=1e-13)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_with_zero(grid):
    z = kernel_zoo("zero", grid)
    k = random_kernel(grid, seed=2)
    assert np.all(compose_kernels(z, k).values == 0)


def test_compose_rank_one_projector():
    # e x e composed with itself is e x e because int e'^2 = 1
    g = make_grid(1.0, 128)
    k = kernel_zoo("rank1:b=1.0", g)
    npt.assert_allclose(compose_kernels(k, k).values, k.values, atol=1e-12)


def test_compose_brute_force_small():
    g = make_grid(2.0, 8)
    a = random_kernel(g, dim=2, seed=7)
    b = random_kernel(g, dim=2, seed=8)
    out = compose_kernels(a, b)
    for i in range(g.n_steps):
        for j in range(g.n_steps):
            expect = sum(a.values[i, u] @ b.values[u, j] for u in range(g.n_steps)) * g.step
            npt.assert_allclose(out.values[i, j], expect, atol=1e-12)


def test_compose_grid_mismatch():
    a = random_kernel(make_grid(1.0, 16), seed=0)
    b = random_kernel(make_grid(1.0, 32), seed=0)
    with pytest.raises(InvalidArgumentError):
        compose_kernels(a, b)


def test_trace_of_adjoint_composition_is_norm_squared(grid):
    # tr(kappa* o kappa) = ||kappa||_2^2, via the diagonal quadrature
    k = random_kernel(grid, dim=2, seed=9)
    comp = compose_kernels(adjoint_kernel(k), k)
    tr = sum(np.trace(comp.values[i, i]) for i in range(grid.n_steps)) * grid.step
    npt.assert_allclose(tr, kernel_l2_norm(k) ** 2, rtol=1e-10)


# ---------------------------------------------------------------------------
# eta / s / c kernels
# ---------------------------------------------------------------------------

def test_eta_of_zero(grid):
    assert np.all(eta_of_kappa(kernel_zoo("zero", grid)).values == 0)


def test_eta_rank_one_closed_form():
    # eta(b e x e) = -(2b + b^2) e x e
    g = make_grid(1.0, 128)
    b = 0.3
    k = kernel_zoo(f"rank1:b={b}", g)
    expected = -(2 * b + b * b) / b * k.values
    npt.assert_allclose(eta_of_kappa(k).values, expected, atol=1e-12)


def test_eta_coincides_on_remark_pair():
    # 1 + c^2 = (1 + b)^2 forces eta(k1) = eta(k2)
    g = make_grid(1.0, 128)
    b = np.sqrt(2.0) - 1.0
    k1, k2 = remark_pair(g, b, 1.0)
    e1, e2 = eta_of_kappa(k1), eta_of_kappa(k2)
    diff = kernel_l2_norm(MatrixKernel(g, 1, e1.values - e2.values))
    assert diff <= 1e-10 * max(kernel_l2_norm(e1), 1.0)


@pytest.mark.parametrize("seed", [0, 3])
def test_eta_is_symmetric_and_decomposes(grid, seed):
    k = random_kernel(grid, dim=2, seed=seed)
    eta = eta_of_kappa(k)
    assert eta.symmetric
    # eta = s - c entrywise
    recon = s_of_kappa(k).values - c_kernels(k).values
    npt.assert_allclose(eta.values, recon, atol=1e-12)


def test_s_of_gencv_kernel():
    g = make_grid(1.0, 128)
    k = kernel_zoo("remark_gencv:b1=-2,b2=-3", g)
    basis = orthonormal_columns(g, 2)
    expected = (
        4.0 * np.outer(basis[:, 0], basis[:, 0]) + 6.0 * np.outer(basis[:, 1], basis[:, 1])
    )[:, :, None, None]
    npt.assert_allclose(s_of_kappa(k).values, expected, atol=1e-10)


def test_s_of_symmetric_kernel_is_minus_two(grid):
    k = random_kernel(grid, seed=11, symmetric=True)
    npt.assert_allclose(s_of_kappa(k).values, -2.0 * k.values, atol=1e-13)


@pytest.mark.parametrize("x", [None, "ones", "tilted"])
@pytest.mark.parametrize("spec, dim", [("rank1:b=0.3", 1), ("rank2:b=0.2,c=0.3,member=2", 1),
                                       ("const_phi:c=-0.4", 1), ("const_phi:c=-0.4", 2),
                                       ("const:c=1", 2)])
def test_c_kernel_of_a_low_rank_form_matches_the_dense_one(grid, spec, dim, x):
    # R (C^T (L^T L) C Delta) R^T, L_x in place of L, against the dense product
    kappa = kernel_zoo(spec, grid, dim)
    x = {None: None, "ones": np.ones(dim), "tilted": np.linspace(1.0, -0.5, dim)}[x]
    got = c_kernels(kappa, x)
    want = c_kernels(MatrixKernel(grid, dim, kappa.matrix), x)
    form = got.factored
    assert got.symmetric and form.left is form.right
    assert form.core.shape[0] == kappa.factored.core.shape[0]
    scale = max(1.0, float(np.max(np.abs(want.matrix))))
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-13 * scale


def test_c_kernel_zero_direction(grid):
    k = random_kernel(grid, dim=2, seed=4)
    assert np.all(c_kernels(k, np.zeros(2)).values == 0)


def test_c_kernel_scalar_collapse(grid):
    k = random_kernel(grid, dim=1, seed=5)
    npt.assert_allclose(c_kernels(k, np.array([1.0])).values, c_kernels(k).values, atol=1e-12)


def test_c_kernel_basis_sum():
    # sum_i c(kappa; e_i) = c(kappa) over an orthonormal basis of R^d
    g = make_grid(1.0, 32)
    k = kernel_zoo("expdiag:p=[0.5,-0.5]", g)
    total = c_kernels(k, np.array([1.0, 0.0])).values + c_kernels(k, np.array([0.0, 1.0])).values
    npt.assert_allclose(total, c_kernels(k).values, atol=1e-12)


def test_c_kernel_dimension_mismatch(grid):
    k = random_kernel(grid, dim=2, seed=6)
    with pytest.raises(InvalidArgumentError):
        c_kernels(k, np.array([1.0]))


# ---------------------------------------------------------------------------
# tail integral of a drift kernel
# ---------------------------------------------------------------------------

def test_kappa_from_phi_zero(grid):
    assert np.all(kappa_from_phi(kernel_zoo("zero", grid)).values == 0)


def test_kappa_from_phi_constant_exact():
    g = make_grid(1.0, 64)
    c = 1.7
    phi = kernel_from_values(g, np.full((64, 64), c))
    out = kappa_from_phi(phi)
    # the sum over the nodes u > s: c (T - t_{j+1})
    expected = np.broadcast_to(c * (1.0 - g.nodes - g.step)[None, :], (64, 64))
    npt.assert_allclose(out.values[:, :, 0, 0], expected, atol=1e-13)


def test_kappa_from_phi_linear_integrand():
    # phi(t, s) = s integrates to (T^2 - s^2)/2, checked at nodes to O(step)
    g = make_grid(1.0, 512)
    phi = kernel_from_values(g, np.broadcast_to(g.nodes[None, :], (512, 512)).copy())
    out = kappa_from_phi(phi)
    expected = 0.5 * (1.0 - g.nodes**2)
    npt.assert_allclose(out.values[0, :, 0, 0], expected, atol=2.0 * g.step)


def test_const_phi_zoo_matches_manual(grid):
    direct = kernel_zoo("const_phi:c=2.0", grid)
    phi = kernel_from_values(grid, np.full((64, 64), 2.0))
    npt.assert_allclose(direct.values, kappa_from_phi(phi).values, atol=1e-14)


class _Unread:
    """Stands in for the dense matrix of a kernel that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"the dense matrix was read (.{name})")

    def __array__(self, *args, **kwargs):
        raise AssertionError("the dense matrix was read")


@pytest.mark.parametrize("spec, dim", [
    ("rank1:b=0.3", 1), ("rank1:b=-2,n=2", 1), ("rank2:b=0.2,c=0.3", 1),
    ("rank2:b=0.2,c=0.3,member=2", 1), ("remark_gencv:b1=-2,b2=-3", 1),
    ("const:c=0.5", 1), ("const:c=0.5", 2), ("const_phi:c=0.5", 1), ("const_phi:c=0.5", 2),
])
@pytest.mark.parametrize("algebra", [eta_of_kappa, s_of_kappa, kappa_from_phi])
def test_low_rank_algebra_reads_the_factors_alone(grid, spec, dim, algebra):
    # a LowRank kernel's eta, s and tail integral are built from its factors
    # (kernel_from_form); its matrix and values are never read
    kernel = kernel_zoo(spec, grid, dim)
    blind = copy.copy(kernel)
    for name in ("matrix", "values"):
        object.__setattr__(blind, name, _Unread())
    out = algebra(blind)
    assert isinstance(out.factored, grid_kernel.LowRank)
    npt.assert_array_equal(out.matrix, algebra(kernel).matrix)


# ---------------------------------------------------------------------------
# zoo and orthonormal family
# ---------------------------------------------------------------------------

def test_zoo_volterra_tabulation():
    g = make_grid(1.0, 8)
    k = kernel_zoo("volterra", g)
    expect = np.tril(np.ones((8, 8)), k=-1)
    npt.assert_array_equal(k.values[:, :, 0, 0], expect)


def test_zoo_expdiag_tabulation():
    g = make_grid(1.0, 16)
    k = kernel_zoo("expdiag:p=[0.5,-0.5]", g)
    assert k.dim == 2
    t = g.nodes
    for i in range(16):
        for j in range(16):
            if j < i:
                npt.assert_allclose(
                    k.values[i, j],
                    np.diag([np.exp((t[i] - t[j]) * 0.5), np.exp(-(t[i] - t[j]) * 0.5)]),
                )
            else:
                assert np.all(k.values[i, j] == 0)


def test_expdiag_multiply_out_reads_contiguous_slabs(monkeypatch):
    # the multiply-out runs the recursion backwards in time on a reversed
    # copy, never on a negative-stride view
    contiguous, recursion = [], grid_kernel._exp_causal_sum

    def spy(x, *args):
        contiguous.append(x.flags.c_contiguous)
        return recursion(x, *args)
    monkeypatch.setattr(grid_kernel, "_exp_causal_sum", spy)
    kernel_zoo("expdiag:p=[0.5,-0.5]", make_grid(1.0, 512), 2).matrix
    assert contiguous and all(contiguous)


def test_zoo_rank2_member2_is_antisymmetric(grid):
    k2 = kernel_zoo("rank2:b=0.41421356,c=1,member=2", grid)
    npt.assert_allclose(k2.values[:, :, 0, 0], -k2.values[:, :, 0, 0].T, atol=1e-15)


def test_zoo_rejects_unknown_and_malformed(grid):
    # each message names the offending kernel name or parameter
    for bad, dim, named in [
        ("nope", 1, "'nope'"), ("rank1", 1, "'b'"), ("rank1:q=3", 1, "'q'"),
        ("rank1:b=x", 1, "'b'"), ("expdiag:p=3", 1, "'p'"),
        ("rank2:b=1,c=1,member=7", 1, "'member'"), ("rank1:b=0.3", 2, "rank1"),
        ("expdiag:p=[]", 1, "'p'"), ("remark_gencv:b1=1", 1, "'b2'"),
    ]:
        with pytest.raises(InvalidArgumentError) as exc:
            kernel_zoo(bad, grid, dim)
        assert named in str(exc.value), bad


# a spec of each zoo row; expdiag takes its dimension from its rates
ZOO_EXAMPLES = {
    "zero": "zero", "volterra": "volterra", "rank1": "rank1:b=0.3,n=2",
    "rank2": "rank2:b=0.2,c=0.3,member=2", "remark_gencv": "remark_gencv:b1=-2,b2=-3",
    "expdiag": "expdiag:p=[{rates}]", "const": "const:c=1", "const_phi": "const_phi:c=0.5",
}


@pytest.mark.parametrize("name", sorted(grid_kernel._ZOO))
def test_every_zoo_row_builds(grid, name):
    # at d = 1, and at d = 2 unless the row is scalar, which rejects it
    scalar = grid_kernel._ZOO[name].dim is grid_kernel._SCALAR
    for dim in (1,) if scalar else (1, 2):
        k = kernel_zoo(ZOO_EXAMPLES[name].format(rates=",".join(["0.5"] * dim)), grid, dim)
        assert k.dim == dim and k.grid == grid
    if scalar:
        with pytest.raises(InvalidArgumentError, match="has d = 1, but dim=2 was given"):
            kernel_zoo(ZOO_EXAMPLES[name], grid, 2)


def test_zoo_dim_is_the_one_the_spec_fixes(grid):
    # dim None is the d of the spec; a dim it does not fix is rejected, either way
    assert kernel_zoo("expdiag:p=[0.5]", grid).dim == 1
    assert kernel_zoo("expdiag:p=[0.5,-0.5]", grid).dim == 2
    assert kernel_zoo("volterra", grid).dim == 1 and kernel_zoo("volterra", grid, 3).dim == 3
    for spec, dim, fixed in (("expdiag:p=[0.5]", 2, 1), ("expdiag:p=[0.5,-0.5]", 1, 2),
                             ("rank1:b=0.3", 2, 1)):
        with pytest.raises(InvalidArgumentError, match=f"d = {fixed}, but dim={dim}"):
            kernel_zoo(spec, grid, dim)


def lower_exp_closed_form(grid, rates):
    """The matrix of kappa(t, s) = 1_{s < t} diag(e^{(t - s) p}) from its
    definition, at the lags (i - j) Delta; all rates zero give volterra's
    indicator exactly."""
    n, d = grid.n_steps, len(rates)
    lag = np.subtract.outer(np.arange(n), np.arange(n)) * grid.step
    blocks = np.exp(np.maximum(lag, 0.0)[:, :, None] * np.asarray(rates, dtype=float))
    blocks[lag <= 0] = 0.0
    return np.einsum("ija,ab->iajb", blocks, np.eye(d)).reshape(n * d, n * d)


def _zoo_closed_form(name, grid, dim):
    """The matrix of a zero, volterra or expdiag:p=[0.5,-0.5] kernel from its
    definition, or None."""
    if name == "zero":
        return np.zeros((grid.n_steps * dim, grid.n_steps * dim))
    if name in ("volterra", "expdiag"):
        return lower_exp_closed_form(grid, np.zeros(dim) if name == "volterra" else [0.5, -0.5])
    return None


@pytest.mark.parametrize("name", sorted(grid_kernel._ZOO))
def test_zoo_kernels_build_no_matrix_until_a_dense_read(name, monkeypatch):
    # at N d = 2048 (d = 2 where the row allows it), a zoo kernel is its
    # form: building it runs no product of the form and stays below one
    # (N d)^2 array, and the first dense read multiplies the form out once
    import tracemalloc

    nd = 2048
    dim = 1 if grid_kernel._ZOO[name].dim is grid_kernel._SCALAR else 2
    g = make_grid(1.0, nd // dim)
    products = []
    for owner, attr in ((grid_kernel.LowRank, "apply"), (grid_kernel.LowerExp, "apply"),
                        (grid_kernel, "_exp_causal_sum")):
        monkeypatch.setattr(owner, attr, lambda *a, attr=attr, real=getattr(owner, attr), **kw:
                            products.append(attr) or real(*a, **kw))
    tracemalloc.start()
    try:
        k = kernel_zoo(ZOO_EXAMPLES[name].format(rates="0.5,-0.5"), g, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert products == [] and peak < nd * nd * 8, (products, peak)
    closed = _zoo_closed_form(name, g, dim)
    assert "matrix" not in k.__dict__ and "values" not in k.__dict__
    built, multiply_out = [], grid_kernel._multiply_out
    monkeypatch.setattr(grid_kernel, "_multiply_out",
                        lambda form, *args: built.append(form) or multiply_out(form, *args))
    m = k.matrix
    assert k.matrix is m and np.shares_memory(k.values, m) and built == [k.factored]
    if name == "expdiag":
        npt.assert_allclose(m, closed, rtol=1e-15, atol=0)
    elif closed is not None:
        assert np.array_equal(m, closed)


def test_kernel_from_values_leaves_the_callers_array_alone():
    a = np.eye(4)
    kernel = kernel_from_values(make_grid(1.0, 4), a)
    assert a.flags.writeable
    a[0, 0] = 5.0
    assert kernel.matrix[0, 0] == 1.0


def test_kernel_from_form_leaves_the_callers_arrays_alone():
    # the kernel keeps a copy of the form, one array for both sides when the
    # caller gave one, so a form L C L^T stays symmetric by construction
    g = make_grid(1.0, 8)
    basis, core, rates = orthonormal_columns(g, 2), np.array([[1.0, 0.5], [0.5, 2.0]]), np.ones(1)
    want = basis @ core @ basis.T
    low = grid_kernel.kernel_from_form(g, 1, grid_kernel.LowRank(basis, core, basis), True)
    exp = grid_kernel.kernel_from_form(g, 1, grid_kernel.LowerExp(rates))
    assert low.factored.left is low.factored.right
    for a in (basis, core, rates):
        assert a.flags.writeable
        a[...] = 7.0
    npt.assert_allclose(low.matrix, want, rtol=1e-15, atol=1e-15)
    npt.assert_allclose(exp.matrix, lower_exp_closed_form(g, [1.0]), rtol=1e-15, atol=0)


def test_orthonormal_family_within_quadrature_tolerance():
    g = make_grid(1.0, 256)
    basis = orthonormal_columns(g, 6)
    gram = basis.T @ basis * g.step
    npt.assert_allclose(gram, np.eye(6), atol=10.0 / g.n_steps)


def test_orthonormal_family_tracks_continuum():
    # the weighted QR correction is O(step): columns stay close to the raw cosines
    g = make_grid(1.0, 512)
    basis = orthonormal_columns(g, 4)
    n = np.arange(1, 5)
    raw = np.sqrt(2.0) * np.cos((n[None, :] - 0.5) * np.pi * g.nodes[:, None])
    assert np.max(np.abs(basis - raw)) <= 20.0 / g.n_steps


def test_kernel_values_are_immutable(grid):
    k = kernel_zoo("volterra", grid)
    with pytest.raises(ValueError):
        k.values[0, 0, 0, 0] = 5.0


def test_symmetry_flag_validated(grid):
    vals = np.zeros((64, 64, 1, 1))
    vals[1, 0, 0, 0] = 1.0
    with pytest.raises(InvalidArgumentError):
        MatrixKernel(grid, 1, vals, symmetric=True)


def test_dense_products_agree_under_concurrent_threads():
    # the chunks of a Monte Carlo side apply one dense kernel from several
    # threads at once; each product must equal the blockwise reference
    import sys
    import threading

    g = make_grid(1.0, 48)
    kernel = MatrixKernel(g, 2, np.random.default_rng(2).normal(size=(48, 48, 2, 2)))
    x = np.random.default_rng(3).normal(size=(5, 48, 2))
    want = np.einsum("ijab,mjb->mia", kernel.values, x)
    want_adjoint = np.einsum("ijab,mia->mjb", kernel.values, x)
    n_threads = 8
    start = threading.Barrier(n_threads)
    results = [None] * n_threads

    def work(slot):
        start.wait(timeout=10)
        results[slot] = (kernel.apply(x), kernel.apply_adjoint(x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for fwd, adj in results:
        npt.assert_allclose(fwd, want, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(adj, want_adjoint, rtol=1e-12, atol=1e-12)
        npt.assert_array_equal(adj, results[0][1])


def _algebra_kernels(grid, dim):
    """The zoo and every dense kernel the algebra returns at this dim, by name."""
    k = random_kernel(grid, dim, seed=4)
    small = scale_kernel(k, 0.05)
    specs = ["zero", "volterra", "const:c=0.5", "const_phi:c=0.5",
             f"expdiag:p=[{','.join(['0.5', '-0.5'][:dim])}]"]
    if dim == 1:
        specs += ["rank1:b=0.3", "rank2:b=0.2,c=0.3,member=2", "remark_gencv:b1=-2,b2=-3"]
    out = {spec: kernel_zoo(spec, grid, dim) for spec in specs}
    out.update({
        "scaled": small,
        "adjoint": adjoint_kernel(k),
        "composed": compose_kernels(k, small),
        "eta": eta_of_kappa(small),
        "s": s_of_kappa(k),
        "c": c_kernels(k),
        "c_x": c_kernels(k, np.arange(1.0, dim + 1.0)),
        "tail": kappa_from_phi(k),
        "from_matrix": kernel_from_matrix(np.eye(grid.n_steps * dim), grid, dim),
        "inverse": inverse_kernel(small),
        "sqrt": kappa_s(scale_kernel(c_kernels(small), -1.0)),
    })
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_each_kernel_stores_one_matrix(grid, dim):
    # values is a view of the stored (N d, N d) matrix, and the path-layer
    # products allocate no second array of that size
    import tracemalloc

    nd = grid.n_steps * dim
    x = np.random.default_rng(5).normal(size=(3, grid.n_steps, dim))
    for name, k in _algebra_kernels(grid, dim).items():
        assert k.matrix.shape == (nd, nd) and k.matrix.flags.c_contiguous, name
        assert np.shares_memory(k.values, k.matrix), name
        tracemalloc.start()
        try:
            k.apply(x)
            k.apply_adjoint(x)
            k.diagonal_blocks()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nd * nd * 8, (name, peak)
