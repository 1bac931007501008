"""Kernel algebra on the grid: constructors, norms, adjoints, compositions,
eta/s/c kernels, tail integrals, and the constructor zoo."""

import numpy as np
import numpy.testing as npt
import pytest

from orderone import (
    InvalidArgumentError,
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
    expected = np.broadcast_to(c * (1.0 - g.nodes)[None, :], (64, 64))
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


def test_zoo_remark12_alias(grid):
    a = kernel_zoo("rank2:b=0.41421356,c=1", grid)
    b = kernel_zoo("remark12:b=0.41421356,c=1", grid)
    npt.assert_array_equal(a.values, b.values)
    k2 = kernel_zoo("rank2:b=0.41421356,c=1,member=2", grid)
    npt.assert_allclose(k2.values[:, :, 0, 0], -k2.values[:, :, 0, 0].T, atol=1e-15)


def test_zoo_rejects_unknown_and_malformed(grid):
    for bad in ["nope", "rank1", "rank1:q=3", "rank1:b=x", "expdiag:p=3", "rank2:b=1,c=1,member=7"]:
        with pytest.raises(InvalidArgumentError):
            kernel_zoo(bad, grid)


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


def test_dense_flat_matrix_is_built_once_under_concurrent_products(monkeypatch):
    # the chunks of a Monte Carlo side apply one dense kernel from several
    # threads; its lazy flat copy (d > 1) must be built once and shared
    import sys
    import threading
    import time

    from orderone import grid_kernel

    builds = []

    def counting_flat(values):
        builds.append(1)
        time.sleep(0.01)  # hand the interpreter to the other threads mid-build
        return flat(values)

    flat = grid_kernel.flat
    monkeypatch.setattr(grid_kernel, "flat", counting_flat)
    g = make_grid(1.0, 48)
    kernel = MatrixKernel(g, 2, np.random.default_rng(2).normal(size=(48, 48, 2, 2)))
    x = np.random.default_rng(3).normal(size=(5, 48, 2))
    want = np.einsum("ijab,mjb->mia", kernel.values, x)
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
    assert len(builds) == 1
    for fwd, adj in results:
        npt.assert_allclose(fwd, want, rtol=1e-12, atol=1e-12)
        npt.assert_array_equal(adj, results[0][1])
