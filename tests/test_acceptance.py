"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line per criterion.

Monte Carlo cases run at the stated desk scale with pinned seeds, so every
number asserted here is reproducible bit for bit.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt

import orderone as oo
import orderone.stochastic as st
from orderone import (
    MatrixKernel,
    assemble,
    det2,
    eta_of_kappa,
    inverse_kernel,
    kappa_s,
    kernel_from_values,
    kernel_l2_norm,
    kernel_zoo,
    lambda_max,
    make_grid,
    remark_pair,
)
from orderone.operator import det2_product, spectrum
from orderone.scenarios import _STREAM_LHS, _stream_chunks


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:>2}] {text}: FAIL")
        raise
    print(f"[criterion {num:>2}] {text}: PASS")


def random_symmetric(grid, dim, seed, lam):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(grid.n_steps, grid.n_steps, dim, dim))
    vals = 0.5 * (vals + np.transpose(vals, (1, 0, 3, 2)))
    k = MatrixKernel(grid, dim, vals, symmetric=True)
    top = lambda_max(k)
    return MatrixKernel(grid, dim, vals * (lam / top), symmetric=True)


def test_criterion_1_operator_round_trips():
    with criterion(1, "operator round-trips exact on 20 random spectra"):
        t0 = time.perf_counter()
        cases = [(make_grid(1.0, 256), 1, s) for s in range(14)]
        cases += [(make_grid(1.0, 128), 2, 100 + s) for s in range(6)]
        assert len(cases) == 20
        for grid, dim, seed in cases:
            assert grid.n_steps * dim <= 512
            eta = random_symmetric(grid, dim, seed, lam=0.9)
            kap = kappa_s(eta)
            back = eta_of_kappa(kap)
            err = kernel_l2_norm(MatrixKernel(grid, dim, back.values - eta.values))
            assert err <= 1e-8 * kernel_l2_norm(eta)
            # inverse round trip on the square-root kernel (I + B strictly PSD)
            k_hat = inverse_kernel(kap)
            m, m_hat = assemble(kap), assemble(k_hat)
            eye = np.eye(m.shape[0])
            assert np.max(np.abs((eye + m) @ (eye + m_hat) - eye)) <= 1e-10
            assert np.max(np.abs((eye + m_hat) @ (eye + m) - eye)) <= 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_det2_closed_forms():
    with criterion(2, "det2 closed forms and product identity"):
        g = make_grid(1.0, 256)
        d = det2(kernel_zoo("remark_gencv:b1=-2,b2=-3", g))
        npt.assert_allclose(d.sign * np.exp(d.log_modulus), 2.0 * np.exp(5.0), rtol=1e-6)
        for b in (0.3, -0.5, -2.0):
            d = det2(kernel_zoo(f"rank1:b={b}", g))
            expected = (1.0 + b) * np.exp(-b)
            assert d.sign == np.sign(expected)
            npt.assert_allclose(d.sign * np.exp(d.log_modulus), expected, rtol=1e-10)
        rng = np.random.default_rng(2024)
        g8 = make_grid(1.0, 8)
        for _ in range(5):
            k = kernel_from_values(g8, rng.normal(size=(8, 8)))
            lhs_log, rhs_log = det2_product(spectrum(eta_of_kappa(k)), det2(k), kernel_l2_norm(k))
            assert abs(np.expm1(lhs_log - rhs_log)) <= 1e-10


def test_criterion_3_noninjectivity_witness():
    with criterion(3, "non-injectivity pair: equal eta, distant kappa"):
        g = make_grid(1.0, 256)
        b = np.sqrt(2.0) - 1.0
        k1, k2 = remark_pair(g, b, 1.0)
        e1, e2 = eta_of_kappa(k1), eta_of_kappa(k2)
        eta_gap = kernel_l2_norm(MatrixKernel(g, 1, e1.values - e2.values))
        assert eta_gap <= 1e-8
        kap_gap = kernel_l2_norm(MatrixKernel(g, 1, k1.values - k2.values))
        npt.assert_allclose(kap_gap**2, 8.0 - 4.0 * np.sqrt(2.0), atol=1e-3)


def test_criterion_4_harmonic_oscillator():
    with criterion(4, "harmonic oscillator dets within 1% and MC within 3 sigma"):
        t0 = time.perf_counter()
        g = make_grid(1.0, 1024)
        vol = kernel_zoo("volterra", g)
        m = assemble(vol)
        mtm = m.T @ m
        eye = np.eye(g.n_steps)
        for lam in (0.5, 1.0, 2.0):
            _, logdet = np.linalg.slogdet(eye + lam * mtm)
            det_side = np.exp(-0.5 * logdet)
            oracle = np.cosh(np.sqrt(lam)) ** -0.5
            assert abs(det_side - oracle) <= 0.01 * oracle

        # one sweep of the left-hand stream: h once, three exponential weights, M = 1e5
        m_paths = 100_000
        sums = {lam: 0.0 for lam in (0.5, 1.0, 2.0)}
        sums_sq = dict(sums)
        n = 0
        for chunk in _stream_chunks(g, 77, _STREAM_LHS, [m_paths]):
            for batch in chunk():
                h = st.h_functionals(vol, batch)
                for lam in sums:
                    v = np.exp(-lam * h)
                    sums[lam] += v.sum()
                    sums_sq[lam] += (v * v).sum()
                n += batch.n_paths
        for lam in sums:
            mean = sums[lam] / n
            se = np.sqrt((sums_sq[lam] / n - mean * mean) / n)
            oracle = np.cosh(np.sqrt(lam)) ** -0.5
            assert abs(mean - oracle) <= 3.0 * se

        # the shipped scenario ties both legs together at lambda = 1
        r = oo.verify_harmonic("volterra", 1.0, None, "one", g, n_paths=m_paths, seed=77)
        assert r.passed
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_forward_identity():
    with criterion(5, "forward identity at 2e5 paths for both kernels"):
        g = make_grid(1.0, 256)
        for spec in ("rank1:b=0.3", "remark_gencv:b1=-2,b2=-3"):
            t0 = time.perf_counter()
            r = oo.verify_transf(spec, "cos_end:1.0", g, n_paths=200_000, seed=2025)
            elapsed = time.perf_counter() - t0
            assert r.passed, f"{spec}: rel={r.rel_error}"
            se = np.hypot(r.lhs.std_error, r.rhs.std_error)
            assert abs(r.lhs.mean - r.rhs.mean) <= max(0.02 * abs(r.rhs.mean), 3.0 * se)
            assert elapsed < 60.0, f"{spec} took {elapsed:.1f}s"


def test_criterion_6_inverse_identity_and_density():
    with criterion(6, "inverse identity, unit density mass, pathwise round trip"):
        g = make_grid(1.0, 256)
        # CI-valid kernel: the density-mass estimate carries an honest 3 sigma
        r = oo.verify_inverse("rank1:b=0.3", "cos_end:1.0", g, n_paths=200_000, seed=2025)
        assert r.passed
        rn = r.checks["rn_normalization"]
        assert rn.passed and "guard ok" in rn.note
        assert r.checks["composition_roundtrip"].value <= 1e-8
        # heavy-tail kernel: the mass check runs in the documented
        # median-consistency mode (second moment infinite)
        r = oo.verify_inverse("remark_gencv:b1=-2,b2=-3", "cos_end:1.0", g,
                              n_paths=200_000, seed=2025)
        assert r.passed
        assert r.checks["rn_normalization"].passed
        assert r.checks["composition_roundtrip"].value <= 1e-8


def test_criterion_7_surjective_and_laplace_sweep():
    with criterion(7, "square-root realization and Laplace sweep"):
        g = make_grid(1.0, 256)
        oracle = ((1.0 - 0.5) * np.exp(0.5)) ** -0.5  # E[e^q] of a rank-one eigenvalue 1/2
        npt.assert_allclose(oracle, ((0.5) * np.exp(0.5)) ** -0.5, rtol=1e-14)
        r = oo.verify_surjective("rank1:b=0.5", "one", g, n_paths=200_000, seed=1)
        assert r.passed
        # determinant side to 1e-6
        npt.assert_allclose(r.rhs.mean, oracle, rtol=1e-6)
        # MC side within 3 sample standard errors (the guard forbids a CI in
        # the report itself: the second moment is infinite at 2 lambda = 1)
        eta = kernel_zoo("rank1:b=0.5", g)
        tot = tot_sq = n = 0
        for chunk in _stream_chunks(g, 1, _STREAM_LHS, [200_000]):
            for b in chunk():
                v = np.exp(st.quadratic_form(eta, b))
                tot += v.sum()
                tot_sq += (v * v).sum()
                n += b.n_paths
        mean = tot / n
        se = np.sqrt((tot_sq / n - mean * mean) / n)
        assert abs(mean - oracle) <= 3.0 * se
        reports = oo.sweep_laplace("rank1:b=0.5", [0.25, 0.5, 0.75], "one", g,
                                   n_paths=50_000, seed=1)
        assert all(rep.passed for rep in reports)


def test_criterion_8_integrability_boundary():
    with criterion(8, "integrability bound, gate, and no-CI flag"):
        g = make_grid(1.0, 256)
        r = oo.verify_integrability_bound("rank1:b=0.5", g, n_paths=100_000, seed=5)
        assert r.passed
        npt.assert_allclose(r.spectra["bound"], 1.2575, atol=1e-4)
        npt.assert_allclose(r.spectra["exact_value"], 1.1014, atol=1e-4)
        assert r.spectra["exact_value"] <= r.spectra["bound"]
        assert oo.verify_integrability_bound("rank1:b=1.0", g, n_paths=10, seed=5
                                             ).verdict == "rejected-by-hypothesis"
        assert oo.verify_integrability_bound("rank1:b=1.5", g, n_paths=10, seed=5
                                             ).verdict == "rejected-by-hypothesis"
        assert oo.exp_q_moment_guard(kernel_zoo("rank1:b=0.6", g)) == "ok_no_ci"


def test_criterion_9_linear_transformations():
    with criterion(9, "linear transformation: determinant, trace, identity, drift"):
        g = make_grid(1.0, 512)
        r = oo.verify_cameron_martin("const:c=1", "cos_end:1.0", g, n_paths=200_000, seed=2025)
        assert r.passed
        det = np.exp(r.spectra["det_log"])
        assert abs(det - 1.5) <= 1e-3
        assert r.checks["trace_formula"].passed        # exact on the grid
        assert r.checks["det2_consistency"].passed     # det = det2 e^{tr}
        assert r.checks["pathwise_drift"].passed       # to 5 sqrt(step) scale
        se = np.hypot(r.lhs.std_error, r.rhs.std_error)
        assert abs(r.lhs.mean - r.rhs.mean) <= 3.0 * se


def test_criterion_10_variance_constant():
    with criterion(10, "quadratic-form variance is half the squared norm"):
        g = make_grid(1.0, 256)
        a = 0.8
        eta = kernel_zoo(f"rank1:b={a}", g)
        m_paths = 200_000
        batch = st.sample_paths(g, 1, m_paths, seed=10)
        q = st.quadratic_form(eta, batch)
        var = q.var(ddof=1)
        centered = (q - q.mean()) ** 2
        se_var = centered.std(ddof=1) / np.sqrt(m_paths)
        target = 0.5 * kernel_l2_norm(eta) ** 2
        assert abs(var - target) <= 5.0 * se_var


def test_criterion_11_determinism():
    with criterion(11, "byte-identical reruns"):
        g = make_grid(1.0, 128)
        blobs = []
        for _ in range(2):
            r = oo.verify_transf("rank1:b=0.3", "cos_end:1.0", g, n_paths=30_000, seed=7)
            blobs.append(json.dumps(r.to_dict(), sort_keys=True).encode())
        assert blobs[0] == blobs[1]
