"""Scenario runners at desk scale: gates, oracles, degenerate exactness,
downgrade behavior, determinism, and the pooled chunk reducer."""

import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from orderone import grid_kernel as gk, scenarios as sc

from orderone import (
    InvalidArgumentError,
    TimeGrid,
    integrability_bound,
    kernel_zoo,
    make_grid,
    rank1_exp_q_moment,
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


@pytest.fixture(scope="module")
def grid():
    return make_grid(1.0, 128)


# ---------------------------------------------------------------------------
# finite-dimensional identity
# ---------------------------------------------------------------------------

def test_finite_dim_zero_matrix():
    # A = 0 degenerates both sides to the same statistic of one stream
    r = verify_finite_dim(np.zeros((2, 2)), "cos_sum", n_samples=20_000, seed=0)
    assert r.passed and r.rel_error == 0.0 and r.z_score == 0.0


def test_finite_dim_diagonal_example():
    r = verify_finite_dim(np.diag([0.2, -0.1]), "cos_sum", n_samples=200_000, seed=3)
    assert r.passed and abs(r.z_score) <= 3.0
    # the plain side has the exact Gaussian characteristic value e^{-1}
    assert abs(r.rhs.mean - np.exp(-1.0)) <= 5.0 * r.rhs.std_error


@pytest.mark.parametrize("matrix, functional, lhs, rhs", [
    (np.diag([0.2, -0.1]), "cos_sum", (0.3650356691987327, 0.00455864432440621),
     (0.3617642431870651, 0.004354801429325639)),
    ([[0.1, 0.2], [-0.15, 0.05]], "one", (0.998668197547165, 0.0011840498340941513), (1.0, 0.0)),
])
def test_finite_dim_numbers_are_pinned(matrix, functional, lhs, rhs):
    # recorded when finite_dim drew its own Philox N(0, I_n) vectors; the
    # unit-step paths it now draws are the same draws, bit for bit
    r = verify_finite_dim(matrix, functional, n_samples=20_000, seed=3)
    for side, (mean, se) in ((r.lhs, lhs), (r.rhs, rhs)):
        npt.assert_allclose([side.mean, side.std_error], [mean, se], rtol=1e-12)
    assert r.passed and r.lhs.n_samples == r.rhs.n_samples == 20_000


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
    assert r.passed and r.rel_error == 0.0 and r.z_score == 0.0


def test_transf_rank_one(grid):
    r = verify_transf("rank1:b=0.3", "cos_end:1.0", grid, n_paths=60_000, seed=11)
    assert r.passed
    assert abs(r.rhs.mean - np.exp(0.045) * np.exp(-0.5)) <= 5.0 * r.rhs.std_error


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
    assert r.passed and r.rel_error == 0.0
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
    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 64 * 700)  # 4,000 paths in 6 chunks
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
    assert len(reports[0].lhs.chunk_means) == 6
    assert reports[1].lhs.std_error is None  # the CI-less row beside rows with a CI


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_sweep_rejects_a_non_finite_lambda(grid, lam):
    with pytest.raises(InvalidArgumentError, match="lambdas must be finite"):
        sweep_laplace("rank1:b=0.5", [0.5, lam], "one", grid, n_paths=10)


@pytest.mark.parametrize("run", [
    lambda g: verify_surjective("zero", "cos_end:1.0", g, n_paths=5_000, seed=1),
    lambda g: verify_harmonic("zero", 1.0, None, "cos_end:1.0", g, n_paths=5_000, seed=1),
], ids=["surjective", "harmonic"])
def test_zero_kernel_shares_the_stream(grid, run):
    # the degenerate rule is read from the scenario's own kernel: zero, so the
    # right-hand side reads the left-hand paths and the two sides coincide
    r = run(grid)
    assert r.passed and r.z_score == 0.0 and r.rel_error == 0.0
    assert r.lhs.mean == r.rhs.mean


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


def test_harmonic_rejects_negative_lambda(grid):
    with pytest.raises(InvalidArgumentError):
        verify_harmonic("volterra", -1.0, None, "one", grid, n_paths=10, seed=0)


def test_zero_paths_is_a_typed_error(grid):
    # both Monte Carlo reducers: the path one and the plain Gaussian one
    with pytest.raises(InvalidArgumentError, match="paths must be >= 1"):
        verify_transf("rank1:b=0.3", "cos_end:1.0", grid, n_paths=0, seed=0)
    with pytest.raises(InvalidArgumentError, match="paths must be >= 1"):
        verify_finite_dim(np.diag([0.2, -0.1]), "cos_sum", n_samples=0, seed=0)


# ---------------------------------------------------------------------------
# linear transformations
# ---------------------------------------------------------------------------

def test_cameron_martin_zero_exact(grid):
    r = verify_cameron_martin("zero", "cos_end:1.0", grid, n_paths=5_000, seed=1)
    assert r.passed and r.rel_error == 0.0


def test_cameron_martin_constant_phi():
    g = make_grid(1.0, 512)
    r = verify_cameron_martin("const:c=1", "cos_end:1.0", g, n_paths=60_000, seed=7)
    assert r.passed
    # rank-one Fredholm determinant: 1 + c T^2/2 + the exact 1/(2N) grid shift
    det = np.exp(r.spectra["det_log"])
    npt.assert_allclose(det, 1.5 + 1.0 / (2.0 * g.n_steps), rtol=1e-10)
    assert abs(det - 1.5) <= 1e-3
    for check in ("trace_formula", "det2_consistency", "pathwise_drift"):
        assert r.checks[check].passed


def test_trace_formula_sees_an_exclusive_tail_sum(monkeypatch):
    # the check compared the trace of B_kappa_phi with the quadrature of
    # kappa_phi's own diagonal, so it held whatever kappa_from_phi summed
    g = make_grid(1.0, 64)

    def exclusive_tail(phi):
        tail = np.cumsum(phi.values[:, ::-1], axis=1)[:, ::-1] - phi.values
        return gk.MatrixKernel(g, phi.dim, np.ascontiguousarray(tail) * g.step)

    check = verify_cameron_martin("const:c=1", "one", g, n_paths=200).checks["trace_formula"]
    assert check.passed
    monkeypatch.setattr(gk, "kappa_from_phi", exclusive_tail)
    check = verify_cameron_martin("const:c=1", "one", g, n_paths=200).checks["trace_formula"]
    # the tail sum drops the diagonal phi(t_i, t_i) Delta: N Delta^2 = 1 / N of the trace
    assert not check.passed
    npt.assert_allclose(check.target - check.value, 1.0 / 64, rtol=1e-9)


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
    assert r.checks["bound"].passed and r.checks["exact_oracle"].passed
    assert r.gate["guard"] == "ok_no_ci"


@pytest.mark.parametrize("spec", [" rank1:b=0.5", "rank1 : b = 0.5 ", "rank1:n=1, b=0.5"])
def test_integrability_oracle_reads_the_spec_grammar(grid, spec):
    # the oracle used to split the spec itself and drop the check for these
    want = verify_integrability_bound("rank1:b=0.5", grid, n_paths=2_000, seed=5)
    got = verify_integrability_bound(spec, grid, n_paths=2_000, seed=5)
    assert got.checks["exact_oracle"].to_dict() == want.checks["exact_oracle"].to_dict()
    assert got.spectra["exact_value"] == rank1_exp_q_moment(0.5)


def test_integrability_negative_spectrum(grid):
    # 0 v lambda = 0: bound collapses to exp(||eta||^2 / 4) = e
    r = verify_integrability_bound("rank1:b=-2", grid, n_paths=40_000, seed=6)
    assert r.passed
    npt.assert_allclose(r.spectra["bound"], np.exp(1.0), rtol=1e-10)
    npt.assert_allclose(
        r.spectra["exact_value"], (3.0 * np.exp(-2.0)) ** -0.5, rtol=1e-12
    )


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
    # 1,100 paths of 32 increments in chunks of at most 200 paths: 6 chunks
    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 32 * 200)
    g = make_grid(1.0, 32)
    runs = {}
    for workers in (1, 2):
        monkeypatch.setattr(sc, "WORKERS", workers)
        runs[workers] = [
            verify_transf("rank1:b=0.3", "cos_end:1.0", g, n_paths=1_100, seed=5),
            verify_inverse("volterra", "cos_mid:1.0,0.5", g, n_paths=1_100, seed=5, n_probe=10),
            verify_cameron_martin("const:c=1", "cos_end:1.0", g, n_paths=1_100, seed=5,
                                  n_probe=10),
            verify_surjective("rank1:b=0.5", "exp_negsq", g, n_paths=1_100, seed=5),
            verify_finite_dim(np.diag([0.2, -0.1]), "cos_sum", n_samples=3_300, seed=5),
            # one row per lambda on each side, merged row by row
            *sweep_laplace("rank1:b=0.5", [0.25, 1.0, 0.5], "cos_end:1.0", g, n_paths=1_100,
                           seed=5),
        ]
    assert len(runs[1][0].lhs.chunk_means) == 6
    assert runs[1][3].lhs.ci_valid is False  # the median-of-chunk-means fallback
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
        return batch.terminal_values()[:, 0]

    before = threading.active_count()
    with pytest.raises(_ChunkFailure, match="chunk 3"):
        sc._mc_paths(g, 1, 80, 0, 0, per_path)
    assert threading.active_count() == before
    est = sc._mc_paths(g, 1, 80, 0, 0, lambda b: b.terminal_values()[:, 0])
    assert est.n_samples == 80 and len(est.chunk_means) == 8


@pytest.mark.parametrize("workers", [1, 2])
def test_chunks_reuse_one_draw_buffer_per_worker(monkeypatch, workers):
    # 8 chunks of 10 paths draw into the same `workers` buffers
    monkeypatch.setattr(sc, "CHUNK_ELEMENTS", 16 * 10)
    monkeypatch.setattr(sc, "WORKERS", workers)
    g = make_grid(1.0, 16)
    heads, lock = set(), threading.Lock()

    def per_path(batch):
        with lock:
            heads.add(batch.increments.__array_interface__["data"][0])
        return batch.terminal_values()[:, 0]

    est = sc._mc_paths(g, 1, 80, 0, 0, per_path)
    assert len(est.chunk_means) == 8 and 1 <= len(heads) <= workers
    for idx, size in enumerate(sc._chunk_sizes(80, 16)):
        fresh = sample_paths(g, 1, size, 0, stream=(0, idx))
        npt.assert_allclose(est.chunk_means[idx], fresh.terminal_values()[:, 0].mean(),
                            rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n_paths,n_steps,sizes", [
    (50_000, 256, [12_500] * 4), (60_000, 1024, [4_000] * 15), (2_048, 2_048, [2_048]),
    (4_000, 64, [4_000]), (1, 1 << 23, [1]),
])
def test_chunk_plan_examples(n_paths, n_steps, sizes):
    assert sc._chunk_sizes(n_paths, n_steps) == sizes


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**7), per_path=st.integers(1, 1 << 24))
def test_chunk_sizes_are_near_equal_and_capped(n, per_path):
    sizes = sc._chunk_sizes(n, per_path)
    cap = max(1, sc.CHUNK_ELEMENTS // per_path)
    assert sum(sizes) == n
    assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1
    assert len(sizes) == -(-n // cap)


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
        est = sc._mc_paths(TimeGrid(1.0, 1), 1, 10_000, 3, 0, per_sample)
        vals = np.concatenate(drawn)
        two_pass = np.var(vals, ddof=1)
        npt.assert_allclose(est.std_error ** 2 * est.n_samples, two_pass, rtol=1e-12)
        naive = (np.sum(vals * vals) / vals.size - vals.mean() ** 2) * vals.size / (vals.size - 1)
        assert abs(naive / two_pass - 1.0) > 1e-3  # what sum x^2 - n mean^2 gives
        npt.assert_allclose(est.mean, vals.mean(), rtol=1e-15)
        assert len(est.chunk_means) == len(drawn) == -(-10_000 // cap)
