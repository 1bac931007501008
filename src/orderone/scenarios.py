"""Named end-to-end verifications of the change-of-variables identities.

Every scenario follows the same contract: assemble the kernels, evaluate the
hypothesis gate (top eigenvalue of the symmetric exponent kernel), and only
then Monte Carlo both sides of the identity with two independent Philox
streams, so the z-score of the comparison has a clean null.  The verdict is
"pass" when the discrepancy is below max(tolerance, 3 combined standard
errors) and every embedded operator-level check holds.

Identities covered (f ranges over the bounded functional family):

    finite_dim    |det(I+A)| E[f(x+Ax) e^{<Bx,x>/2}] = E[f],  B = -(A+A^T+A^T A)
    transf        |det2(I+B_k)| E[f(w+F_k(w)) e^{q(w)}] = e^{||k||^2/2} E[f]
    inverse       |det2(I+B_k)| E[f e^{q}] = e^{||k||^2/2} E[f(w+F_khat(w))]
                  plus the pathwise round trip and the unit mass of the
                  Radon-Nikodym weight |det2(I+B_khat)| e^{-||khat||^2/2} e^{qhat}
    surjective    E[f e^{q_eta}] = det2(I-B_eta)^{-1/2} E[f(w+F_khat_s(w))]
    harmonic      E[f e^{-h}] = det(I+C)^{-1/2} E[f(w+F_chat(w))], trace-class C
    cameron_martin|det(I+B_kphi)| E[f(w+G_phi(w)) e^{Psi}] = E[f]
    gencv         the spectral counterexample (lambda_s > 2 yet gate < 1)
    integrability E[e^{q_eta}] against the closed-form exponential bound

When the guard reports an infinite second moment (2 lambda >= 1) the scenario
never fabricates a confidence interval: it downgrades to a consistency verdict
that compares the median of fixed sub-batch means against the target at a
widened tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from . import grid_kernel as gk
from . import operator as op
from . import stochastic as st
from .grid_kernel import MatrixKernel, TimeGrid, make_grid
from .stochastic import PathBatch, TestFunctional

__all__ = [
    "MCEstimate",
    "ScenarioReport",
    "verify_finite_dim",
    "verify_transf",
    "verify_inverse",
    "verify_surjective",
    "sweep_laplace",
    "verify_harmonic",
    "verify_cameron_martin",
    "verify_gencv_example",
    "verify_integrability_bound",
    "rank1_exp_q_moment",
    "integrability_bound",
    "CSV_HEADER",
    "DEFAULT_TOL",
    "OPERATOR_TOL",
]

DEFAULT_TOL = 0.02       # relative tolerance absorbing O(Delta) discretization bias
OPERATOR_TOL = 1e-8      # operator-only assertions
CONSISTENCY_FACTOR = 5.0  # widened tolerance for CI-less (median) comparisons
CHUNK_ELEMENTS = 1 << 23  # soft cap on elements of one chunk's increment array

_STREAM_LHS, _STREAM_RHS, _STREAM_PROBE, _STREAM_RN = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# estimates, comparisons, reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error (absent when the guard says
    the second moment is infinite) and the fixed sub-batch means used for the
    CI-less consistency fallback."""

    mean: float
    std_error: float | None
    n_samples: int
    ci_valid: bool
    chunk_means: tuple = ()

    @property
    def median(self) -> float:
        return float(np.median(self.chunk_means)) if self.chunk_means else self.mean

    def to_dict(self) -> dict:
        d = {
            "mean": self.mean,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "ci_valid": self.ci_valid,
        }
        if not self.ci_valid:
            d["median_of_batches"] = self.median
        return d


def exact_estimate(value: float) -> MCEstimate:
    """Closed-form side of an identity, carried as a zero-error estimate."""
    return MCEstimate(float(value), 0.0, 0, True)


def _chunk_sizes(n_paths: int, elements_per_path: int) -> list[int]:
    if n_paths < 1:
        raise InvalidArgumentError(f"the number of paths must be >= 1, got {n_paths}")
    chunk = max(1, min(n_paths, CHUNK_ELEMENTS // max(1, elements_per_path)))
    sizes = [chunk] * (n_paths // chunk)
    if n_paths % chunk:
        sizes.append(n_paths % chunk)
    return sizes


def _mc_paths(
    grid: TimeGrid,
    dim: int,
    n_paths: int,
    seed: int,
    stream_id: int,
    per_path,
    scale: float = 1.0,
    ci_valid: bool = True,
) -> MCEstimate:
    """Stream chunks of paths through per_path and reduce in fixed order."""
    total = 0.0
    total_sq = 0.0
    chunk_means = []
    done = 0
    for idx, size in enumerate(_chunk_sizes(n_paths, grid.n_steps * dim)):
        batch = st.sample_paths(grid, dim, size, seed, stream=(stream_id, idx))
        vals = np.asarray(per_path(batch), dtype=float)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        chunk_means.append(scale * float(vals.mean()))
        done += size
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0) * done / max(done - 1, 1)
    se = scale * float(np.sqrt(var / done))
    return MCEstimate(
        scale * mean, se if ci_valid else None, done, ci_valid, tuple(chunk_means)
    )


def _mc_gaussians(n_dim: int, n_samples: int, seed: int, stream_id: int, per_sample,
                  scale: float = 1.0) -> MCEstimate:
    """Same driver over plain standard-normal vectors in R^n."""
    total = total_sq = 0.0
    chunk_means = []
    done = 0
    for idx, size in enumerate(_chunk_sizes(n_samples, n_dim)):
        key = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, stream_id, idx])
        rng = np.random.Generator(np.random.Philox(key))
        x = rng.standard_normal((size, n_dim))
        vals = np.asarray(per_sample(x), dtype=float)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        chunk_means.append(scale * float(vals.mean()))
        done += size
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0) * done / max(done - 1, 1)
    se = scale * float(np.sqrt(var / done))
    return MCEstimate(scale * mean, se, done, True, tuple(chunk_means))


@dataclass(frozen=True)
class Check:
    """One embedded operator-level assertion inside a scenario."""

    value: float
    target: float
    tol: float
    passed: bool
    note: str = ""

    def __post_init__(self):
        # numpy scalars sneak in from comparisons; JSON needs native types
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "target", float(self.target))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "target": self.target,
            "tol": self.tol,
            "pass": self.passed,
            "note": self.note,
        }


def _check_close(value: float, target: float, tol: float, relative=True, note="") -> Check:
    value, target = float(value), float(target)
    scale = max(abs(target), 1.0) if relative else 1.0
    return Check(value, target, tol, abs(value - target) <= tol * scale, note)


def _check_bound(value: float, bound: float, slack: float = 0.0, note="") -> Check:
    value, bound = float(value), float(bound)
    return Check(value, bound, slack, value <= bound + slack, note)


@dataclass
class ScenarioReport:
    """Outcome of one identity verification, serializable to JSON and CSV."""

    name: str
    kind: str
    lhs: MCEstimate | None
    rhs: MCEstimate | None
    z_score: float | None
    rel_error: float | None
    tolerance: float
    verdict: str  # pass | fail | rejected-by-hypothesis | singular
    gate: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "lhs": self.lhs.to_dict() if self.lhs else None,
            "rhs": self.rhs.to_dict() if self.rhs else None,
            "z_score": self.z_score,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "gate": self.gate,
            "spectra": self.spectra,
            "checks": {k: c.to_dict() for k, c in self.checks.items()},
            "provenance": self.provenance,
        }

    def to_csv_row(self) -> list[str]:
        def fmt(x):
            return "" if x is None else repr(float(x))

        return [
            self.name,
            fmt(self.lhs.mean if self.lhs else None),
            fmt(self.rhs.mean if self.rhs else None),
            fmt(self._combined_se()),
            fmt(self.z_score),
            self.verdict,
            fmt(self.gate.get("lambda_eta")),
            fmt(self.spectra.get("det2_log_modulus")),
            str(self.provenance.get("seed", "")),
        ]

    def _combined_se(self):
        if self.lhs is None or self.rhs is None:
            return None
        if self.lhs.std_error is None or self.rhs.std_error is None:
            return None
        return float(np.hypot(self.lhs.std_error, self.rhs.std_error))


CSV_HEADER = ["name", "lhs", "rhs", "se", "z", "verdict", "lambda_eta", "det2_log", "seed"]


def _compare(lhs: MCEstimate, rhs: MCEstimate, tol: float):
    """(z, rel_error, main_pass) under the max(tol, 3 sigma) rule; medians at a
    widened tolerance when either side is CI-less."""
    scale = max(abs(rhs.mean), 1e-300)
    if lhs.ci_valid and rhs.ci_valid:
        diff = abs(lhs.mean - rhs.mean)
        se = float(np.hypot(lhs.std_error, rhs.std_error))
        z = diff / se if se > 0 else (0.0 if diff == 0.0 else float("inf"))
        return z, diff / scale, diff <= max(tol * scale, 3.0 * se)
    diff = abs(lhs.median - rhs.median)
    return None, diff / scale, diff <= CONSISTENCY_FACTOR * tol * scale


def _finish(report: ScenarioReport) -> ScenarioReport:
    if report.verdict == "undecided":
        ok = all(c.passed for c in report.checks.values())
        report.verdict = "pass" if ok and report.checks else "fail"
    return report


def _resolve_kernel(kernel, grid: TimeGrid, dim: int) -> tuple[MatrixKernel, str]:
    if isinstance(kernel, MatrixKernel):
        if kernel.grid != grid:
            raise InvalidArgumentError("kernel grid does not match the scenario grid")
        return kernel, "<custom>"
    return gk.kernel_zoo(str(kernel), grid, dim), str(kernel)


def _resolve_functional(functional) -> TestFunctional:
    if isinstance(functional, TestFunctional):
        return functional
    return TestFunctional.parse(str(functional))


def _base_provenance(spec, grid, dim, n_paths, seed, functional=None) -> dict:
    d = {
        "kernel": spec,
        "horizon": grid.horizon,
        "n_steps": grid.n_steps,
        "dim": dim,
        "n_paths": n_paths,
        "seed": seed,
    }
    if functional is not None:
        d["functional"] = str(functional)
    return d


def _gate_dict(lam_eta: float, guard: str) -> dict:
    return {"lambda_eta": float(lam_eta), "guard": guard}


def _rejected(name, kind, lam, guard, tol, prov, spectra=None) -> ScenarioReport:
    return ScenarioReport(
        name, kind, None, None, None, None, tol,
        "rejected-by-hypothesis", _gate_dict(lam, guard), spectra or {}, {}, prov,
    )


def _singular(name, kind, lam, guard, tol, prov, spectra=None) -> ScenarioReport:
    return ScenarioReport(
        name, kind, None, None, None, None, tol,
        "singular", _gate_dict(lam, guard), spectra or {}, {}, prov,
    )


def _spectra_dict(kappa: MatrixKernel, d2: op.Det2 | None = None) -> dict:
    hs = op.assemble(kappa)
    if d2 is None:
        d2 = op.det2(hs)
    return {
        "det2_sign": d2.sign,
        "det2_log_modulus": d2.log_modulus if np.isfinite(d2.log_modulus) else None,
        "hs_norm": hs.hs_norm(),
        "trace": op.trace(hs),
    }


# ---------------------------------------------------------------------------
# finite-dimensional warm-up identity
# ---------------------------------------------------------------------------

def _finite_dim_functional(functional):
    if callable(functional):
        return functional, "<callable>"
    tag = str(functional)
    if tag == "one":
        return (lambda x: np.ones(x.shape[0])), tag
    if tag == "cos_sum":
        return (lambda x: np.cos(x.sum(axis=1))), tag
    raise InvalidArgumentError(f"unknown finite-dim functional {functional!r}")


def verify_finite_dim(
    matrix, functional="cos_sum", n_samples: int = 200_000, seed: int = 0,
    tol: float = DEFAULT_TOL, name: str | None = None,
) -> ScenarioReport:
    """Gaussian change of variables in R^n for x -> x + Ax with quadratic
    weight exp(<Bx,x>/2), B = -(A + A^T + A^T A), gated on lambda_max(B) < 1."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    f, f_name = _finite_dim_functional(functional)
    name = name or f"finite_dim[n={n}]"
    prov = {"matrix_shape": n, "n_samples": n_samples, "seed": seed, "functional": f_name}

    b = -(a + a.T + a.T @ a)
    lam = float(np.linalg.eigvalsh(b)[-1])
    guard = "reject" if lam >= 1.0 - op.GATE_MARGIN else "ok"
    if guard == "reject":
        return _rejected(name, "finite_dim", lam, guard, tol, prov)

    sign, logdet = np.linalg.slogdet(np.eye(n) + a)
    if sign == 0:
        return _singular(name, "finite_dim", lam, guard, tol, prov)
    det_abs = float(np.exp(logdet))

    def lhs_fn(x):
        y = x + x @ a.T
        quad = 0.5 * np.einsum("mi,mi->m", x @ b.T, x)
        return f(y) * np.exp(quad)

    rhs_stream = _STREAM_LHS if not np.any(a) else _STREAM_RHS
    lhs = _mc_gaussians(n, n_samples, seed, _STREAM_LHS, lhs_fn, scale=det_abs)
    rhs = _mc_gaussians(n, n_samples, seed, rhs_stream, f)
    z, rel, ok = _compare(lhs, rhs, tol)
    report = ScenarioReport(
        name, "finite_dim", lhs, rhs, z, rel, tol,
        "undecided", _gate_dict(lam, guard),
        {"det_abs": det_abs}, {}, prov,
    )
    report.checks["identity"] = Check(rel, 0.0, tol, ok, "main comparison")
    return _finish(report)


# ---------------------------------------------------------------------------
# the Wiener-space scenarios
# ---------------------------------------------------------------------------

def _gate_prologue(kappa: MatrixKernel):
    """The eta kernel, the gate spectrum of B_eta (one eigensolve) and its guard."""
    eta = gk.eta_of_kappa(kappa)
    gate = op.spectrum(op.assemble(eta))
    return eta, gate, st.moment_guard(gate.lambda_max)


def verify_transf(
    kernel, functional="cos_end:1.0", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None,
) -> ScenarioReport:
    """Forward identity: transformed-and-weighted expectation against the
    plain one, scaled by |det2| and exp(||kappa||^2 / 2)."""
    grid = grid or make_grid(1.0, 256)
    kappa, spec = _resolve_kernel(kernel, grid, dim)
    f = _resolve_functional(functional)
    name = name or f"transf[{spec}]"
    prov = _base_provenance(spec, grid, kappa.dim, n_paths, seed, f)

    eta, gate, guard = _gate_prologue(kappa)
    lam = gate.lambda_max
    if guard == "reject":
        return _rejected(name, "transf", lam, guard, tol, prov)
    d2 = op.det2(op.assemble(kappa))
    spectra = _spectra_dict(kappa, d2)
    spectra["lambda_eta"] = lam
    if d2.singular:
        return _singular(name, "transf", lam, guard, tol, prov, spectra)
    ci = guard == "ok"

    def lhs_fn(batch: PathBatch):
        q = st.quadratic_form(eta, batch)
        transformed = st.apply_transformation(kappa, batch)
        return f.evaluate(transformed) * np.exp(q)

    # a zero kernel degenerates both sides to the same statistic of one batch;
    # sharing the stream then makes the discrepancy exactly zero
    degenerate = not np.any(kappa.values)
    rhs_stream = _STREAM_LHS if degenerate else _STREAM_RHS
    lhs = _mc_paths(grid, kappa.dim, n_paths, seed, _STREAM_LHS, lhs_fn,
                    scale=float(np.exp(d2.log_modulus)), ci_valid=ci)
    rhs_scale = float(np.exp(0.5 * gk.kernel_l2_norm(kappa) ** 2))
    if f.is_constant_one:
        rhs = exact_estimate(rhs_scale)
    else:
        rhs = _mc_paths(grid, kappa.dim, n_paths, seed, rhs_stream, f.evaluate,
                        scale=rhs_scale)
    z, rel, ok = _compare(lhs, rhs, tol)
    report = ScenarioReport(name, "transf", lhs, rhs, z, rel, tol, "undecided",
                            _gate_dict(lam, guard), spectra, {}, prov)
    report.checks["identity"] = Check(rel, 0.0, tol, ok, "main comparison")
    return _finish(report)


def verify_inverse(
    kernel, functional="cos_end:1.0", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    n_probe: int = 1000, name: str | None = None,
) -> ScenarioReport:
    """Inverse-transformation identity, the pathwise round trip, and the unit
    mass of the Radon-Nikodym weight of the transformed measure."""
    grid = grid or make_grid(1.0, 256)
    kappa, spec = _resolve_kernel(kernel, grid, dim)
    f = _resolve_functional(functional)
    name = name or f"inverse[{spec}]"
    prov = _base_provenance(spec, grid, kappa.dim, n_paths, seed, f)

    eta, gate, guard = _gate_prologue(kappa)
    lam = gate.lambda_max
    if guard == "reject":
        return _rejected(name, "inverse", lam, guard, tol, prov)
    lu = op.factor_identity_plus(op.assemble(kappa))
    d2 = lu.det2
    spectra = _spectra_dict(kappa, d2)
    spectra["lambda_eta"] = lam
    if d2.singular:
        return _singular(name, "inverse", lam, guard, tol, prov, spectra)
    kappa_hat = op.inverse_kernel_from(lu, kappa)
    del lu  # as large as the operator, and the Monte Carlo below does not need it
    ci = guard == "ok"

    def lhs_fn(batch: PathBatch):
        return f.evaluate(batch) * np.exp(st.quadratic_form(eta, batch))

    degenerate = not np.any(kappa.values)
    rhs_stream = _STREAM_LHS if degenerate else _STREAM_RHS
    lhs = _mc_paths(grid, kappa.dim, n_paths, seed, _STREAM_LHS, lhs_fn,
                    scale=float(np.exp(d2.log_modulus)), ci_valid=ci)
    rhs_scale = float(np.exp(0.5 * gk.kernel_l2_norm(kappa) ** 2))

    def rhs_fn(batch: PathBatch):
        return f.evaluate(st.apply_transformation(kappa_hat, batch))

    if f.is_constant_one:
        rhs = exact_estimate(rhs_scale)
    else:
        rhs = _mc_paths(grid, kappa.dim, n_paths, seed, rhs_stream, rhs_fn,
                        scale=rhs_scale)
    z, rel, ok = _compare(lhs, rhs, tol)
    report = ScenarioReport(name, "inverse", lhs, rhs, z, rel, tol, "undecided",
                            _gate_dict(lam, guard), spectra, {}, prov)
    report.checks["identity"] = Check(rel, 0.0, tol, ok, "main comparison")

    # pathwise round trip: both composition orders return the increments
    probe = st.sample_paths(grid, kappa.dim, n_probe, seed, stream=(_STREAM_PROBE, 0))
    scale = max(1.0, float(np.max(np.abs(probe.increments))))
    there = st.apply_transformation(kappa, st.apply_transformation(kappa_hat, probe))
    back = st.apply_transformation(kappa_hat, st.apply_transformation(kappa, probe))
    err = max(
        float(np.max(np.abs(there.increments - probe.increments))),
        float(np.max(np.abs(back.increments - probe.increments))),
    )
    report.checks["composition_roundtrip"] = _check_close(
        err / scale, 0.0, OPERATOR_TOL, relative=False,
        note="max increment deviation / path scale over both orders",
    )

    # Radon-Nikodym mass of the image measure.  On the grid
    # I - M_eta_hat = ((I+M)(I+M)^T)^{-1} has the spectrum 1 / (1 - w), w over
    # the gate spectrum, so its gate is 1 - 1 / (1 - lambda_min(B_eta)).  The
    # weight's det2 takes its own LU, so the mass checks it independently.
    eta_hat = gk.eta_of_kappa(kappa_hat)
    guard_hat = st.moment_guard(1.0 - 1.0 / (1.0 - gate.lambda_min))
    d2_hat = op.det2(op.assemble(kappa_hat))
    rn_scale = float(np.exp(d2_hat.log_modulus - 0.5 * gk.kernel_l2_norm(kappa_hat) ** 2))

    def rn_fn(batch: PathBatch):
        return np.exp(st.quadratic_form(eta_hat, batch))

    rn = _mc_paths(grid, kappa.dim, n_paths, seed, _STREAM_RN, rn_fn,
                   scale=rn_scale, ci_valid=guard_hat == "ok")
    _, rn_rel, rn_ok = _compare(rn, exact_estimate(1.0), tol)
    report.checks["rn_normalization"] = Check(
        rn.mean, 1.0, tol, rn_ok,
        f"Radon-Nikodym weight mass (guard {guard_hat})",
    )
    return _finish(report)


def verify_surjective(
    eta_kernel, functional="one", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None,
) -> ScenarioReport:
    """Realize a symmetric kernel's quadratic form by the square-root
    transformation and compare E[f e^{q_eta}] with det2(I-B_eta)^{-1/2} times
    the expectation along the inverse transformation."""
    grid = grid or make_grid(1.0, 256)
    eta, spec = _resolve_kernel(eta_kernel, grid, dim)
    if not eta.symmetric:
        raise InvalidArgumentError("verify_surjective needs a symmetric kernel spec")
    f = _resolve_functional(functional)
    name = name or f"surjective[{spec}]"
    prov = _base_provenance(spec, grid, eta.dim, n_paths, seed, f)

    m_eta = op.assemble(eta)
    eig = op.spectrum(m_eta, vectors=True)
    lam = eig.lambda_max
    guard = st.moment_guard(lam)
    if guard == "reject":
        return _rejected(name, "surjective", lam, guard, tol, prov)
    ci = guard == "ok"

    kappa = eig.sqrt_kernel()
    d2_eta = eig.det2_complement()  # det2(I - B_eta) > 0 in the gate regime
    # the right-hand side transforms the paths only when f is not constant
    kappa_hat = None if f.is_constant_one else eig.inverse_sqrt_kernel()
    del eig  # the eigenvectors are as large as the operator
    spectra = {
        "lambda_eta": lam,
        "det2_sign": d2_eta.sign,
        "det2_log_modulus": d2_eta.log_modulus,
        "hs_norm": gk.kernel_l2_norm(eta),
        "kappa_s_norm": gk.kernel_l2_norm(kappa),
    }

    report = ScenarioReport(name, "surjective", None, None, None, None, tol,
                            "undecided", _gate_dict(lam, guard), spectra, {}, prov)
    # det2(I - B_eta) = (|det2(I + B_kappa_s)| e^{-||kappa_s||^2/2})^2 = prod (1-w) e^w
    # in the spectral calculus that builds kappa_s; an LU of I - B_eta, which
    # shares nothing with the eigensolve, is the independent route
    report.checks["det2_sqrt_identity"] = _check_close(
        d2_eta.log_modulus, op.det2_matrix(-m_eta.matrix).log_modulus, OPERATOR_TOL,
        note="log of the squared kappa_s factor, prod (1-w) e^w, against an LU of I-B_eta",
    )
    # eta round trip of the square-root construction
    eta_round = gk.eta_of_kappa(kappa)
    round_err = gk.kernel_l2_norm(
        MatrixKernel(grid, eta.dim, eta_round.values - eta.values)
    )
    report.checks["eta_roundtrip"] = _check_close(
        round_err, 0.0, OPERATOR_TOL * max(gk.kernel_l2_norm(eta), 1.0), relative=False,
        note="||eta(kappa_s(eta)) - eta||_2",
    )

    def lhs_fn(batch: PathBatch):
        return f.evaluate(batch) * np.exp(st.quadratic_form(eta, batch))

    lhs = _mc_paths(grid, eta.dim, n_paths, seed, _STREAM_LHS, lhs_fn, ci_valid=ci)
    rhs_scale = float(np.exp(-0.5 * d2_eta.log_modulus))

    def rhs_fn(batch: PathBatch):
        return f.evaluate(st.apply_transformation(kappa_hat, batch))

    if f.is_constant_one:
        rhs = exact_estimate(rhs_scale)
    else:
        rhs = _mc_paths(grid, eta.dim, n_paths, seed, _STREAM_RHS, rhs_fn,
                        scale=rhs_scale)
    z, rel, ok = _compare(lhs, rhs, tol)
    report.lhs, report.rhs, report.z_score, report.rel_error = lhs, rhs, z, rel
    report.checks["identity"] = Check(rel, 0.0, tol, ok, "main comparison")
    return _finish(report)


def sweep_laplace(
    eta_kernel, lambdas, functional="one", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 50_000, seed: int = 0, tol: float = DEFAULT_TOL,
) -> list[ScenarioReport]:
    """Laplace-transform sweep: the surjective identity applied to each
    lambda * eta (q scales linearly in the kernel)."""
    grid = grid or make_grid(1.0, 256)
    eta, spec = _resolve_kernel(eta_kernel, grid, dim)
    reports = []
    for lam_factor in lambdas:
        scaled = gk.scale_kernel(eta, float(lam_factor))
        reports.append(
            verify_surjective(
                scaled, functional, grid, dim, n_paths, seed, tol,
                name=f"laplace[{spec}, lambda={lam_factor:g}]",
            )
        )
        reports[-1].provenance["kernel"] = spec
        reports[-1].provenance["lambda"] = float(lam_factor)
    return reports


def verify_harmonic(
    kernel, lam: float = 1.0, x=None, functional="one",
    grid: TimeGrid | None = None, dim: int = 1, n_paths: int = 100_000,
    seed: int = 0, tol: float = DEFAULT_TOL, name: str | None = None,
) -> ScenarioReport:
    """Oscillator-type Laplace transform: E[f e^{-lam h}] against the
    trace-class determinant of the covariance-type kernel.

    The identity is applied to sqrt(lam) * kappa so the weight is
    exp(-lam * h(kappa)); the determinant side is computed along two routes
    (the c kernel and B^T B) that must agree."""
    if lam < 0:
        raise InvalidArgumentError(f"lambda must be >= 0, got {lam}")
    grid = grid or make_grid(1.0, 256)
    kappa, spec = _resolve_kernel(kernel, grid, dim)
    f = _resolve_functional(functional)
    name = name or f"harmonic[{spec}, lambda={lam:g}]"
    prov = _base_provenance(spec, grid, kappa.dim, n_paths, seed, f)
    prov["lambda"] = float(lam)
    if x is not None:
        x = np.asarray(x, dtype=float)
        prov["x"] = x.tolist()

    kappa_l = gk.scale_kernel(kappa, float(np.sqrt(lam)))
    # one eigensolve of B_{-c} gives the gate, det(I + B_c) and, when f is not
    # constant, the right-hand side kernel (I + B_c)^{-1/2} - I
    neg_c = gk.scale_kernel(gk.c_kernels(kappa_l, x), -1.0)
    eig = op.spectrum(op.assemble(neg_c), vectors=not f.is_constant_one)
    lam_neg = eig.lambda_max  # Lambda(B_{-c}) <= 0 always
    guard = "ok"
    gate = {"lambda_eta": float(lam_neg), "guard": guard,
            "note": "gate kernel is -c(kappa); nonpositive by construction"}
    report = ScenarioReport(name, "harmonic", None, None, None, None, tol,
                            "undecided", gate, {}, {}, prov)
    report.checks["lambda_nonpositive"] = _check_bound(
        lam_neg, 0.0, 1e-10, note="Lambda(B_{-c}) <= 0"
    )

    logdet_c = eig.logdet_complement()  # log det(I + B_c), I + B_c >= I
    if x is None:
        m_k = op.assemble(kappa_l).matrix
        sign_b, logdet_b = np.linalg.slogdet(np.eye(m_k.shape[0]) + m_k.T @ m_k)
        report.checks["det_dual_route"] = _check_close(
            logdet_b, logdet_c, 1e-10, note="det(I + B^T B) against det(I + B_c)"
        )
    report.spectra = {
        "det_log": logdet_c,
        "det_sign": 1,
        "hs_norm": gk.kernel_l2_norm(kappa_l),
    }
    c_prime_hat = None if f.is_constant_one else eig.inverse_sqrt_kernel()
    del eig  # the eigenvectors are as large as the operator

    def lhs_fn(batch: PathBatch):
        h = st.h_functionals(kappa_l, batch, x)
        return f.evaluate(batch) * np.exp(-h)

    lhs = _mc_paths(grid, kappa.dim, n_paths, seed, _STREAM_LHS, lhs_fn)
    rhs_scale = float(np.exp(-0.5 * logdet_c))

    def rhs_fn(batch: PathBatch):
        return f.evaluate(st.apply_transformation(c_prime_hat, batch))

    if f.is_constant_one:
        rhs = exact_estimate(rhs_scale)
    else:
        rhs = _mc_paths(grid, kappa.dim, n_paths, seed, _STREAM_RHS, rhs_fn,
                        scale=rhs_scale)
    z, rel, ok = _compare(lhs, rhs, tol)
    report.lhs, report.rhs, report.z_score, report.rel_error = lhs, rhs, z, rel
    report.checks["identity"] = Check(rel, 0.0, tol, ok, "main comparison")
    return _finish(report)


def verify_cameron_martin(
    phi_kernel, functional="cos_end:1.0", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    n_probe: int = 1000, name: str | None = None,
) -> ScenarioReport:
    """Linear-transformation identity with trace-class determinant.

    Builds the tail kernel of phi, checks the trace formula and the
    det = det2 * e^{tr} consistency, verifies pathwise that the linear drift
    equals the Wiener integral of the tail kernel, then Monte Carlos the
    identity with the exponent Psi built from the path (not the increments).
    """
    grid = grid or make_grid(1.0, 256)
    phi, spec = _resolve_kernel(phi_kernel, grid, dim)
    f = _resolve_functional(functional)
    name = name or f"cameron_martin[{spec}]"
    prov = _base_provenance(spec, grid, phi.dim, n_paths, seed, f)
    prov["kernel_role"] = "phi"

    kappa_phi = gk.kappa_from_phi(phi)
    eta, gate, guard = _gate_prologue(kappa_phi)
    lam = gate.lambda_max
    if guard == "reject":
        return _rejected(name, "cameron_martin", lam, guard, tol, prov)
    ci = guard == "ok"

    hs = op.assemble(kappa_phi)
    d2 = op.det2(hs)
    spectra = _spectra_dict(kappa_phi, d2)
    spectra["lambda_eta"] = lam
    if d2.singular:
        return _singular(name, "cameron_martin", lam, guard, tol, prov, spectra)

    tr = op.trace(hs)
    diag_quadrature = float(
        np.einsum("iaa->", kappa_phi.values[np.arange(grid.n_steps), np.arange(grid.n_steps)])
        * grid.step
    )
    report = ScenarioReport(name, "cameron_martin", None, None, None, None, tol,
                            "undecided", _gate_dict(lam, guard), spectra, {}, prov)
    report.checks["trace_formula"] = _check_close(
        tr, diag_quadrature, 1e-12, note="matrix trace against diagonal quadrature"
    )
    sign_d, logdet_d = np.linalg.slogdet(np.eye(hs.matrix.shape[0]) + hs.matrix)
    report.checks["det2_consistency"] = _check_close(
        logdet_d - tr, d2.log_modulus, 1e-10,
        note="log det(I+B) - tr B against log det2(I+B)",
    )
    spectra["det_log"] = float(d2.log_modulus + tr)

    # pathwise: the linear drift is the Wiener integral of the tail kernel
    probe = st.sample_paths(grid, phi.dim, n_probe, seed, stream=(_STREAM_PROBE, 0))
    drift = st.cameron_martin_drift(phi, probe)
    integral = st.wiener_integral(kappa_phi, probe)
    scale = max(1.0, float(np.max(np.abs(integral))))
    report.checks["pathwise_drift"] = _check_close(
        float(np.max(np.abs(drift - integral))) / scale, 0.0,
        5.0 * np.sqrt(grid.step), relative=False,
        note="max |linear drift - Wiener integral| / scale, Ito-vs-path gap",
    )

    det_abs = float(np.exp(d2.log_modulus + tr))

    def lhs_fn(batch: PathBatch):
        psi, _ = st.cm_exponent(phi, batch)
        transformed = st.apply_linear_transformation(phi, batch)
        return f.evaluate(transformed) * np.exp(psi)

    degenerate = not np.any(phi.values)
    rhs_stream = _STREAM_LHS if degenerate else _STREAM_RHS
    lhs = _mc_paths(grid, phi.dim, n_paths, seed, _STREAM_LHS, lhs_fn,
                    scale=det_abs, ci_valid=ci)
    if f.is_constant_one:
        rhs = exact_estimate(1.0)
    else:
        rhs = _mc_paths(grid, phi.dim, n_paths, seed, rhs_stream, f.evaluate)
    z, rel, ok = _compare(lhs, rhs, tol)
    report.lhs, report.rhs, report.z_score, report.rel_error = lhs, rhs, z, rel
    report.checks["identity"] = Check(rel, 0.0, tol, ok, "main comparison")
    return _finish(report)


def verify_gencv_example(
    grid: TimeGrid | None = None, b1: float = -2.0, b2: float = -3.0,
    functional="cos_end:1.0", n_paths: int = 100_000, seed: int = 0,
    tol: float = DEFAULT_TOL, name: str | None = None,
) -> ScenarioReport:
    """The spectral counterexample: s-kernel eigenvalue -2 min(b) may exceed 2
    while the eta gate stays below 1 and det2 stays positive, so the forward
    identity still holds where the generic change-of-variables route fails."""
    grid = grid or make_grid(1.0, 256)
    spec = f"remark_gencv:b1={b1:g},b2={b2:g}"
    kappa = gk.kernel_zoo(spec, grid, 1)
    name = name or f"gencv[{spec}]"

    lam_s = op.lambda_max(op.assemble(gk.s_of_kappa(kappa)))
    eta, gate, guard = _gate_prologue(kappa)
    lam_eta = gate.lambda_max
    d2 = op.det2(op.assemble(kappa))
    prov = _base_provenance(spec, grid, 1, n_paths, seed, functional)
    spectra = _spectra_dict(kappa, d2)
    spectra["lambda_eta"] = lam_eta
    spectra["lambda_s"] = lam_s

    if d2.singular:
        return _singular(name, "gencv", lam_eta, guard, tol, prov, spectra)

    report = ScenarioReport(name, "gencv", None, None, None, None, tol, "undecided",
                            _gate_dict(lam_eta, guard), spectra, {}, prov)
    report.checks["lambda_s"] = _check_close(
        lam_s, -2.0 * min(b1, b2), 1e-6, note="Lambda(B_s) = -2 min(b1, b2)"
    )
    report.checks["lambda_eta"] = _check_close(
        lam_eta, 1.0 - (1.0 + max(b1, b2)) ** 2, 1e-6, note="Lambda(B_eta) closed form"
    )
    target_d2 = (1.0 + b1) * (1.0 + b2) * np.exp(-(b1 + b2))
    report.checks["det2_value"] = _check_close(
        d2.sign * np.exp(d2.log_modulus), target_d2, 1e-6, note="det2 closed form"
    )

    inner = verify_transf(kappa, functional, grid, 1, n_paths, seed, tol,
                          name=name + "/transf")
    report.lhs, report.rhs = inner.lhs, inner.rhs
    report.z_score, report.rel_error = inner.z_score, inner.rel_error
    report.checks["identity"] = inner.checks.get(
        "identity", Check(np.nan, 0.0, tol, False, "missing")
    )
    report.provenance["kernel"] = spec
    return _finish(report)


def rank1_exp_q_moment(a: float) -> float:
    """Closed form of E[exp(q)] for a rank-one kernel with eigenvalue a < 1."""
    if a >= 1:
        return float("inf")
    return float(((1.0 - a) * np.exp(a)) ** -0.5)


def integrability_bound(lam: float, hs_norm: float) -> float:
    """Exponential-moment bound: exp(1/2 {1/2 + p / (3 (1-p)^3)} ||eta||^2),
    p = max(lambda, 0); valid for lambda < 1."""
    p = max(0.0, lam)
    return float(np.exp(0.5 * (0.5 + p / (3.0 * (1.0 - p) ** 3)) * hs_norm ** 2))


def verify_integrability_bound(
    eta_kernel, grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    exact_value: float | None = None, name: str | None = None,
) -> ScenarioReport:
    """Check the Monte Carlo exponential moment against the closed-form bound,
    guard-aware; rank-one specs are additionally compared to their exact value."""
    grid = grid or make_grid(1.0, 256)
    eta, spec = _resolve_kernel(eta_kernel, grid, dim)
    if not eta.symmetric:
        raise InvalidArgumentError("verify_integrability_bound needs a symmetric kernel")
    name = name or f"integrability[{spec}]"
    prov = _base_provenance(spec, grid, eta.dim, n_paths, seed)

    lam = op.lambda_max(op.assemble(eta))
    guard = st.moment_guard(lam)
    if guard == "reject":
        return _rejected(name, "integrability", lam, guard, tol, prov)
    ci = guard == "ok"
    hs_norm = gk.kernel_l2_norm(eta)
    bound = integrability_bound(lam, hs_norm)

    if exact_value is None and isinstance(eta_kernel, str) and spec.startswith("rank1:"):
        _, params = spec.split(":", 1)
        for part in params.split(","):
            key, _, val = part.partition("=")
            if key.strip() == "b":
                exact_value = rank1_exp_q_moment(float(val))

    est = _mc_paths(
        grid, eta.dim, n_paths, seed, _STREAM_LHS,
        lambda batch: np.exp(st.quadratic_form(eta, batch)), ci_valid=ci,
    )
    rhs = exact_estimate(bound)
    report = ScenarioReport(
        name, "integrability", est, rhs, None, None, tol, "undecided",
        _gate_dict(lam, guard),
        {"bound": bound, "hs_norm": hs_norm, "lambda_eta": lam}, {}, prov,
    )
    slack = 3.0 * est.std_error if est.ci_valid else CONSISTENCY_FACTOR * tol * bound
    value = est.mean if est.ci_valid else est.median
    report.checks["bound"] = _check_bound(
        value, bound, slack, note="E[e^q] below the exponential-moment bound"
    )
    if exact_value is not None and np.isfinite(exact_value):
        report.spectra["exact_value"] = float(exact_value)
        if est.ci_valid:
            gap_ok = abs(est.mean - exact_value) <= max(
                3.0 * est.std_error, tol * abs(exact_value)
            )
        else:
            gap_ok = abs(est.median - exact_value) <= CONSISTENCY_FACTOR * tol * abs(exact_value)
        report.checks["exact_oracle"] = Check(
            est.mean if est.ci_valid else est.median, float(exact_value), tol, bool(gap_ok),
            "closed-form exponential moment",
        )
        report.rel_error = abs(est.mean - exact_value) / abs(exact_value)
    return _finish(report)
