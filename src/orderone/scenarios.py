"""Named end-to-end verifications of the change-of-variables identities.

Every scenario follows the same contract: assemble the kernels, evaluate the
hypothesis gate (top eigenvalue of the symmetric exponent kernel), and only
then Monte Carlo both sides of the identity with two independent Philox
streams, so the z-score of the comparison has a clean null.  The verdict is
"pass" when the discrepancy is below max(tolerance, 3 combined standard
errors) and every embedded operator-level check holds.  Degenerate rule: when
the scenario's own kernel is zero, both sides are the same statistic of one
batch, so the right-hand side reads the left-hand stream and z = 0 exactly.

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

A lambda family, the surjective identity of lambda * eta for several lambda
(the Laplace sweep; `verify_surjective` is the family of lambda = 1), is one
pass per side: one eigensolve of B_eta gives each factor's gate, det2 and
kernels, and each side draws its paths once, with one row of values per
factor the gate admits, merged row by row (common random numbers).

Chunk plan.  One Monte Carlo side of n paths of N d increments each runs as
ceil(n / cap) chunks of near-equal size, cap = CHUNK_ELEMENTS // (N d);
chunk idx draws its paths from the Philox stream (seed, side, idx).  Each
chunk returns only its count, mean and M2 (the sum of squared deviations),
the mean carried as a rounded value plus a correction, and the partials are
merged in chunk order by the pairwise update of Chan, Golub and LeVeque,
which does not cancel the way sum x^2 - n mean^2 does.  The chunks run on WORKERS =
min(usable cores, 2^23 // CHUNK_ELEMENTS) threads (numpy's Philox fill, its
ufuncs and BLAS release the GIL), so the increments in flight never exceed
2^23 elements; a side of one chunk runs in the calling thread.  Each side
allocates one draw buffer per thread up front and its chunks draw into those
buffers, so its peak memory does not depend on how the threads interleave
(per-chunk batches left the peak to the allocator's arenas and varied by
tens of MiB from run to run).  The chunk
sizes do not depend on the machine and the merge order is fixed, so every
report is bit-for-bit the same whatever the worker count.  Transformed paths
are read at the functional's node alone (see `stochastic`), so no side forms
a transformed batch.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import os
import queue
from typing import Callable, NamedTuple

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
    "resolve_scenario",
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
CHUNK_ELEMENTS = 1 << 22  # cap on the elements of one chunk's increment array
_IN_FLIGHT_ELEMENTS = 1 << 23  # cap on the elements of all chunks running at once


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# threads that run chunks; reports do not depend on it
WORKERS = max(1, min(_usable_cores(), _IN_FLIGHT_ELEMENTS // CHUNK_ELEMENTS))

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
    """ceil(n / cap) chunks of near-equal size (they differ by at most one),
    cap = CHUNK_ELEMENTS // elements_per_path paths."""
    cap = max(1, CHUNK_ELEMENTS // max(1, elements_per_path))
    count = -(-n_paths // cap)
    base, extra = divmod(n_paths, count)
    return [base + 1] * extra + [base] * (count - extra)


def _map_chunks(run, n_chunks: int) -> list:
    """[run(0), ..., run(n_chunks - 1)], on up to WORKERS threads.

    A chunk's exception propagates with its own type once the chunks already
    running have finished; the ones not yet started are cancelled."""
    workers = min(WORKERS, n_chunks)
    if workers <= 1:
        return [run(idx) for idx in range(n_chunks)]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(run, idx) for idx in range(n_chunks)]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _moments(vals: np.ndarray) -> tuple:
    """(count, mean, correction, M2) of one chunk, per row of vals (one row
    when vals is 1-D).  The chunk mean is mean + correction: the rounded mean
    plus the mean deviation from it, so that the merge sees mean differences
    between chunks to full precision even when the values share a large
    offset.  M2 is the sum of squared deviations from the chunk mean."""
    mean = vals.mean(axis=-1, keepdims=True)
    dev = vals - mean
    corr = dev.mean(axis=-1)
    np.square(dev, out=dev)
    n = vals.shape[-1]
    return n, mean[..., 0], corr, dev.sum(axis=-1) - n * corr * corr


def _mc_estimate(
    draw, n_samples: int, elements_per_sample: int, per_sample, scale=1.0, ci_valid=True,
) -> MCEstimate | list[MCEstimate]:
    """Draw the chunks of n_samples (draw(idx, size, buf) draws into buf), map
    per_sample over them on the pool and merge their moments in chunk order by
    the pairwise update of Chan, Golub and LeVeque.  The next chunk reuses the
    buffer, so per_sample must not keep its input past its return.

    per_sample gives one value per sample, merged into one MCEstimate, or a
    (rows, samples) array, merged row by row into a list of MCEstimates, one
    per row; scale and ci_valid then hold one entry per row (or one for all)."""
    sizes = _chunk_sizes(n_samples, elements_per_sample)
    # one draw buffer per thread, allocated here and reused by every chunk:
    # a chunk then allocates no batch of its own, and a side's memory does not
    # depend on how the threads interleave or which allocator arena serves them
    free = queue.SimpleQueue()
    for _ in range(min(WORKERS, len(sizes))):
        free.put(np.empty(sizes[0] * elements_per_sample))

    def run(idx):
        buf = free.get()
        try:
            return _moments(np.asarray(per_sample(draw(idx, sizes[idx], buf)), dtype=float))
        finally:
            free.put(buf)

    parts = _map_chunks(run, len(sizes))
    count, mean, corr, m2 = parts[0]
    for n_b, mean_b, corr_b, m2_b in parts[1:]:
        # not in place: the moments are arrays, and those of parts[0] are read below
        total = count + n_b
        delta = (mean_b - mean) + (corr_b - corr)
        corr = corr + delta * n_b / total
        m2 = m2 + (m2_b + delta * delta * count * n_b / total)
        count = total
    se = np.sqrt(np.maximum(m2, 0.0) / max(count - 1, 1) / count)
    shape = np.shape(mean)
    scale = np.broadcast_to(scale, shape)
    # fewer than two samples have no spread to estimate, so no confidence interval
    ci_valid = np.broadcast_to(np.logical_and(ci_valid, count > 1), shape)
    estimates = [
        MCEstimate(float(scale[r] * (mean[r] + corr[r])),
                   float(scale[r] * se[r]) if ci_valid[r] else None, count, bool(ci_valid[r]),
                   tuple(float(scale[r] * (p[1][r] + p[2][r])) for p in parts))
        for r in np.ndindex(shape)
    ]
    return estimates if shape else estimates[0]


def _mc_paths(grid: TimeGrid, dim: int, n_paths: int, seed: int, stream_id: int,
              per_path, scale=1.0, ci_valid=True) -> MCEstimate | list[MCEstimate]:
    """Monte Carlo over Wiener paths, one estimate or one per row as in
    `_mc_estimate`: chunk idx is the Philox stream (seed, stream_id, idx)."""
    def draw(idx, size, buf):
        return st.sample_paths(grid, dim, size, seed, stream=(stream_id, idx), out=buf)

    return _mc_estimate(draw, n_paths, grid.n_steps * dim, per_path, scale, ci_valid)


def _mc_gaussians(n_dim: int, n_samples: int, seed: int, stream_id: int, per_sample,
                  scale: float = 1.0) -> MCEstimate:
    """Monte Carlo over standard-normal vectors in R^n, keyed like `_mc_paths`."""
    def draw(idx, size, buf):
        key = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, stream_id, idx])
        return np.random.Generator(np.random.Philox(key)).standard_normal(
            (size, n_dim), out=buf[:size * n_dim].reshape(size, n_dim))

    return _mc_estimate(draw, n_samples, n_dim, per_sample, scale)


def _image_functional(f: TestFunctional, kernel: MatrixKernel, linear: bool = False):
    """per_path of f along the image of each path under the transformation of
    kernel (the linear transformation of phi = kernel when linear), read at
    f's node alone; the node weights are built once, before any chunk."""
    k = f.node(kernel.grid)
    if k is None:
        return lambda batch: np.ones(batch.n_paths)
    weights = st.node_weights(kernel, k, linear)
    return lambda batch: f.at_node(st.node_value(batch, weights))


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
    verdict: str  # pass | fail | rejected-by-hypothesis | singular | error (cli run)
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


def _halted(report: ScenarioReport, verdict: str) -> ScenarioReport:
    """The report of a scenario stopped before its Monte Carlo: verdict
    'rejected-by-hypothesis' at its gate, 'singular' at a vanishing det2."""
    report.verdict = verdict
    return report


def _identity(report: ScenarioReport, lhs: MCEstimate, rhs: MCEstimate) -> ScenarioReport:
    """Compare the two sides of the identity as the report's 'identity' check,
    then decide the verdict."""
    report.lhs, report.rhs = lhs, rhs
    report.z_score, report.rel_error, ok = _compare(lhs, rhs, report.tolerance)
    report.checks["identity"] = Check(report.rel_error, 0.0, report.tolerance, ok,
                                      "main comparison")
    return _finish(report)


def _check_size(n_paths: int, tol: float) -> None:
    """The Monte Carlo size and the tolerance of every scenario."""
    if n_paths < 1:
        raise InvalidArgumentError(f"the number of paths must be >= 1, got {n_paths}")
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidArgumentError(f"tolerance must be a finite real > 0, got {tol}")


def _gate_dict(lam_eta: float, guard: str) -> dict:
    return {"lambda_eta": float(lam_eta), "guard": guard}


def _spectra_dict(kappa: MatrixKernel, d2: op.Det2, lam_eta: float) -> dict:
    """det2, the HS norm and the trace of B_kappa, read from the kernel without
    assembling the operator: the trace is the quadrature of the diagonal."""
    return {
        "det2_sign": d2.sign,
        "det2_log_modulus": d2.log_modulus if np.isfinite(d2.log_modulus) else None,
        "hs_norm": gk.kernel_l2_norm(kappa),
        "trace": op.trace(kappa),
        "lambda_eta": lam_eta,
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
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InvalidArgumentError(f"matrix must be square and non-empty, got shape {a.shape}")
    _check_size(n_samples, tol)
    n = a.shape[0]
    f, f_name = _finite_dim_functional(functional)
    prov = {"matrix_shape": n, "n_samples": n_samples, "seed": seed, "functional": f_name}

    b = -(a + a.T + a.T @ a)
    lam = float(np.linalg.eigvalsh(b)[-1])
    guard = "reject" if lam >= 1.0 - op.GATE_MARGIN else "ok"
    report = ScenarioReport(name or f"finite_dim[n={n}]", "finite_dim", None, None, None, None,
                            tol, "undecided", _gate_dict(lam, guard), provenance=prov)
    if guard == "reject":
        return _halted(report, "rejected-by-hypothesis")

    sign, logdet = np.linalg.slogdet(np.eye(n) + a)
    if sign == 0:
        return _halted(report, "singular")
    det_abs = float(np.exp(logdet))
    report.spectra = {"det_abs": det_abs}

    def lhs_fn(x):
        y = x + x @ a.T
        quad = 0.5 * np.einsum("mi,mi->m", x @ b.T, x)
        return f(y) * np.exp(quad)

    rhs_stream = _STREAM_LHS if not np.any(a) else _STREAM_RHS
    lhs = _mc_gaussians(n, n_samples, seed, _STREAM_LHS, lhs_fn, scale=det_abs)
    return _identity(report, lhs, _mc_gaussians(n, n_samples, seed, rhs_stream, f))


# ---------------------------------------------------------------------------
# the Wiener-space scenarios
# ---------------------------------------------------------------------------

_SYMMETRIC_KINDS = ("surjective", "integrability")  # their kernel is a quadratic form's


class _Row(NamedTuple):
    """One identity of a two-sided Monte Carlo pass; see `Scenario.two_sided`."""

    report: ScenarioReport
    lhs_scale: float
    rhs_scale: float
    rhs_image: Callable | None = None
    ci_valid: bool = True


@dataclass
class Scenario:
    """A Wiener-space scenario's checked arguments and the report it fills in."""

    grid: TimeGrid
    kernel: MatrixKernel
    f: TestFunctional | None
    n_paths: int
    seed: int
    report: ScenarioReport

    def mc(self, stream_id: int, per_path, scale=1.0, ci_valid=True):
        return _mc_paths(self.grid, self.kernel.dim, self.n_paths, self.seed, stream_id,
                         per_path, scale, ci_valid)

    def gate(self, kappa: MatrixKernel):
        """The eta kernel of kappa, the gate spectrum of B_eta (one eigensolve)
        and its guard; the gate goes into the report."""
        eta = gk.eta_of_kappa(kappa)
        gate = op.spectrum(eta)
        guard = st.moment_guard(gate.lambda_max)
        self.report.gate = _gate_dict(gate.lambda_max, guard)
        return eta, gate, guard

    def two_sided(self, lhs_fn, rows: list[_Row]) -> list[ScenarioReport]:
        """Monte Carlo the left-hand sides of all rows in one pass, lhs_fn
        giving one value per path for each row (a 1-D array for one row),
        scaled by the row's lhs_scale, with a CI when its ci_valid.  The
        right-hand side of a row is rhs_scale E[f], f read along rhs_image
        (per path) when given: in closed form when f is constant one, else in
        one pass too.  Then compare each row's two sides and decide its report."""
        lhs = self.mc(_STREAM_LHS, lambda batch: np.atleast_2d(lhs_fn(batch)),
                      [r.lhs_scale for r in rows], [r.ci_valid for r in rows])
        if self.f.is_constant_one:
            rhs = [exact_estimate(r.rhs_scale) for r in rows]
        else:
            images = [r.rhs_image or self.f.evaluate for r in rows]
            # a zero scenario kernel degenerates both sides to the same
            # statistic of one batch; sharing the stream then makes the
            # discrepancy exactly zero
            stream = _STREAM_RHS if np.any(self.kernel.values) else _STREAM_LHS
            rhs = self.mc(stream, lambda batch: [image(batch) for image in images],
                          [r.rhs_scale for r in rows])
        return [_identity(r.report, a, b) for r, a, b in zip(rows, lhs, rhs)]


def resolve_scenario(
    kind: str, kernel, functional=None, grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None, lam: float | None = None, x=None,
) -> Scenario:
    """Check and resolve the arguments of a Wiener-space scenario of the given
    kind before any work: the Monte Carlo size and tolerance, the harmonic
    lambda (>= 0) and direction x (of the kernel's dimension), the kernel spec
    (symmetric for surjective and integrability) and the functional (None
    for a scenario without one).  Every scenario starts here, and a config is
    validated by calling it on each scenario's grid.  Raises InvalidArgumentError."""
    _check_size(n_paths, tol)
    if lam is not None and not (np.isfinite(lam) and lam >= 0):
        raise InvalidArgumentError(f"lambda must be a finite real >= 0, got {lam}")
    grid = grid or make_grid(1.0, 256)
    if isinstance(kernel, MatrixKernel):
        if kernel.grid != grid:
            raise InvalidArgumentError("kernel grid does not match the scenario grid")
        kappa, spec = kernel, "<custom>"
    else:
        kappa, spec = gk.kernel_zoo(str(kernel), grid, dim), str(kernel)
    if kind in _SYMMETRIC_KINDS and not kappa.symmetric:
        raise InvalidArgumentError(f"{kind} needs a symmetric kernel, got {spec!r}")
    f = functional
    if f is not None and not isinstance(f, TestFunctional):
        f = TestFunctional.parse(str(f))
    prov = {"kernel": spec, "horizon": grid.horizon, "n_steps": grid.n_steps,
            "dim": kappa.dim, "n_paths": n_paths, "seed": seed}
    if f is not None:
        prov["functional"] = str(f)
    label = ""
    if lam is not None:
        prov["lambda"], label = float(lam), f", lambda={lam:g}"
    if x is not None:
        prov["x"] = gk.direction(x, kappa.dim).tolist()
    report = ScenarioReport(name or f"{kind}[{spec}{label}]", kind, None, None, None, None,
                            tol, "undecided", provenance=prov)
    return Scenario(grid, kappa, f, n_paths, seed, report)


def verify_transf(
    kernel, functional="cos_end:1.0", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None,
) -> ScenarioReport:
    """Forward identity: transformed-and-weighted expectation against the
    plain one, scaled by |det2| and exp(||kappa||^2 / 2)."""
    s = resolve_scenario("transf", kernel, functional, grid, dim, n_paths, seed, tol, name)
    kappa = s.kernel
    eta, gate, guard = s.gate(kappa)
    if guard == "reject":
        return _halted(s.report, "rejected-by-hypothesis")
    d2 = op.det2(kappa)
    s.report.spectra = _spectra_dict(kappa, d2, gate.lambda_max)
    if d2.singular:
        return _halted(s.report, "singular")

    f_image = _image_functional(s.f, kappa)

    def lhs_fn(batch: PathBatch):
        return f_image(batch) * np.exp(st.quadratic_form(eta, batch))

    return s.two_sided(lhs_fn, [_Row(s.report, float(np.exp(d2.log_modulus)),
                                     float(np.exp(0.5 * gk.kernel_l2_norm(kappa) ** 2)),
                                     ci_valid=guard == "ok")])[0]


def verify_inverse(
    kernel, functional="cos_end:1.0", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    n_probe: int = 1000, name: str | None = None,
) -> ScenarioReport:
    """Inverse-transformation identity, the pathwise round trip, and the unit
    mass of the Radon-Nikodym weight of the transformed measure."""
    s = resolve_scenario("inverse", kernel, functional, grid, dim, n_paths, seed, tol, name)
    kappa, report = s.kernel, s.report
    eta, gate, guard = s.gate(kappa)
    if guard == "reject":
        return _halted(report, "rejected-by-hypothesis")
    lu = op.factor_identity_plus(kappa)
    d2 = lu.det2
    report.spectra = _spectra_dict(kappa, d2, gate.lambda_max)
    if d2.singular:
        return _halted(report, "singular")
    kappa_hat = op.inverse_kernel_from(lu, kappa)
    del lu  # as large as the operator, and the Monte Carlo below does not need it

    # pathwise round trip: both composition orders return the increments
    probe = st.sample_paths(s.grid, kappa.dim, n_probe, seed, stream=(_STREAM_PROBE, 0))
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
    d2_hat = op.det2(kappa_hat)
    rn_scale = float(np.exp(d2_hat.log_modulus - 0.5 * gk.kernel_l2_norm(kappa_hat) ** 2))

    def rn_fn(batch: PathBatch):
        return np.exp(st.quadratic_form(eta_hat, batch))

    rn = s.mc(_STREAM_RN, rn_fn, scale=rn_scale, ci_valid=guard_hat == "ok")
    _, _, rn_ok = _compare(rn, exact_estimate(1.0), tol)
    report.checks["rn_normalization"] = Check(
        rn.mean, 1.0, tol, rn_ok,
        f"Radon-Nikodym weight mass (guard {guard_hat})",
    )

    def lhs_fn(batch: PathBatch):
        return s.f.evaluate(batch) * np.exp(st.quadratic_form(eta, batch))

    return s.two_sided(lhs_fn, [_Row(report, float(np.exp(d2.log_modulus)),
                                     float(np.exp(0.5 * gk.kernel_l2_norm(kappa) ** 2)),
                                     _image_functional(s.f, kappa_hat), guard == "ok")])[0]


def _surjective_family(s: Scenario, factors, reports) -> None:
    """The surjective identity of c * eta, eta the scenario's kernel, for each
    factor c, deciding its report: one eigensolve of B_eta for the family and
    one Monte Carlo pass per side, with one row per factor its gate admits.
    Every factor keeps its own gate and its own independent checks."""
    eta = s.kernel
    eig = op.spectrum(eta, vectors=True)
    eta_norm = gk.kernel_l2_norm(eta)
    rows, lhs_factors = [], []
    for c, report in zip(factors, reports):
        scaled = eig.scaled(c)  # the spectrum of c B_eta
        lam = scaled.lambda_max
        guard = st.moment_guard(lam)
        report.gate = _gate_dict(lam, guard)
        if guard == "reject":
            _halted(report, "rejected-by-hypothesis")
            continue
        kappa = scaled.sqrt_kernel()
        d2_eta = scaled.det2_complement()  # det2(I - c B_eta) > 0 in the gate regime
        report.spectra = {
            "lambda_eta": lam,
            "det2_sign": d2_eta.sign,
            "det2_log_modulus": d2_eta.log_modulus,
            "hs_norm": abs(c) * eta_norm,
            "kappa_s_norm": gk.kernel_l2_norm(kappa),
        }
        # det2(I - B) = (|det2(I + B_kappa_s)| e^{-||kappa_s||^2/2})^2 = prod (1-w) e^w
        # for B = c B_eta in the spectral calculus that builds kappa_s; an LU of
        # I - B, which shares nothing with the eigensolve, is the independent route
        report.checks["det2_sqrt_identity"] = _check_close(
            d2_eta.log_modulus, op.det2_matrix(-c * op.assemble(eta)).log_modulus,
            OPERATOR_TOL,
            note="log of the squared kappa_s factor, prod (1-w) e^w, against an LU of I-B_eta",
        )
        # eta round trip of the square-root construction
        round_err = gk.kernel_l2_norm(
            MatrixKernel(s.grid, eta.dim, gk.eta_of_kappa(kappa).values - c * eta.values)
        )
        report.checks["eta_roundtrip"] = _check_close(
            round_err, 0.0, OPERATOR_TOL * max(abs(c) * eta_norm, 1.0), relative=False,
            note="||eta(kappa_s(eta)) - eta||_2",
        )
        del kappa  # as large as the operator
        # the right-hand side transforms the paths only when f is not constant
        image = None if s.f.is_constant_one else _image_functional(
            s.f, scaled.inverse_sqrt_kernel())
        rows.append(_Row(report, 1.0, float(np.exp(-0.5 * d2_eta.log_modulus)), image,
                         guard == "ok"))
        lhs_factors.append(c)
    eig = scaled = None  # the eigenvectors are as large as the operator

    def lhs_fn(batch: PathBatch):
        f, q = s.f.evaluate(batch), st.quadratic_form(eta, batch)
        return [f * np.exp(c * q) for c in lhs_factors]  # q of c eta is c q

    if rows:
        s.two_sided(lhs_fn, rows)


def verify_surjective(
    eta_kernel, functional="one", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None,
) -> ScenarioReport:
    """Realize a symmetric kernel's quadratic form by the square-root
    transformation and compare E[f e^{q_eta}] with det2(I-B_eta)^{-1/2} times
    the expectation along the inverse transformation."""
    s = resolve_scenario("surjective", eta_kernel, functional, grid, dim, n_paths, seed, tol,
                         name)
    _surjective_family(s, [1.0], [s.report])
    return s.report


def sweep_laplace(
    eta_kernel, lambdas, functional="one", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 50_000, seed: int = 0, tol: float = DEFAULT_TOL,
) -> list[ScenarioReport]:
    """Laplace-transform sweep: the surjective identity applied to each
    lambda * eta (q scales linearly in the kernel), from one eigensolve of
    B_eta and on the same paths for every lambda."""
    s = resolve_scenario("surjective", eta_kernel, functional, grid, dim, n_paths, seed, tol)
    if not np.all(np.isfinite(lambdas)):
        raise InvalidArgumentError(f"lambdas must be finite reals, got {list(lambdas)}")
    prov = s.report.provenance
    reports = [
        ScenarioReport(f"laplace[{prov['kernel']}, lambda={c:g}]", "surjective", None, None,
                       None, None, tol, "undecided", provenance={**prov, "lambda": float(c)})
        for c in lambdas
    ]
    _surjective_family(s, [float(c) for c in lambdas], reports)
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
    s = resolve_scenario("harmonic", kernel, functional, grid, dim, n_paths, seed, tol, name,
                         lam=lam, x=x)
    report = s.report

    kappa_l = gk.scale_kernel(s.kernel, float(np.sqrt(lam)))
    # one eigensolve of B_{-c} gives the gate, det(I + B_c) and, when f is not
    # constant, the right-hand side kernel (I + B_c)^{-1/2} - I
    neg_c = gk.scale_kernel(gk.c_kernels(kappa_l, x), -1.0)
    eig = op.spectrum(neg_c, vectors=not s.f.is_constant_one)
    lam_neg = eig.lambda_max  # Lambda(B_{-c}) <= 0 always
    report.gate = {"lambda_eta": float(lam_neg), "guard": "ok",
                   "note": "gate kernel is -c(kappa); nonpositive by construction"}
    report.checks["lambda_nonpositive"] = _check_bound(
        lam_neg, 0.0, 1e-10, note="Lambda(B_{-c}) <= 0"
    )

    logdet_c = eig.logdet_complement()  # log det(I + B_c), I + B_c >= I
    if x is None:
        m_k = op.assemble(kappa_l)
        sign_b, logdet_b = np.linalg.slogdet(np.eye(m_k.shape[0]) + m_k.T @ m_k)
        report.checks["det_dual_route"] = _check_close(
            logdet_b, logdet_c, 1e-10, note="det(I + B^T B) against det(I + B_c)"
        )
    report.spectra = {
        "det_log": logdet_c,
        "det_sign": 1,
        "hs_norm": gk.kernel_l2_norm(kappa_l),
    }
    image = None if s.f.is_constant_one else _image_functional(s.f, eig.inverse_sqrt_kernel())
    del eig  # the eigenvectors are as large as the operator

    def lhs_fn(batch: PathBatch):
        h = st.h_functionals(kappa_l, batch, x)
        return s.f.evaluate(batch) * np.exp(-h)

    return s.two_sided(lhs_fn, [_Row(report, 1.0, float(np.exp(-0.5 * logdet_c)), image)])[0]


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
    s = resolve_scenario("cameron_martin", phi_kernel, functional, grid, dim, n_paths, seed,
                         tol, name)
    phi, grid, report = s.kernel, s.grid, s.report
    report.provenance["kernel_role"] = "phi"

    kappa_phi = gk.kappa_from_phi(phi)
    eta, gate, guard = s.gate(kappa_phi)
    if guard == "reject":
        return _halted(report, "rejected-by-hypothesis")
    d2 = op.det2(kappa_phi)
    report.spectra = _spectra_dict(kappa_phi, d2, gate.lambda_max)
    if d2.singular:
        return _halted(report, "singular")

    m = op.assemble(kappa_phi)  # the checks' matrix, not the hot path's
    tr = float(np.trace(m))
    diag_quadrature = float(
        np.einsum("iaa->", kappa_phi.values[np.arange(grid.n_steps), np.arange(grid.n_steps)])
        * grid.step
    )
    report.checks["trace_formula"] = _check_close(
        tr, diag_quadrature, 1e-12, note="matrix trace against diagonal quadrature"
    )
    sign_d, logdet_d = np.linalg.slogdet(np.eye(m.shape[0]) + m)
    report.checks["det2_consistency"] = _check_close(
        logdet_d - tr, d2.log_modulus, 1e-10,
        note="log det(I+B) - tr B against log det2(I+B)",
    )
    report.spectra["det_log"] = float(d2.log_modulus + tr)

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

    f_image = _image_functional(s.f, phi, linear=True)

    def lhs_fn(batch: PathBatch):
        psi, _ = st.cm_exponent(phi, batch)
        return f_image(batch) * np.exp(psi)

    return s.two_sided(lhs_fn, [_Row(report, float(np.exp(d2.log_modulus + tr)), 1.0,
                                     ci_valid=guard == "ok")])[0]


def verify_gencv_example(
    grid: TimeGrid | None = None, b1: float = -2.0, b2: float = -3.0,
    functional="cos_end:1.0", n_paths: int = 100_000, seed: int = 0,
    tol: float = DEFAULT_TOL, name: str | None = None,
) -> ScenarioReport:
    """The spectral counterexample: s-kernel eigenvalue -2 min(b) may exceed 2
    while the eta gate stays below 1 and det2 stays positive, so the forward
    identity still holds where the generic change-of-variables route fails."""
    spec = f"remark_gencv:b1={b1:g},b2={b2:g}"
    s = resolve_scenario("gencv", spec, functional, grid, 1, n_paths, seed, tol, name)
    kappa, report = s.kernel, s.report

    lam_s = op.lambda_max(gk.s_of_kappa(kappa))
    # the forward identity, whose gate and det2 are this scenario's too
    inner = verify_transf(kappa, s.f, s.grid, 1, n_paths, seed, tol,
                          name=report.name + "/transf")
    report.gate, report.spectra = inner.gate, dict(inner.spectra, lambda_s=lam_s)
    if inner.verdict in ("rejected-by-hypothesis", "singular"):
        # the gate 1 - (1 + b)^2 of this family reaches 1 exactly where
        # det2 = (1 + b1)(1 + b2) e^{-(b1 + b2)} vanishes
        return _halted(report, "singular")

    report.checks["lambda_s"] = _check_close(
        lam_s, -2.0 * min(b1, b2), 1e-6, note="Lambda(B_s) = -2 min(b1, b2)"
    )
    report.checks["lambda_eta"] = _check_close(
        inner.gate["lambda_eta"], 1.0 - (1.0 + max(b1, b2)) ** 2, 1e-6,
        note="Lambda(B_eta) closed form",
    )
    target_d2 = (1.0 + b1) * (1.0 + b2) * np.exp(-(b1 + b2))
    report.checks["det2_value"] = _check_close(
        inner.spectra["det2_sign"] * np.exp(inner.spectra["det2_log_modulus"]), target_d2, 1e-6,
        note="det2 closed form",
    )
    return _identity(report, inner.lhs, inner.rhs)


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
    s = resolve_scenario("integrability", eta_kernel, None, grid, dim, n_paths, seed, tol, name)
    eta, report = s.kernel, s.report

    lam = op.lambda_max(eta)
    guard = st.moment_guard(lam)
    report.gate = _gate_dict(lam, guard)
    if guard == "reject":
        return _halted(report, "rejected-by-hypothesis")
    hs_norm = gk.kernel_l2_norm(eta)
    bound = integrability_bound(lam, hs_norm)

    if exact_value is None and isinstance(eta_kernel, str):
        kernel_name, params = gk.parse_kernel_spec(eta_kernel)
        if kernel_name == "rank1":
            exact_value = rank1_exp_q_moment(float(params["b"]))

    est = s.mc(_STREAM_LHS, lambda batch: np.exp(st.quadratic_form(eta, batch)),
               ci_valid=guard == "ok")
    report.lhs, report.rhs = est, exact_estimate(bound)
    report.spectra = {"bound": bound, "hs_norm": hs_norm, "lambda_eta": lam}
    slack = 3.0 * est.std_error if est.ci_valid else CONSISTENCY_FACTOR * tol * bound
    value = est.mean if est.ci_valid else est.median
    report.checks["bound"] = _check_bound(
        value, bound, slack, note="E[e^q] below the exponential-moment bound"
    )
    if exact_value is not None and np.isfinite(exact_value):
        report.spectra["exact_value"] = float(exact_value)
        _, _, gap_ok = _compare(est, exact_estimate(exact_value), tol)
        report.checks["exact_oracle"] = Check(
            value, float(exact_value), tol, gap_ok, "closed-form exponential moment"
        )
        report.rel_error = abs(est.mean - exact_value) / abs(exact_value)
    return _finish(report)
