"""Named end-to-end verifications of the change-of-variables identities.

Every scenario follows the same contract: assemble the kernels, evaluate the
hypothesis gate (top eigenvalue of the symmetric exponent kernel), and only
then Monte Carlo both sides of the identity with two independent Philox
streams, so the z-score of the comparison has a clean null.  The verdict is
"pass" when the discrepancy is below max(tolerance, 3 combined standard
errors) and every embedded operator-level check holds.  Degenerate rule: when
the scenario's own kernel is zero, both sides are the same statistic of one
batch, so the right-hand side reads the left-hand stream and z = 0 exactly.

Sides as data.  A transformation of order one turns its change of variables
into a quadratic-form exponent, so every Wiener-space side below is a
`Side`: e^{log_scale} E[f(w') e^{c q(w)}], w' the image of the path w under
the transformation of a kernel (w itself without one) and q a per-path
exponent (none: 1).  `Scenario.estimate` is the one Monte Carlo driver: it
evaluates each distinct image and each distinct exponent once per chunk, so
a lambda family evaluates q once and each row reads c q, and a side with no
exponent under a constant f is exact.  `Scenario.identity` runs the two
sides of rows of (report, lhs, rhs), one pass each, and decides the reports.
finite_dim draws its N(0, I_n) vectors from the same sampler: n unit steps.

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

A lambda family, the surjective identity of lambda * eta for several lambda,
is one pass per side: one eigensolve of B_eta gives each factor's gate, det2
and kernels, and each side draws its paths once, with one row of values per
factor the gate admits, merged row by row (common random numbers).  A
surjective scenario's own identity (factor 1) and its Laplace sweep (its
lambdas) form one family (`surjective_scenario`); `verify_surjective` is the
family of factor 1 alone and `sweep_laplace` that of the lambdas alone.

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

from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
import os
import queue
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError
from . import grid_kernel as gk
from . import operator as op
from . import stochastic as st
from .grid_kernel import MatrixKernel, TimeGrid, make_grid
from .stochastic import TestFunctional

__all__ = [
    "MCEstimate",
    "ScenarioReport",
    "resolve_scenario",
    "resolve_finite_dim",
    "verify_finite_dim",
    "verify_transf",
    "verify_inverse",
    "verify_surjective",
    "sweep_laplace",
    "surjective_scenario",
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
        d = {key: getattr(self, key) for key in ("mean", "std_error", "n_samples", "ci_valid")}
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


def _mc_paths(grid: TimeGrid, dim: int, n_paths: int, seed: int, stream_id: int,
              per_path, scale=1.0, ci_valid=True) -> MCEstimate | list[MCEstimate]:
    """Draw the chunks of n_paths Wiener paths (chunk idx from the Philox
    stream (seed, stream_id, idx)), map per_path over them on the pool and
    merge their moments in chunk order by the pairwise update of Chan, Golub
    and LeVeque.  The next chunk reuses the draw buffer, so per_path must not
    keep its batch past its return.

    per_path gives one value per path, merged into one MCEstimate, or a
    (rows, paths) array, merged row by row into a list of MCEstimates, one
    per row; scale and ci_valid then hold one entry per row (or one for all)."""
    elements = grid.n_steps * dim
    sizes = _chunk_sizes(n_paths, elements)
    # one draw buffer per thread, allocated here and reused by every chunk:
    # a chunk then allocates no batch of its own, and a side's memory does not
    # depend on how the threads interleave or which allocator arena serves them
    free = queue.SimpleQueue()
    for _ in range(min(WORKERS, len(sizes))):
        free.put(np.empty(sizes[0] * elements))

    def run(idx):
        buf = free.get()
        try:
            batch = st.sample_paths(grid, dim, sizes[idx], seed, stream=(stream_id, idx), out=buf)
            return _moments(np.asarray(per_path(batch), dtype=float))
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
        for attr, native in (("value", float), ("target", float), ("tol", float), ("passed", bool)):
            object.__setattr__(self, attr, native(getattr(self, attr)))

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
    verdict: str  # pass | fail | rejected-by-hypothesis | singular | error (cli)
    gate: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        d = {key: getattr(self, key) for key in ("name", "kind", "z_score", "rel_error",
                                                 "tolerance", "verdict", "gate", "spectra",
                                                 "provenance")}
        return dict(d, lhs=self.lhs.to_dict() if self.lhs else None,
                    rhs=self.rhs.to_dict() if self.rhs else None,
                    checks={k: c.to_dict() for k, c in self.checks.items()})

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


def _gate(report: ScenarioReport, lam_eta: float) -> str:
    """The moment guard of a gate eigenvalue, recorded with it in the report."""
    guard = st.moment_guard(lam_eta)
    report.gate = {"lambda_eta": float(lam_eta), "guard": guard}
    return guard


# ---------------------------------------------------------------------------
# finite-dimensional warm-up identity
# ---------------------------------------------------------------------------

_FINITE_DIM_FUNCTIONALS = {"one": lambda x: np.ones(x.shape[0]),
                           "cos_sum": lambda x: np.cos(x.sum(axis=1))}


def resolve_finite_dim(
    matrix, functional="cos_sum", n_samples: int = 200_000, seed: int = 0,
    tol: float = DEFAULT_TOL, name: str | None = None,
) -> tuple[np.ndarray, Callable, ScenarioReport]:
    """Check the arguments of `verify_finite_dim` before any work: (the matrix,
    the functional, the report it fills in).  Raises InvalidArgumentError."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InvalidArgumentError(f"matrix must be square and non-empty, got shape {a.shape}")
    _check_size(n_samples, tol)
    n = a.shape[0]
    f_name = "<callable>" if callable(functional) else str(functional)
    f = functional if callable(functional) else _FINITE_DIM_FUNCTIONALS.get(f_name)
    if f is None:
        raise InvalidArgumentError(f"unknown finite-dim functional {functional!r}")
    prov = {"matrix_shape": n, "n_samples": n_samples, "seed": seed, "functional": f_name}
    return a, f, ScenarioReport(name or f"finite_dim[n={n}]", "finite_dim", None, None, None,
                                None, tol, "undecided", provenance=prov)


def verify_finite_dim(
    matrix, functional="cos_sum", n_samples: int = 200_000, seed: int = 0,
    tol: float = DEFAULT_TOL, name: str | None = None,
) -> ScenarioReport:
    """Gaussian change of variables in R^n for x -> x + Ax with quadratic
    weight exp(<Bx,x>/2), B = -(A + A^T + A^T A), gated on lambda_max(B) < 1
    and guarded like the Wiener-space weights: no CI when 2 lambda_max(B) >= 1."""
    a, f, report = resolve_finite_dim(matrix, functional, n_samples, seed, tol, name)
    n = a.shape[0]
    b = -(a + a.T + a.T @ a)
    lam = float(np.linalg.eigvalsh(b)[-1])
    guard = _gate(report, lam)
    if guard == "reject":
        return _halted(report, "rejected-by-hypothesis")

    sign, logdet = np.linalg.slogdet(np.eye(n) + a)
    if sign == 0:
        return _halted(report, "singular")
    det_abs = float(np.exp(logdet))
    report.spectra = {"det_abs": det_abs}

    # unit steps make a path's increments the Philox N(0, I_n) draws themselves
    grid = TimeGrid(float(n), n)

    def lhs_fn(batch):
        x = batch.increments.reshape(batch.n_paths, n)
        y = x + x @ a.T
        quad = 0.5 * np.einsum("mi,mi->m", x @ b.T, x)
        return f(y) * np.exp(quad)

    def rhs_fn(batch):
        return f(batch.increments.reshape(batch.n_paths, n))

    rhs_stream = _STREAM_LHS if not np.any(a) else _STREAM_RHS
    lhs = _mc_paths(grid, 1, n_samples, seed, _STREAM_LHS, lhs_fn, det_abs, guard == "ok")
    return _identity(report, lhs, _mc_paths(grid, 1, n_samples, seed, rhs_stream, rhs_fn))


# ---------------------------------------------------------------------------
# the Wiener-space scenarios
# ---------------------------------------------------------------------------

_SYMMETRIC_KINDS = ("surjective", "integrability")  # their kernel is a quadratic form's


@dataclass(frozen=True)
class Side:
    """One side of an identity, e^{log_scale} E[f(w') e^{c q(w)}]: w' the image
    of the path w under the transformation of kernel (under the linear
    transformation of phi = kernel when linear; w itself when kernel is None),
    q the per-path exponent (none: e^0).  Sides that share an exponent object
    evaluate it once per chunk.  ci_valid is False when the moment guard says
    the second moment is infinite."""

    log_scale: float = 0.0
    exponent: Callable | None = None
    c: float = 1.0
    kernel: MatrixKernel | None = None
    linear: bool = False
    ci_valid: bool = True


_ONE = TestFunctional("one")  # the functional of a side that is a weight's mass


# what `Scenario.factor` reads from the gate eigensolve and the LU of I + B_kappa
_Factored = namedtuple("_Factored", "eta gate guard det2 kappa_hat")


@dataclass
class Scenario:
    """A Wiener-space scenario's checked arguments and the report it fills in."""

    grid: TimeGrid
    kernel: MatrixKernel
    f: TestFunctional | None
    n_paths: int
    seed: int
    report: ScenarioReport

    def factor(self, kappa: MatrixKernel, inverse: bool = False) -> _Factored | None:
        """The prologue of transf, inverse and cameron_martin: the eta kernel of
        kappa, the gate spectrum of B_eta (one eigensolve) and its guard, then
        one LU of I + B_kappa for det2 and, when inverse, the inverse kernel;
        gate and spectra go into the report.  None when the scenario halts,
        its verdict then 'rejected-by-hypothesis' at the gate or 'singular'
        at a vanishing det2."""
        eta = gk.eta_of_kappa(kappa)
        gate = op.spectrum(eta)
        guard = _gate(self.report, gate.lambda_max)
        if guard == "reject":
            _halted(self.report, "rejected-by-hypothesis")
            return None
        lu = op.factor_identity_plus(kappa)
        d2 = lu.det2
        # det2, the HS norm and the trace of B_kappa, read from the kernel without
        # assembling the operator: the trace is the quadrature of the diagonal
        self.report.spectra = {
            "det2_sign": d2.sign,
            "det2_log_modulus": d2.log_modulus if np.isfinite(d2.log_modulus) else None,
            "hs_norm": gk.kernel_l2_norm(kappa),
            "trace": op.trace(kappa),
            "lambda_eta": gate.lambda_max,
        }
        if d2.singular:
            _halted(self.report, "singular")
            return None
        # the LU is as large as the operator, so only what is read from it is kept
        return _Factored(eta, gate, guard, d2,
                         op.inverse_kernel_from(lu, kappa) if inverse else None)

    def estimate(self, stream_id: int, sides, f: TestFunctional) -> list[MCEstimate]:
        """The estimate of each side, f read along its image, in one pass over
        the paths of the stream: each distinct image (its node weights built
        once, before any chunk) and each distinct exponent are evaluated once
        per chunk.  Exact when no side has an exponent and f is constant one."""
        if f.is_constant_one and all(side.exponent is None for side in sides):
            return [exact_estimate(np.exp(side.log_scale)) for side in sides]
        node = f.node(self.grid)
        images = {(id(side.kernel), side.linear): side for side in sides}
        weights = {image: None if side.kernel is None or node is None
                   else st.node_weights(side.kernel, node, side.linear)
                   for image, side in images.items()}
        exponents = {id(e): e for e in (side.exponent for side in sides) if e is not None}

        def per_path(batch):
            f_at = {image: f.evaluate(batch) if w is None else f.at_node(st.node_value(batch, w))
                    for image, w in weights.items()}
            q = {key: exponent(batch) for key, exponent in exponents.items()}
            return [f_at[id(side.kernel), side.linear] if side.exponent is None
                    else f_at[id(side.kernel), side.linear] * np.exp(side.c * q[id(side.exponent)])
                    for side in sides]

        return _mc_paths(self.grid, self.kernel.dim, self.n_paths, self.seed, stream_id,
                         per_path, [np.exp(side.log_scale) for side in sides],
                         [side.ci_valid for side in sides])

    def identity(self, rows) -> list[ScenarioReport]:
        """Estimate the left-hand sides of rows of (report, lhs, rhs) in one
        pass and their right-hand sides in another, then compare each row's two
        sides and decide its report."""
        reports, lhs, rhs = zip(*rows)
        # a zero scenario kernel degenerates both sides to the same statistic
        # of one batch; sharing the stream then makes the discrepancy exactly zero
        stream = _STREAM_RHS if np.any(self.kernel.matrix) else _STREAM_LHS
        return [_identity(*row) for row in zip(reports, self.estimate(_STREAM_LHS, lhs, self.f),
                                               self.estimate(stream, rhs, self.f))]


def resolve_scenario(
    kind: str, kernel=None, functional=None, grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None, lam: float | None = None, x=None, lambdas=None,
) -> Scenario:
    """Check and resolve the arguments of a Wiener-space scenario of the given
    kind before any work: the Monte Carlo size and tolerance, the harmonic
    lambda (>= 0) and direction x (of the kernel's dimension), the surjective
    lambdas (finite), the kernel spec (symmetric for surjective and
    integrability; None only for gencv's own counterexample at its default
    b1, b2) and the functional (None for a scenario without one; a cos_mid
    tau in [0, T]).  Every scenario starts here, and a config is validated
    by calling it on each scenario's grid with the arguments the scenario
    runs with.  Raises InvalidArgumentError."""
    _check_size(n_paths, tol)
    if lam is not None and not (np.isfinite(lam) and lam >= 0):
        raise InvalidArgumentError(f"lambda must be a finite real >= 0, got {lam}")
    if lambdas is not None and not np.all(np.isfinite(lambdas)):
        raise InvalidArgumentError(f"lambdas must be finite reals, got {list(lambdas)}")
    if kernel is None:
        if kind != "gencv":
            raise InvalidArgumentError(f"{kind} needs a kernel")
        kernel = "remark_gencv:b1=-2,b2=-3"
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
    if f is not None:
        f.node(grid)  # a cos_mid tau outside [0, T] is rejected here, before any work
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
    kappa, p = s.kernel, s.factor(s.kernel)
    if p is None:
        return s.report
    lhs = Side(p.det2.log_modulus, partial(st.quadratic_form, p.eta), kernel=kappa,
               ci_valid=p.guard == "ok")
    return s.identity([(s.report, lhs, Side(0.5 * gk.kernel_l2_norm(kappa) ** 2))])[0]


def verify_inverse(
    kernel, functional="cos_end:1.0", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    n_probe: int = 1000, name: str | None = None,
) -> ScenarioReport:
    """Inverse-transformation identity, the pathwise round trip, and the unit
    mass of the Radon-Nikodym weight of the transformed measure."""
    s = resolve_scenario("inverse", kernel, functional, grid, dim, n_paths, seed, tol, name)
    kappa, report, p = s.kernel, s.report, s.factor(s.kernel, inverse=True)
    if p is None:
        return report
    kappa_hat = p.kappa_hat

    # pathwise round trip: both composition orders return the increments, one
    # order at a time, so that one transformed probe batch is alive, not two
    probe = st.sample_paths(s.grid, kappa.dim, n_probe, seed, stream=(_STREAM_PROBE, 0))
    scale = max(1.0, float(np.max(np.abs(probe.increments))))
    err = max(float(np.max(np.abs(
        st.apply_transformation(outer, st.apply_transformation(inner, probe)).increments
        - probe.increments))) for inner, outer in ((kappa_hat, kappa), (kappa, kappa_hat)))
    report.checks["composition_roundtrip"] = _check_close(
        err / scale, 0.0, OPERATOR_TOL, relative=False,
        note="max increment deviation / path scale over both orders",
    )

    # Radon-Nikodym mass of the image measure.  On the grid
    # I - M_eta_hat = ((I+M)(I+M)^T)^{-1} has the spectrum 1 / (1 - w), w over
    # the gate spectrum, so its gate is 1 - 1 / (1 - lambda_min(B_eta)).  The
    # weight's det2 takes its own LU, so the mass checks it independently.
    eta_hat = gk.eta_of_kappa(kappa_hat)
    guard_hat = st.moment_guard(1.0 - 1.0 / (1.0 - p.gate.lambda_min))
    d2_hat = op.det2(kappa_hat)
    rn = s.estimate(_STREAM_RN, [Side(d2_hat.log_modulus - 0.5 * gk.kernel_l2_norm(kappa_hat) ** 2,
                                      partial(st.quadratic_form, eta_hat),
                                      ci_valid=guard_hat == "ok")], _ONE)[0]
    _, _, rn_ok = _compare(rn, exact_estimate(1.0), tol)
    report.checks["rn_normalization"] = Check(
        rn.mean, 1.0, tol, rn_ok,
        f"Radon-Nikodym weight mass (guard {guard_hat})",
    )

    lhs = Side(p.det2.log_modulus, partial(st.quadratic_form, p.eta), ci_valid=p.guard == "ok")
    rhs = Side(0.5 * gk.kernel_l2_norm(kappa) ** 2, kernel=kappa_hat)
    return s.identity([(report, lhs, rhs)])[0]


def surjective_scenario(
    kernel, functional="one", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None, lambdas=None, own: bool = True,
) -> list[ScenarioReport]:
    """The reports of a surjective scenario: its own identity (when own),
    then its Laplace sweep, the identity of each lambda * eta (q scales
    linearly in the kernel).  They form one family of factors c (1, then the
    lambdas): one eigensolve of B_eta and one Monte Carlo pass per side, on
    the same paths for every factor, with one row per factor its gate admits.
    Every factor keeps its own gate and its own independent checks."""
    s = resolve_scenario("surjective", kernel, functional, grid, dim, n_paths, seed, tol, name,
                         lambdas=lambdas)
    prov = s.report.provenance
    lambdas = [] if lambdas is None else [float(c) for c in lambdas]
    factors = ([1.0] if own else []) + lambdas
    reports = ([s.report] if own else []) + [
        ScenarioReport(f"laplace[{prov['kernel']}, lambda={c:g}]", "surjective", None, None,
                       None, None, tol, "undecided", provenance={**prov, "lambda": c})
        for c in lambdas
    ]
    eta = s.kernel
    eig = op.spectrum(eta, vectors=True)
    eta_norm = gk.kernel_l2_norm(eta)
    q, rows = partial(st.quadratic_form, eta), []  # q of c eta is c q
    for c, report in zip(factors, reports):
        scaled = eig.scaled(c)  # the spectrum of c B_eta
        lam = scaled.lambda_max
        guard = _gate(report, lam)
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
            MatrixKernel(s.grid, eta.dim, gk.eta_of_kappa(kappa).matrix - c * eta.matrix)
        )
        report.checks["eta_roundtrip"] = _check_close(
            round_err, 0.0, OPERATOR_TOL * max(abs(c) * eta_norm, 1.0), relative=False,
            note="||eta(kappa_s(eta)) - eta||_2",
        )
        del kappa  # as large as the operator
        # the right-hand side transforms the paths only when f is not constant
        image = None if s.f.is_constant_one else scaled.inverse_sqrt_kernel()
        rows.append((report, Side(exponent=q, c=c, ci_valid=guard == "ok"),
                     Side(-0.5 * d2_eta.log_modulus, kernel=image)))
    eig = scaled = None  # the eigenvectors are as large as the operator
    if rows:
        s.identity(rows)
    return reports


def verify_surjective(
    eta_kernel, functional="one", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None,
) -> ScenarioReport:
    """Realize a symmetric kernel's quadratic form by the square-root
    transformation and compare E[f e^{q_eta}] with det2(I-B_eta)^{-1/2} times
    the expectation along the inverse transformation."""
    return surjective_scenario(eta_kernel, functional, grid, dim, n_paths, seed, tol, name)[0]


def sweep_laplace(
    eta_kernel, lambdas, functional="one", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 50_000, seed: int = 0, tol: float = DEFAULT_TOL,
) -> list[ScenarioReport]:
    """Laplace-transform sweep: the surjective identity applied to each
    lambda * eta, without the identity of eta itself; see `surjective_scenario`."""
    return surjective_scenario(eta_kernel, functional, grid, dim, n_paths, seed, tol,
                               lambdas=lambdas, own=False)


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
    rhs = Side(-0.5 * logdet_c,
               kernel=None if s.f.is_constant_one else eig.inverse_sqrt_kernel())
    del eig  # the eigenvectors are as large as the operator
    lhs = Side(exponent=partial(st.h_functionals, kappa_l, x=x), c=-1.0)
    return s.identity([(report, lhs, rhs)])[0]


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
    p = s.factor(kappa_phi)
    if p is None:
        return report

    m = op.assemble(kappa_phi)  # the checks' matrix, not the hot path's
    tr = float(np.trace(m))
    # the trace from phi itself, not from kappa_phi: the diagonal kappa_phi(t_i, t_i)
    # is the tail sum of phi(t_i, t_k) Delta over k >= i, so tr B_kappa_phi is the
    # exponent's trace correction (the k > i terms) plus Delta^2 sum_i tr phi(t_i, t_i)
    phi_diagonal = float(np.einsum("iaa->", phi.diagonal_blocks())) * grid.step ** 2
    report.checks["trace_formula"] = _check_close(
        tr, st.cm_trace_correction(phi) + phi_diagonal, 1e-12,
        note="matrix trace of B_kappa_phi against the tail sums of phi",
    )
    sign_d, logdet_d = np.linalg.slogdet(np.eye(m.shape[0]) + m)
    report.checks["det2_consistency"] = _check_close(
        logdet_d - tr, p.det2.log_modulus, 1e-10,
        note="log det(I+B) - tr B against log det2(I+B)",
    )
    report.spectra["det_log"] = float(p.det2.log_modulus + tr)

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

    lhs = Side(p.det2.log_modulus + tr, lambda batch: st.cm_exponent(phi, batch)[0],
               kernel=phi, linear=True, ci_valid=p.guard == "ok")
    return s.identity([(report, lhs, Side())])[0]


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
    guard = _gate(report, lam)
    if guard == "reject":
        return _halted(report, "rejected-by-hypothesis")
    hs_norm = gk.kernel_l2_norm(eta)
    bound = integrability_bound(lam, hs_norm)

    if exact_value is None and isinstance(eta_kernel, str):
        kernel_name, params = gk.parse_kernel_spec(eta_kernel)
        if kernel_name == "rank1":
            exact_value = rank1_exp_q_moment(float(params["b"]))

    est = s.estimate(_STREAM_LHS, [Side(exponent=partial(st.quadratic_form, eta),
                                        ci_valid=guard == "ok")], _ONE)[0]
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
