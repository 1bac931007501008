"""Named end-to-end verifications of the change-of-variables identities.

Every scenario follows the same contract: assemble the kernels, evaluate the
hypothesis gate (top eigenvalue of the symmetric exponent kernel), and only
then estimate the two sides of the identity.  The paper's change-of-variables
formulas put the exponent on one side only, so every identity here is one
Monte Carlo side, the one with the exponent, on the left, against one closed
form on the right: the z-score of the comparison has a clean null.  The
verdict is "pass" when the discrepancy is below max(tolerance, 3 standard
errors of the left side) and every embedded operator-level check holds.

Sides as data.  A transformation of order one turns its change of variables
into a quadratic-form exponent, so every side below, finite_dim's too, is a
`Side`: e^{log_scale} E[f(w') e^{c q(w)}], w' the image of the path w under
the transformation of a kernel (w itself without one) and q a per-path
exponent (none on a right-hand side: 1).  `Scenario.estimate` runs the
left-hand sides, each with an exponent, as one Monte Carlo pass that
evaluates each distinct image and each distinct exponent once per block, so
a lambda family evaluates q once and each row reads c q.  The exponent is a
`stochastic.Exponent` record (q, h or psi, its kernel and direction) with
the exact grid mean of its full quadratic form, the control variate of every
left-hand side with a confidence interval: the estimate is
y - beta (x - mean), beta = C_yx / C_xx, and its report's control_mean
check (CONTROL_Z standard errors) catches a fault the control would absorb.
`Scenario.exact`
reads a right-hand side in closed form and draws no path: f reads the image
at one node, a linear image of the Gaussian increments, and
`TestFunctional.mean` of its covariance is E[f].  `Scenario.identity` runs
the left-hand sides of rows of (report, lhs, rhs) and the pathwise checks in
one pass, reads each right-hand side exactly and checks each report's
identity.

One stream per (grid, seed), one pass per group.  Each kind's body
(`_BODIES`) is a generator that yields once, through `Scenario.identity`:
its prologue runs up to its Monte Carlo pass, which it yields as one list of
`_Request`s on the stream key (grid, seed, _STREAM_LHS), each reading the
first n_paths paths and dim components of that stream, and its reports are
decided from the results sent back.  The list holds the left-hand sides'
estimate and one request per pathwise check (`Scenario.probe`): the checks
test algebraic identities that hold path by path, so any Gaussian paths
serve them, and they read the first PROBE_PATHS left-hand paths.  A stream is one
prefix-closed draw, so `drive` runs the requests of one key, whatever runs
yield them, as one `_mc_paths` pass, which draws each component once, for
the most paths a request reads of it: each request's rows are reduced as in
a pass of its own, and a request that raises halts its own run alone.
`cli` drives one (grid, seed) group at a time, so a group is one pass and
one group's prologues are alive at once: demo.cfg's seven scenarios at
N = 256, one at 100,000 paths and one at d = 2, inverse's Radon-Nikodym mass
and round trip among them, share one draw.  Each public verify_* drives its
scenario alone, in one pass.

Five kinds start at `Scenario.factor`, the gate and det2 prologue: transf,
inverse, cameron_martin, gencv and finite_dim (A on n unit steps, where
eta(A) is B).  `_gate` writes every gate and halts the reports it rejects.
harmonic asks `operator` for its determinants by the kernel's form.
det(I + lam B_c): of a LowerExp kernel with no direction, a Riccati
recursion per rate, with no matrix, whatever f; of a LowRank one, the
spectrum of the c kernel's order-r form; otherwise the dense eigensolve.
det(I + lam B^T B): the closed form per rate of a LowerExp kernel,
Sylvester's determinant of a LowRank one, the dense slogdet otherwise.

Identities covered (f ranges over the bounded functional family):

    finite_dim    |det(I+A)| E[f(x+Ax) e^{<Bx,x>/2}] = E[f],  B = -(A+A^T+A^T A)
    transf        |det2(I+B_k)| E[f(w+F_k(w)) e^{q(w)}] = e^{||k||^2/2} E[f]
    inverse       |det2(I+B_k)| E[f e^{q}] = e^{||k||^2/2} E[f(w+F_khat(w))]
                  plus the pathwise round trip and the unit mass of the
                  Radon-Nikodym weight |det2(I+B_khat)| e^{-||khat||^2/2} e^{qhat}
    surjective    E[f e^{q_eta}] = det2(I-B_eta)^{-1/2} E[f(w+F_khat_s(w))]
    harmonic      E[f e^{-h}] = det(I+C)^{-1/2} E[f(w+F_chat(w))], trace-class C
    cameron_martin|det(I+B_kphi)| E[f(w+G_phi(w)) e^{Psi}] = E[f],  G_phi = F_kphi:
                  the transformation of order one of kphi, exact on the grid
    gencv         the spectral counterexample (lambda_s > 2 yet gate < 1)
    integrability surjective with f = 1, E[e^{q_eta}] = det2(I-B_eta)^{-1/2} for
                  any symmetric eta, plus E[e^{q_eta}] below the exponential bound

When the guard reports an infinite second moment (2 lambda >= 1) the scenario
never fabricates a confidence interval: it downgrades to a consistency verdict
that compares the median of fixed sub-batch means against the target at a
widened tolerance.

A lambda family, the surjective identity of lambda * eta for several lambda,
is one Monte Carlo pass: one eigensolve of B_eta gives each factor's gate,
det2 and kernels, and the left-hand side draws its paths once, with one row
of values per factor the gate admits, merged row by row (common random
numbers); each right-hand side is exact.  A
surjective scenario's own identity (factor 1) and its Laplace sweep (its
lambdas) form one family (`surjective_scenario`); `verify_surjective` is the
family of factor 1 alone and `sweep_laplace` that of the lambdas alone;
`verify_integrability_bound` is that of factor 1 with f = 1, plus its bound.

Chunk plan.  A stream on a grid of N steps runs in chunks of
cap = CHUNK_ELEMENTS // N paths, whatever its dimension and path count: n
paths are ceil(n / cap) chunks, each full but the last (`_chunk_sizes`), so
the chunks of n paths are those of any larger count, cut at n.  Component 0
of chunk idx draws its paths from the SFC64 generator seeded by
SeedSequence([seed, stream, idx, N]) and component a >= 1 from
SeedSequence([seed, stream, idx, N, a]) (`_stream_chunks`): grids of other N
draw other normals, and a reader of n paths and d components reads the first
n paths and d components of the stream, the bits of a pass of its own.
CHUNK_ELEMENTS is no memory cap: it fixes how many paths share one generator
key and one sub-batch mean of the median fallback (a short last chunk joins
the one before it), so changing it moves every number.  Each chunk builds its
own generators from their keys and none is ever advanced or jumped, so no
counter feature is needed and the fastest of numpy's generators serves.
`_mc_paths` owns the block plan: a chunk is drawn in successive blocks of
max(1, PATH_BLOCK // N) paths into one small buffer
(`stochastic.path_blocks`, the bits of one draw), and each request on the
stream reads its own paths and components of each block as one contiguous
batch, one request after the other, so their intermediates stay in cache
and no product inside a chunk is large enough for BLAS to spread over
threads of its own that would compete with the chunk threads.  Each chunk
returns, per request, its reduction of its blocks' values: the count, means
and co-moment matrix of an estimate's rows and their controls, each block's
folded in block order, the means carried as rounded values plus a
correction, merged in chunk order by the pairwise update of Chan, Golub and
LeVeque with its cross terms, which does not cancel the way
sum x^2 - n mean^2 does, so no chunk's values are kept; or the running max
of a pathwise check.  The
chunks run on WORKERS = usable cores threads (numpy's SFC64 fill, its ufuncs
and BLAS release the GIL), so at most WORKERS x PATH_BLOCK x d increments
are in flight; a pass of one chunk runs in the calling thread.  The chunk and
block sizes do not depend on the machine and the merge order is fixed, so
every report is bit-for-bit the same whatever the worker count.
Transformed paths are read at the functional's node alone (see `stochastic`),
so no side forms a transformed batch.  Every draw follows the block plan, so
no run forms a (paths, N d) batch, the PROBE_PATHS paths of a pathwise check
included.
"""

from __future__ import annotations

from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
import copy
from dataclasses import dataclass, field
from functools import partial, reduce
import os
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
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
    "drive",
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
    "integrability_bound",
    "CSV_HEADER",
    "DEFAULT_TOL",
    "OPERATOR_TOL",
]

DEFAULT_TOL = 0.02       # relative tolerance absorbing O(Delta) discretization bias
OPERATOR_TOL = 1e-8      # operator-only assertions
CONSISTENCY_FACTOR = 5.0  # widened tolerance for CI-less (median) comparisons
CONTROL_Z = 5.0  # control_mean's bound in standard errors: 6e-7 false failures per check
CHUNK_ELEMENTS = 1 << 22  # per component: N x the paths of a chunk, one generator key
PATH_BLOCK = 1 << 16  # per component: N x the rows of a block drawn and reduced at once
PROBE_PATHS = 1000  # paths of inverse's and cameron_martin's pathwise checks, drawn in blocks
GENCV_B = (-2.0, -3.0)  # gencv's own counterexample: its default b1, b2


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# threads that run chunks; reports do not depend on it
WORKERS = _usable_cores()

# the stream id of every pass, part of every generator key, so it keeps its value
_STREAM_LHS = 0

# a side past the float range is inf or nan and fails its comparison, unwarned
_PAST_RANGE = dict(over="ignore", invalid="ignore")


# ---------------------------------------------------------------------------
# estimates, comparisons, reports
# ---------------------------------------------------------------------------

class Control(NamedTuple):
    """The control of a controlled estimate: the sample mean of its full
    form, that form's exact grid mean, the coefficient beta (in the units of
    the estimate) and z = |mean - exact| / the standard error of the mean."""

    mean: float
    exact: float
    beta: float
    z: float


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error (absent when the guard says
    the second moment is infinite) and the fixed sub-batch means used for the
    CI-less consistency fallback.  A controlled estimate carries its
    `Control`: its mean and error are then those of y - beta (x - exact), x
    the control.  A closed-form side is carried as one of no path and no
    error (`Scenario.exact`), which has no median."""

    mean: float
    std_error: float | None
    n_samples: int
    ci_valid: bool
    chunk_means: tuple = ()
    control: Control | None = None

    @property
    def median(self) -> float:
        return float(np.median(self.chunk_means))

    def to_dict(self) -> dict:
        d = {key: getattr(self, key) for key in ("mean", "std_error", "n_samples", "ci_valid")}
        if not self.ci_valid:
            d["median_of_batches"] = self.median
        if self.control:
            d.update(control_mean=self.control.mean, control_exact=self.control.exact,
                     control_beta=self.control.beta)
        return d


def _chunk_sizes(n_paths: int, n_steps: int) -> list[int]:
    """The paths of each chunk of the first n_paths paths of a stream on a
    grid of n_steps steps: ceil(n / cap) chunks, each of cap =
    CHUNK_ELEMENTS // n_steps paths but the last."""
    cap = max(1, CHUNK_ELEMENTS // n_steps)
    return [cap] * (n_paths // cap) + [n_paths % cap] * (n_paths % cap > 0)


def _stream_chunks(grid: TimeGrid, seed: int, stream_id: int, counts) -> list[Callable]:
    """The chunk plan of the stream (seed, stream_id) on grid, drawn for
    counts[a] paths of each component a (non-increasing): per chunk idx, a
    callable that draws its blocks of max(1, PATH_BLOCK // N) paths, component
    a >= 1 keyed [seed, stream_id, idx, N, a] and 0 [seed, stream_id, idx, N]."""
    sizes, chunks, n = [_chunk_sizes(count, grid.n_steps) for count in counts], [], grid.n_steps
    for idx in range(len(sizes[0])):
        per = tuple(s[idx] for s in sizes if idx < len(s))
        chunks.append(partial(st.path_blocks, grid, len(per), per, seed, stream=(stream_id, idx, n),
                              rows=max(1, PATH_BLOCK // n)))
    return chunks


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
    """(count, mean, correction, co-moments) of one chunk, per row of vals
    (one row when vals is 1-D).  The chunk mean is mean + correction: the
    rounded mean plus the mean deviation from it, so that the merge sees
    mean differences between chunks to full precision even when the values
    share a large offset.  The co-moments are the sums of products of
    deviations from the chunk means, one (rows, rows) matrix, summed by
    einsum's own loop: a BLAS product would start threads of its own inside
    the chunk threads."""
    vals = np.atleast_2d(vals)
    n = vals.shape[-1]
    mean = np.add.reduce(vals, axis=-1) / n
    dev = vals - mean[:, None]
    corr = np.add.reduce(dev, axis=-1) / n
    co = np.einsum("rn,sn->rs", dev, dev)
    co -= n * np.multiply.outer(corr, corr)
    return n, mean, corr, co


# a pending pass: its stream key (grid, seed, stream_id), the paths and
# components it reads, its values per block, their reduction per block, the
# fold of two reductions (blocks in order make a chunk's) and the merge, in
# chunk order, of the chunks' reductions
_Request = namedtuple("_Request", "key n_paths dim per_path reduce fold merge")


@np.errstate(**_PAST_RANGE)
def _mc_paths(key: tuple, requests) -> list:
    """One pass over the stream of key = (grid, seed, stream_id) for every
    `_Request`, each reading the first n_paths paths and dim components of
    the stream: each component is drawn once, for the most paths a request
    reads of it, in the chunks of `_stream_chunks`, and the chunks are mapped
    on the pool.  Each request's per_path runs on its own paths and
    components of each block, as the contiguous batch of a pass of its own,
    and gives a (rows, paths) array; the request reduces each block's values,
    folds a chunk's blocks in order and merges the chunks in chunk order, so
    no chunk's values are kept.  The next block is drawn into the same
    buffer, so per_path must not keep its batch.

    Per request, its merge, or the first exception its per_path raised (a
    failed draw's is every request's).  Each chunk runs under `_PAST_RANGE`:
    a value past the float range stays inf or nan."""
    grid, seed, stream_id = key
    reads = [_chunk_sizes(request.n_paths, grid.n_steps) for request in requests]
    counts = [max(request.n_paths for request in requests if request.dim > a)
              for a in range(max(request.dim for request in requests))]
    chunks = _stream_chunks(grid, seed, stream_id, counts)

    def run(idx):
        with np.errstate(**_PAST_RANGE):  # per thread: the caller's misses the pool's
            # per request, its blocks' reductions, the exception it raised, or
            # None: it reads no path here
            vals = [[] if idx < len(sizes) else None for sizes in reads]
            start = 0
            for batch in chunks[idx]():
                heads = {}  # the requests of one (paths, dim) read one batch
                for r, request in enumerate(requests):
                    if not isinstance(vals[r], list) or reads[r][idx] <= start:
                        continue
                    read = min(batch.n_paths, reads[r][idx] - start), request.dim
                    head = heads.get(read) or heads.setdefault(read, batch.head(*read))
                    try:
                        vals[r].append(request.reduce(np.asarray(request.per_path(head),
                                                                 dtype=float)))
                    except Exception as exc:  # this request's alone: the others go on
                        vals[r] = exc
                start += batch.n_paths
            return [reduce(request.fold, v) if isinstance(v, list) else v
                    for request, v in zip(requests, vals)]

    try:
        parts = _map_chunks(run, len(chunks))
    except Exception as exc:  # the draw failed: every request's pass did, each its own copy
        return [exc] + [copy.copy(exc).with_traceback(exc.__traceback__) for _ in requests[1:]]
    out = []
    for r, request in enumerate(requests):
        mine = [part[r] for part in parts[:len(reads[r])]]
        failed = [part for part in mine if isinstance(part, Exception)]
        out.append(failed[0] if failed else request.merge(mine))
    return out


def _chan(a: tuple, b: tuple) -> tuple:
    """The moments of chunks a and b together, a's rounded mean kept (Chan,
    Golub and LeVeque, with the cross terms of the co-moments); not in
    place, as a's arrays are read again."""
    (count, mean, corr, co), (n_b, mean_b, corr_b, co_b) = a, b
    total = count + n_b
    delta = (mean_b - mean) + (corr_b - corr)
    return (total, mean, corr + delta * n_b / total,
            co + (co_b + np.multiply.outer(delta, delta * (count * n_b / total))))


def _merged(parts, scale, ci_valid, controls=None) -> list[MCEstimate]:
    """The MCEstimates of a request's chunk moments, parts in chunk order:
    one per row, or per entry of controls, which names each estimated row's
    control as (its row, its exact mean), or None.  A row with a confidence
    interval, at least 3 samples and a control of nonzero variance is
    controlled: y - beta (x - exact) with beta = C_yx / C_xx, and the
    residual standard error on n - 2 degrees of freedom.  Its sub-batch
    means stay plain."""
    count, mean, corr, co = reduce(_chan, parts)
    # a short last chunk joins the one before it: every sub-batch mean of the
    # median fallback holds at least a full chunk's paths
    short = len(parts) > 1 and parts[-1][0] < parts[0][0]
    batches = parts[:-2] + [_chan(*parts[-2:])] if short else parts
    controls = [None] * len(mean) if controls is None else controls
    scale = np.broadcast_to(scale, len(controls))
    # fewer than two samples have no spread to estimate, so no confidence interval
    ci_valid = np.broadcast_to(np.logical_and(ci_valid, count > 1), len(controls))
    out = []
    for r, control in enumerate(controls):
        value, var, cv = mean[r] + corr[r], co[r, r] / max(count - 1, 1), None
        k, exact = control or (None, None)
        if k is not None and ci_valid[r] and count > 2 and co[k, k] > 0:
            beta, gap = co[r, k] / co[k, k], (mean[k] - exact) + corr[k]
            value -= beta * gap
            var = (co[r, r] - beta * co[r, k]) / (count - 2)
            cv = Control(float(mean[k] + corr[k]), float(exact), float(scale[r] * beta),
                         float(abs(gap) / np.sqrt(co[k, k] / (count - 1) / count)))
        se = np.sqrt(max(var, 0.0) / count)
        out.append(MCEstimate(float(scale[r] * value),
                              float(scale[r] * se) if ci_valid[r] else None, count,
                              bool(ci_valid[r]),
                              tuple(float(scale[r] * (p[1][r] + p[2][r])) for p in batches), cv))
    return out


def drive(runs) -> list:
    """Run each generator of runs (a `Scenario.run`), which yields lists of
    `_Request`s and is sent back their results, to its end.  The pending
    requests of one stream key, whatever runs yield them, run as one
    `_mc_paths` pass; a run is sent its results in its order, or thrown the
    first exception among them, alone.  Per run: its return value, or the
    exception that halted it."""
    results, sent = [None] * len(runs), dict.fromkeys(range(len(runs)))
    while sent:
        pending = {}  # per run, the requests it yielded
        for i, value in sent.items():
            try:
                pending[i] = (runs[i].throw if isinstance(value, Exception)
                              else runs[i].send)(value)
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as exc:
                results[i] = exc
        requests, done = [r for mine in pending.values() for r in mine], {}
        for key in dict.fromkeys(request.key for request in requests):
            members = [request for request in requests if request.key == key]
            done.update(zip(map(id, members), _mc_paths(key, members)))
        got = {i: [done[id(request)] for request in mine] for i, mine in pending.items()}
        sent = {i: next((v for v in values if isinstance(v, Exception)), values)
                for i, values in got.items()}
    return results


def _alone(s: Scenario) -> list[ScenarioReport]:
    """The reports of s, run alone under `drive`; the exception that halted it
    is raised."""
    (result,) = drive([s.run()])
    if isinstance(result, Exception):
        raise result
    return result


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
            fmt(self.lhs.std_error if self.lhs else None),
            fmt(self.z_score),
            self.verdict,
            fmt(self.gate.get("lambda_eta")),
            fmt(self.spectra.get("det2_log_modulus")),
            str(self.provenance.get("seed", "")),
        ]


CSV_HEADER = ["name", "lhs", "rhs", "se", "z", "verdict", "lambda_eta", "det2_log", "seed"]


def _compare(mc: MCEstimate, exact: float, tol: float):
    """(z, rel_error, main_pass) of a Monte Carlo estimate against an exact
    value under the max(tol, 3 sigma) rule; its median at a widened
    tolerance when it is CI-less."""
    scale = max(abs(exact), 1e-300)
    if mc.ci_valid:
        diff, se = abs(mc.mean - exact), mc.std_error
        z = diff / se if se > 0 else (0.0 if diff == 0.0 else float("inf"))
        return z, diff / scale, diff <= max(tol * scale, 3.0 * se)
    diff = abs(mc.median - exact)
    return None, diff / scale, diff <= CONSISTENCY_FACTOR * tol * scale


def _control_check(est: MCEstimate) -> Check:
    """The control of a controlled estimate against its exact grid mean: its
    z, within CONTROL_Z.  A fault in the exponent that the control variate
    would absorb into the estimate shows here."""
    return Check(est.control.z, 0.0, CONTROL_Z, est.control.z <= CONTROL_Z,
                 "z of the control's sample mean against its exact grid mean")


def _gate(report: ScenarioReport, lam_eta: float) -> str | None:
    """The moment guard of a gate eigenvalue, recorded with it in the report;
    None, the report halted at 'rejected-by-hypothesis', when it rejects."""
    guard = st.moment_guard(lam_eta)
    report.gate = {"lambda_eta": float(lam_eta), "guard": guard}
    if guard == "reject":
        report.verdict = "rejected-by-hypothesis"
        return None
    return guard


# ---------------------------------------------------------------------------
# finite-dimensional warm-up identity
# ---------------------------------------------------------------------------

_FINITE_DIM_FUNCTIONALS = {"one": "one", "cos_sum": "cos_end:1"}


def resolve_finite_dim(
    matrix, functional="cos_sum", n_samples: int = 200_000, seed: int = 0,
    tol: float = DEFAULT_TOL, name: str | None = None,
) -> Scenario:
    """Check the arguments of `verify_finite_dim` before any work: the
    Scenario of the kernel A on n unit steps (Delta = 1), whose transformation
    is x -> x + Ax, and 'cos_sum' is cos_end:1 read on that image; the rest,
    the report included, is `resolve_scenario`'s.  Raises InvalidArgumentError."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InvalidArgumentError(f"matrix must be square and non-empty, got shape {a.shape}")
    n, f_name = a.shape[0], str(functional)
    if f_name not in _FINITE_DIM_FUNCTIONALS:
        raise InvalidArgumentError(f"unknown finite-dim functional {functional!r}")
    # unit steps make a path's increments the N(0, I_n) draws themselves
    grid = TimeGrid(float(n), n)
    return resolve_scenario("finite_dim", gk.kernel_from_values(grid, a),
                            _FINITE_DIM_FUNCTIONALS[f_name], grid, 1, n_samples, seed, tol,
                            name or f"finite_dim[n={n}]")


def verify_finite_dim(
    matrix, functional="cos_sum", n_samples: int = 200_000, seed: int = 0,
    tol: float = DEFAULT_TOL, name: str | None = None,
) -> ScenarioReport:
    """Gaussian change of variables in R^n for x -> x + Ax with quadratic
    weight exp(<Bx,x>/2), B = -(A + A^T + A^T A), gated on lambda_max(B) < 1
    and guarded like the Wiener-space weights: no CI when 2 lambda_max(B) >= 1."""
    return _alone(resolve_finite_dim(matrix, functional, n_samples, seed, tol, name))[0]


def _finite_dim(s: Scenario):
    p = s.factor(s.kernel)
    if p is None:
        return
    # on unit steps B is eta(A), so <Bx, x> / 2 is the Ramer exponent of A,
    # and |det(I + A)| = |det2(I + A)| e^{tr A}
    logdet = p.det2.log_modulus + s.report.spectra["trace"]
    s.report.spectra["det_abs"] = float(np.exp(logdet))
    lhs = Side(logdet, _psi(s.kernel, s.report.spectra), kernel=s.kernel,
               ci_valid=p.guard == "ok")
    yield from s.identity([(s.report, lhs, Side())])


# ---------------------------------------------------------------------------
# the Wiener-space scenarios
# ---------------------------------------------------------------------------

_SYMMETRIC_KINDS = ("surjective", "integrability")  # their kernel is a quadratic form's


@dataclass(frozen=True)
class Side:
    """One side of an identity, e^{log_scale} E[f(w') e^{c q(w)}]: w' the image
    of the path w under the transformation of kernel (w itself when kernel is
    None; G_phi = F_kappa_phi, so a linear transformation is its tail kernel's),
    q the per-path exponent, a `stochastic.Exponent` (none: e^0), and f its
    own functional (None: the scenario's).  A left-hand side has an exponent
    and is estimated (`Scenario.estimate`), a right-hand side has none and
    is exact (`Scenario.exact`).  Sides that share an exponent object
    evaluate it, and its control, once per block.  ci_valid is False when
    the moment guard says the second moment is infinite."""

    log_scale: float = 0.0
    exponent: st.Exponent | None = None
    c: float = 1.0
    kernel: MatrixKernel | None = None
    ci_valid: bool = True
    f: TestFunctional | None = None


_ONE = TestFunctional("one")  # the functional of a side that is a weight's mass


def _q(eta: MatrixKernel) -> st.Exponent:
    """q of a symmetric eta, whose full form 1/2 <dW, eta dW> has the mean
    tr B_eta / 2: its diagonal blocks are read here, in the calling thread,
    and kept for every block of every chunk."""
    return st.Exponent("q", eta, 0.5 * op.trace(eta))


def _psi(kappa: MatrixKernel, spectra: dict) -> st.Exponent:
    """psi of kappa, a full form with the mean -tr B_kappa - ||kappa||^2 / 2,
    read from the spectra of `Scenario.factor`."""
    return st.Exponent("psi", kappa, -spectra["trace"] - 0.5 * spectra["hs_norm"] ** 2)


# what `Scenario.factor` reads from the gate eigensolve and the LU of I + B_kappa
_Factored = namedtuple("_Factored", "eta gate guard det2 kappa_hat")


@dataclass
class Scenario:
    """A Wiener-space scenario's checked arguments and every report it fills in: its own
    (unless own=False), then one Laplace row per lambda, each of the factor c in factors."""

    grid: TimeGrid
    kernel: MatrixKernel
    f: TestFunctional
    n_paths: int
    seed: int
    reports: list[ScenarioReport]
    factors: list[float]
    kind: str
    params: dict  # keyword arguments of its kind's body beyond the scenario: harmonic's

    @property
    def report(self) -> ScenarioReport:
        return self.reports[0]

    def factor(self, kappa: MatrixKernel, inverse: bool = False) -> _Factored | None:
        """The prologue of transf, inverse, cameron_martin, gencv and finite_dim:
        the eta kernel of kappa, the gate spectrum of B_eta (one eigensolve)
        and its guard, then one LU of I + B_kappa for det2 and, when inverse,
        the inverse kernel; gate, spectra and the det2_product check go into
        the report.  None when the scenario halts, its verdict then
        'rejected-by-hypothesis' at the gate or 'singular' at a vanishing det2."""
        eta = gk.eta_of_kappa(kappa)
        gate = op.spectrum(eta)
        guard = _gate(self.report, gate.lambda_max)
        if guard is None:
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
            self.report.verdict = "singular"
            return None
        self.report.checks["det2_product"] = _check_close(
            *op.det2_product(gate, d2, self.report.spectra["hs_norm"]), OPERATOR_TOL,
            note="log det2(I-B_eta) of the gate spectrum against 2 log|det2(I+B)| - ||kappa||^2",
        )
        # the LU is as large as the operator, so only what is read from it is kept
        return _Factored(eta, gate, guard, d2,
                         op.inverse_kernel_from(lu, kappa) if inverse else None)

    def run(self):
        """This scenario's run for `drive`: its kind's body fills in its reports,
        and each one left undecided passes when it has checks and all hold."""
        yield from _BODIES[self.kind](self, **self.params)
        for report in self.reports:
            if report.verdict == "undecided":
                ok = report.checks and all(c.passed for c in report.checks.values())
                report.verdict = "pass" if ok else "fail"
        return self.reports

    def estimate(self, sides) -> _Request:
        """The pass that estimates each side, every one with an exponent, its
        functional (the scenario's unless it has its own) read along its
        image, over the first n_paths paths of the left-hand stream: each
        distinct read, an image and a functional (its node weights built
        once, before any chunk), and each distinct exponent are evaluated
        once per block.  A side with a confidence interval takes its
        exponent's full form as control variate, against the form's exact
        grid mean (`_merged`): one more row per distinct exponent of such a
        side, evaluated once per block."""
        def read(side):
            return id(side.kernel), side.f or self.f

        with np.errstate(**_PAST_RANGE):
            reads = {}  # per read: its node weights (None: the path's own)
            for (image, g), kernel in {read(side): side.kernel for side in sides}.items():
                node = g.node(self.grid)
                reads[image, g] = (None if kernel is None or node is None
                                   else st.node_weights(kernel, node))
            scale = [np.exp(side.log_scale) for side in sides]
        exponents = {id(side.exponent): side.exponent for side in sides}
        # the row of each control, after the sides' rows
        rows = {key: len(sides) + r for r, key in enumerate(
            dict.fromkeys(id(side.exponent) for side in sides if side.ci_valid))}

        def per_path(batch):
            f_at = {(image, g): g.evaluate(batch) if w is None
                    else g.at_node(st.node_value(batch, w)) for (image, g), w in reads.items()}
            q = {key: exponent(batch) for key, exponent in exponents.items()}
            return ([f_at[read(side)] * np.exp(side.c * q[id(side.exponent)]) for side in sides]
                    + [exponents[key].control(batch, q[key]) for key in rows])

        controls = [(rows[id(side.exponent)], side.exponent.mean) if side.ci_valid else None
                    for side in sides]
        return _Request((self.grid, self.seed, _STREAM_LHS), self.n_paths, self.kernel.dim,
                        per_path, _moments, _chan,
                        partial(_merged, scale=scale, ci_valid=[side.ci_valid for side in sides],
                                controls=controls))

    @np.errstate(**_PAST_RANGE)
    def exact(self, side) -> MCEstimate:
        """e^{log_scale} E[f(w')] of a side without an exponent, in closed
        form, with nothing drawn: the node value dW G that its functional f
        reads is N(0, Delta G^T G), and W(t_k) itself is N(0, k Delta I).  It
        is carried as an estimate of no path and no error."""
        g = side.f or self.f
        node, dt = g.node(self.grid), self.grid.step
        w = None if side.kernel is None or node is None else st.node_weights(side.kernel, node)
        cov = (node or 0) * dt * np.eye(self.kernel.dim) if w is None else dt * (w.T @ w)
        return MCEstimate(float(np.exp(side.log_scale) * g.mean(cov)), 0.0, 0, True)

    def identity(self, rows, extra=(), probes=()):
        """Estimate the left-hand sides of rows of (report, lhs, rhs) and the
        sides of extra (`estimate`), and run the pathwise check of each gap of
        probes (`probe`): one list of requests on the left-hand stream, yielded
        to `drive` once (a generator).  Then read each right-hand side in
        closed form (`exact`) and compare each row's two sides as its report's
        'identity' check.  Returns the estimates of extra and the value of
        each probe: its largest deviation over max(1, the largest |entry| of
        its reference).  A left-hand side whose every path reads 0 against a
        nonzero right-hand side raises PreconditionError: its values
        underflow, so it tests nothing."""
        reports, lhs, rhs = zip(*rows)
        lefts, *gaps = yield [self.estimate(lhs + tuple(extra))] + list(map(self.probe, probes))
        for report, left, right in zip(reports, lefts, map(self.exact, rhs)):
            if right.mean and not any(left.chunk_means):
                raise PreconditionError(
                    f"{report.name}: the value of every path underflows to 0, against the "
                    f"exact side {right.mean:.3g}")
            report.lhs, report.rhs = left, right
            report.z_score, report.rel_error, ok = _compare(left, right.mean, report.tolerance)
            report.checks["identity"] = Check(report.rel_error, 0.0, report.tolerance, ok,
                                              "main comparison")
            if left.control:
                report.checks["control_mean"] = _control_check(left)
        return lefts[len(rows):], [float(dev / np.maximum(1.0, ref)) for dev, ref in gaps]

    def probe(self, gap) -> _Request:
        """The pass of a pathwise check over the first PROBE_PATHS paths of the
        left-hand stream, whatever n_paths: gap(batch) gives per path its
        largest deviation and its reference's largest |entry|, and the pass
        their largest over every path.  It is reduced by a running max, which
        no block order changes, so it reads the values of one whole batch,
        which is never formed."""
        return _Request((self.grid, self.seed, _STREAM_LHS), PROBE_PATHS, self.kernel.dim,
                        lambda batch: np.stack(gap(batch)), partial(np.max, axis=-1),
                        np.maximum, partial(np.max, axis=0))


def resolve_scenario(
    kind: str, kernel=None, functional=None, grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None, lam: float | None = None, x=None, lambdas=None,
    own: bool = True,
) -> Scenario:
    """Check and resolve the arguments of a Wiener-space scenario of the given
    kind before any work: the Monte Carlo size and seed (integers, the seed
    in [0, 2**64)) and the tolerance, the harmonic lambda (given, >= 0) and
    direction x (of the kernel's dimension), the surjective lambdas (finite,
    and no two of one report name), the kernel spec (symmetric for
    surjective and integrability; for gencv a remark_gencv spec, or None for
    its own counterexample at GENCV_B) and the functional (None only for
    integrability, whose f is one and not in its provenance; a cos_mid tau
    in [0, T]).  Then decide every report it writes and its provenance: its
    own unless own=False, one `laplace[spec, lambda=c]` per lambda,
    cameron_martin's kernel_role.  Every scenario starts here; a config is
    validated, and a raising scenario halted, by what it returns on the
    scenario's arguments.  Raises InvalidArgumentError."""
    n_paths = gk.integer(n_paths, "the number of paths", 1)
    seed = gk.integer(seed, "seed", 0, 2**64 - 1)  # the generator keys read 64 bits of it
    if not (gk.finite(tol) and tol > 0):
        raise InvalidArgumentError(f"tolerance must be a finite real > 0, got {tol}")
    if kind == "harmonic" and lam is None:
        raise InvalidArgumentError("harmonic needs a lambda")
    if lam is not None and not (gk.finite(lam) and lam >= 0):
        raise InvalidArgumentError(f"lambda must be a finite real >= 0, got {lam}")
    if lambdas is not None and not (np.ndim(lambdas) == 1 and gk.finite(lambdas)):
        raise InvalidArgumentError(f"lambdas must be finite reals, got {lambdas!r}")
    lambdas = [] if lambdas is None else [float(c) for c in lambdas]
    if not (own or lambdas):
        raise InvalidArgumentError(f"a {kind} scenario without its own report needs lambdas")
    labels = [f"{c:g}" for c in lambdas]  # each names its Laplace report
    if len(set(labels)) < len(labels):
        raise InvalidArgumentError(
            f"lambdas must differ in their first 6 significant digits, got {lambdas}")
    if kernel is None:
        if kind != "gencv":
            raise InvalidArgumentError(f"{kind} needs a kernel")
        kernel = _gencv_spec(*GENCV_B)
    elif kind == "gencv" and (isinstance(kernel, MatrixKernel)
                              or gk.parse_kernel_spec(str(kernel))[0] != "remark_gencv"):
        raise InvalidArgumentError(f"gencv needs a remark_gencv kernel spec, got {kernel!r}")
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
    if f is None and kind != "integrability":
        raise InvalidArgumentError(f"{kind} needs a functional")
    if f is not None and not isinstance(f, TestFunctional):
        f = TestFunctional.parse(str(f))
    if f is not None:
        f.node(grid)  # a cos_mid tau outside [0, T] is rejected here, before any work
    prov = {"kernel": spec, "horizon": grid.horizon, "n_steps": grid.n_steps,
            "dim": kappa.dim, "n_paths": n_paths, "seed": seed}
    if f is not None:
        prov["functional"] = str(f)
    if kind == "cameron_martin":
        prov["kernel_role"] = "phi"
    label = ""
    if lam is not None:
        prov["lambda"], label = float(lam), f", lambda={lam:g}"
    if x is not None:
        prov["x"] = gk.direction(x, kappa.dim).tolist()
    titled = ([(name or f"{kind}[{spec}{label}]", prov)] if own else []) + [
        (f"laplace[{spec}, lambda={c:g}]", {**prov, "lambda": c}) for c in lambdas]
    reports = [ScenarioReport(title, kind, None, None, None, None, tol, "undecided",
                              provenance=p) for title, p in titled]
    return Scenario(grid, kappa, _ONE if f is None else f, n_paths, seed, reports,
                    ([1.0] if own else []) + lambdas, kind,
                    dict(lam=lam, x=x) if kind == "harmonic" else {})


def verify_transf(
    kernel, functional="cos_end:1.0", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None,
) -> ScenarioReport:
    """Forward identity: transformed-and-weighted expectation against the
    plain one, scaled by |det2| and exp(||kappa||^2 / 2)."""
    return _alone(resolve_scenario("transf", kernel, functional, grid, dim, n_paths, seed, tol,
                                   name))[0]


def _transf(s: Scenario):
    p = s.factor(s.kernel)
    if p is not None:
        yield from s.identity([_transf_row(s, p)])


def _transf_row(s: Scenario, p: _Factored) -> tuple:
    """The forward identity's row (report, lhs, rhs), read from the prologue p."""
    lhs = Side(p.det2.log_modulus, _q(p.eta), kernel=s.kernel, ci_valid=p.guard == "ok")
    return s.report, lhs, Side(0.5 * gk.kernel_l2_norm(s.kernel) ** 2)


def verify_inverse(
    kernel, functional="cos_end:1.0", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None,
) -> ScenarioReport:
    """Inverse-transformation identity, the pathwise round trip, and the unit
    mass of the Radon-Nikodym weight of the transformed measure."""
    return _alone(resolve_scenario("inverse", kernel, functional, grid, dim, n_paths, seed, tol,
                                   name))[0]


def _inverse(s: Scenario):
    kappa, report, p = s.kernel, s.report, s.factor(s.kernel, inverse=True)
    if p is None:
        return
    kappa_hat = p.kappa_hat

    # pathwise round trip: both composition orders return the increments
    def roundtrip(probe):
        return np.max([np.max(np.abs(st.apply_transformation(
            outer, st.apply_transformation(inner, probe)).increments - probe.increments),
            axis=(1, 2)) for inner, outer in ((kappa_hat, kappa), (kappa, kappa_hat))],
            axis=0), np.max(np.abs(probe.increments), axis=(1, 2))

    # Radon-Nikodym mass of the image measure, on the left-hand paths with f = 1.
    # On the grid I - M_eta_hat = ((I+M)(I+M)^T)^{-1} has the spectrum
    # 1 / (1 - w), w over the gate spectrum, so its gate is
    # 1 - 1 / (1 - lambda_min(B_eta)).  The weight's det2 takes its own LU, so
    # the mass checks it independently.
    eta_hat = gk.eta_of_kappa(kappa_hat)
    guard_hat = st.moment_guard(1.0 - 1.0 / (1.0 - p.gate.lambda_min))
    d2_hat = op.det2(kappa_hat)
    # (I + B)(I + B_hat) = I, so det2(I + B) det2(I + B_hat) = e^{tr(B B_hat)}
    report.checks["det2_inverse"] = _check_close(
        p.det2.log_modulus + d2_hat.log_modulus, op.trace_product(kappa, kappa_hat), OPERATOR_TOL,
        note="log|det2(I+B)| + log|det2(I+B_hat)| against tr(B B_hat)",
    )

    lhs = Side(p.det2.log_modulus, _q(p.eta), ci_valid=p.guard == "ok")
    rhs = Side(0.5 * gk.kernel_l2_norm(kappa) ** 2, kernel=kappa_hat)
    mass = Side(d2_hat.log_modulus - 0.5 * gk.kernel_l2_norm(kappa_hat) ** 2,
                _q(eta_hat), ci_valid=guard_hat == "ok", f=_ONE)
    (rn,), (gap,) = yield from s.identity([(report, lhs, rhs)], extra=[mass], probes=[roundtrip])
    report.checks["composition_roundtrip"] = _check_close(
        gap, 0.0, OPERATOR_TOL, relative=False,
        note="max increment deviation / path scale over both orders",
    )
    _, _, rn_ok = _compare(rn, 1.0, report.tolerance)
    report.checks["rn_normalization"] = Check(
        rn.mean, 1.0, report.tolerance, rn_ok,
        f"Radon-Nikodym weight mass (guard {guard_hat})",
    )
    if rn.control:
        report.checks["rn_control_mean"] = _control_check(rn)


def surjective_scenario(
    kernel, functional="one", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None, lambdas=None, own: bool = True,
) -> list[ScenarioReport]:
    """The reports of a surjective scenario: its own identity (when own),
    then its Laplace sweep, the identity of each lambda * eta (q scales
    linearly in the kernel).  They form one family of factors c (1, then the
    lambdas): one eigensolve of B_eta and one Monte Carlo pass of the
    left-hand side, on the same paths for every factor, with one row per
    factor its gate admits.
    Every factor keeps its own gate and its own independent checks."""
    return _alone(resolve_scenario("surjective", kernel, functional, grid, dim, n_paths, seed,
                                   tol, name, lambdas=lambdas, own=own))


def _surjective_family(s: Scenario):
    """Fill in every report of s as the family of `surjective_scenario`."""
    eta = s.kernel
    eig = op.spectrum(eta, vectors=True)
    eta_norm = gk.kernel_l2_norm(eta)
    q, rows = _q(eta), []  # q of c eta is c q, with one control for every factor
    for c, report in zip(s.factors, s.reports):
        scaled = eig.scaled(c)  # the spectrum of c B_eta
        lam = scaled.lambda_max
        guard = _gate(report, lam)
        if guard is None:
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
        # I - c S, S the Sylvester matrix of B_eta (of order r for a LowRank eta),
        # shares nothing with the eigensolve: it is the independent route
        report.checks["det2_sqrt_identity"] = _check_close(
            d2_eta.log_modulus, op.det2_matrix(-c * op.sylvester_matrix(eta)).log_modulus,
            OPERATOR_TOL,
            note="log of the squared kappa_s factor, prod (1-w) e^w, against an LU of I-B_eta",
        )
        # eta round trip of the square-root construction
        round_err = gk.kernel_distance(gk.eta_of_kappa(kappa), eta, c)
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
        yield from s.identity(rows)


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

    The identity of sqrt(lam) * kappa, whose c kernel is lam c(kappa), so
    the weight is exp(-lam * h(kappa)); det(I + lam B_c) and det(I + lam B^T B)
    (`operator.gram_logdet`, det_dual_route) must agree.  Of a LowerExp kappa
    with no x, det(I + lam B_c) is one Riccati recursion per rate
    (`operator.c_logdet`) and the gate 0 (B_c = B^T B is singular: the last
    column of a strictly lower K is zero).  Otherwise one eigensolve of B_c,
    read at the factor -lam, gives both.  When f is not constant, an
    eigensolve with vectors gives the right-hand side kernel
    (I + lam B_c)^{-1/2} - I: of order r for a LowRank kappa, else dense."""
    return _alone(resolve_scenario("harmonic", kernel, functional, grid, dim, n_paths, seed, tol,
                                   name, lam=lam, x=x))[0]


def _harmonic(s: Scenario, lam: float, x):
    kappa, report = s.kernel, s.report
    norm = gk.kernel_l2_norm(kappa)
    mean = 0.5 * norm ** 2  # E h without x
    riccati = isinstance(kappa.factored, gk.LowerExp) and x is None
    lam_neg, logdet_c, image = 0.0, op.c_logdet(kappa, lam) if riccati else None, None
    if not (riccati and s.f.is_constant_one):
        c = gk.c_kernels(kappa, x)
        if x is not None:  # E h along x is tr B_c / 2, of its c kernel
            mean = 0.5 * op.trace(c)
        eig = op.spectrum(c, vectors=not s.f.is_constant_one).scaled(-lam)
        del c
        if not riccati:  # Lambda(-lam B_c) <= 0 and log det(I + lam B_c), I + lam B_c >= I
            lam_neg, logdet_c = eig.lambda_max, eig.logdet_complement()
        image = None if s.f.is_constant_one else eig.inverse_sqrt_kernel()
        del eig  # the eigenvectors are as large as the operator
    _gate(report, lam_neg)
    report.gate["note"] = "gate kernel is -c(kappa); nonpositive by construction"
    report.checks["lambda_nonpositive"] = _check_bound(
        lam_neg, 0.0, 1e-10, note="Lambda(B_{-c}) <= 0"
    )
    if x is None:
        report.checks["det_dual_route"] = _check_close(
            op.gram_logdet(kappa, lam), logdet_c, 1e-10,
            note="det(I + B^T B) against det(I + B_c)",
        )
    report.spectra = {
        "det_log": logdet_c,
        "det_sign": 1,
        "hs_norm": float(np.sqrt(lam)) * norm,
    }
    rhs = Side(-0.5 * logdet_c, kernel=image)
    lhs = Side(exponent=st.Exponent("h", kappa, mean, x), c=-lam)
    yield from s.identity([(report, lhs, rhs)])


def verify_cameron_martin(
    phi_kernel, functional="cos_end:1.0", grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL,
    name: str | None = None,
) -> ScenarioReport:
    """Linear-transformation identity with trace-class determinant.

    Builds the tail kernel kappa_phi of phi, checks the trace formula and the
    det = det2 * e^{tr} consistency, verifies pathwise that the linear drift
    equals the Wiener integral of kappa_phi, then Monte Carlos the identity as
    the transformation of order one of kappa_phi, exact on the grid.
    """
    return _alone(resolve_scenario("cameron_martin", phi_kernel, functional, grid, dim, n_paths,
                                   seed, tol, name))[0]


def _cameron_martin(s: Scenario):
    phi, report = s.kernel, s.report

    kappa_phi = gk.kappa_from_phi(phi)
    p = s.factor(kappa_phi)
    if p is None:
        return

    m = op.sylvester_matrix(kappa_phi)  # the checks' matrix: of order r for a LowRank form
    tr = float(np.trace(m))
    # the trace from phi itself, not from kappa_phi: the diagonal kappa_phi(t_i, t_i)
    # is the tail sum of phi(t_i, t_k) Delta over k > i, so tr B_kappa_phi is the
    # exponent's trace correction Delta^2 sum_{i<k} tr phi(t_i, t_k)
    report.checks["trace_formula"] = _check_close(
        tr, st.cm_trace_correction(phi), 1e-12,
        note="matrix trace of B_kappa_phi against the tail sums of phi",
    )
    sign_d, logdet_d = np.linalg.slogdet(np.eye(m.shape[0]) + m)
    report.checks["det2_consistency"] = _check_close(
        logdet_d - tr, p.det2.log_modulus, 1e-10,
        note="log det(I+B) - tr B against log det2(I+B)",
    )
    report.spectra["det_log"] = float(p.det2.log_modulus + tr)

    # pathwise: the linear drift of phi is the Wiener integral of kappa_phi
    def drift_gap(probe):
        integral = st.wiener_integral(kappa_phi, probe)
        return (np.max(np.abs(st.cameron_martin_drift(phi, probe) - integral), axis=(1, 2)),
                np.max(np.abs(integral), axis=(1, 2)))

    lhs = Side(p.det2.log_modulus + tr, _psi(kappa_phi, report.spectra), kernel=kappa_phi,
               ci_valid=p.guard == "ok")
    _, (gap,) = yield from s.identity([(report, lhs, Side())], probes=[drift_gap])
    report.checks["pathwise_drift"] = _check_close(
        gap, 0.0, OPERATOR_TOL, relative=False,
        note="max |linear drift - Wiener integral of kappa_phi| / scale",
    )


def _gencv_spec(b1: float, b2: float) -> str:
    """The remark_gencv spec of b1, b2, each written as its shortest decimal,
    from which the kernel reads it back exactly."""
    b1, b2 = (np.format_float_positional(float(b), trim="-") for b in (b1, b2))
    return f"remark_gencv:b1={b1},b2={b2}"


def verify_gencv_example(
    grid: TimeGrid | None = None, b1: float = GENCV_B[0], b2: float = GENCV_B[1],
    functional="cos_end:1.0", n_paths: int = 100_000, seed: int = 0,
    tol: float = DEFAULT_TOL, name: str | None = None,
) -> ScenarioReport:
    """The spectral counterexample: s-kernel eigenvalue -2 min(b) may exceed 2
    while the eta gate stays below 1 and det2 stays positive, so the forward
    identity still holds where the generic change-of-variables route fails."""
    return _alone(resolve_scenario("gencv", _gencv_spec(b1, b2), functional, grid, 1, n_paths,
                                   seed, tol, name))[0]


def _gencv(s: Scenario):
    report = s.report
    # b1 and b2 as the kernel read them: `_gencv_spec` writes each exactly
    b = gk.parse_kernel_spec(report.provenance["kernel"])[1]
    b1, b2 = float(b["b1"]), float(b["b2"])
    lam_s = op.lambda_max(gk.s_of_kappa(s.kernel))
    # the prologue and the row of the forward identity, on this scenario's kernel
    p = s.factor(s.kernel)
    report.spectra["lambda_s"] = lam_s
    if p is None:
        # the gate 1 - (1 + b)^2 of this family reaches 1 exactly where
        # det2 = (1 + b1)(1 + b2) e^{-(b1 + b2)} vanishes
        report.verdict = "singular"
        return

    # B_s and B_eta have the eigenvalues -2 b and 1 - (1 + b)^2 on the two
    # directions of the kernel, and 0 on the other N - 2 grid directions
    zeros, zero = ([0.0], "0, ") if s.grid.n_steps > 2 else ([], "")
    report.checks["lambda_s"] = _check_close(
        lam_s, max(zeros + [-2.0 * b1, -2.0 * b2]), 1e-6,
        note=f"Lambda(B_s) = max({zero}-2 b1, -2 b2)",
    )
    report.checks["lambda_eta"] = _check_close(
        p.gate.lambda_max, max(zeros + [1.0 - (1.0 + b1) ** 2, 1.0 - (1.0 + b2) ** 2]), 1e-6,
        note=f"Lambda(B_eta) = max({zero}1 - (1+b1)^2, 1 - (1+b2)^2)",
    )
    report.checks["det2_value"] = _check_close(
        p.det2.value, (1.0 + b1) * (1.0 + b2) * np.exp(-(b1 + b2)), 1e-6, note="det2 closed form"
    )
    yield from s.identity([_transf_row(s, p)])


def integrability_bound(lam: float, hs_norm: float) -> float:
    """Exponential-moment bound: exp(1/2 {1/2 + p / (3 (1-p)^3)} ||eta||^2),
    p = max(lambda, 0); valid for lambda < 1."""
    p = max(0.0, lam)
    return float(np.exp(0.5 * (0.5 + p / (3.0 * (1.0 - p) ** 3)) * hs_norm ** 2))


def verify_integrability_bound(
    eta_kernel, grid: TimeGrid | None = None, dim: int = 1,
    n_paths: int = 100_000, seed: int = 0, tol: float = DEFAULT_TOL, name: str | None = None,
) -> ScenarioReport:
    """The surjective identity with f = 1, E[e^{q_eta}] = det2(I-B_eta)^{-1/2}
    for any symmetric eta (`_surjective_family`), plus the Monte Carlo
    moment below the closed-form exponential-moment bound, guard-aware."""
    return _alone(resolve_scenario("integrability", eta_kernel, None, grid, dim, n_paths, seed,
                                   tol, name))[0]


def _integrability(s: Scenario):
    yield from _surjective_family(s)
    report, est = s.report, s.report.lhs
    if est is None:  # halted at the gate
        return
    bound = integrability_bound(report.gate["lambda_eta"], report.spectra["hs_norm"])
    report.spectra.update(bound=bound, exact_value=report.rhs.mean)
    slack = 3.0 * est.std_error if est.ci_valid else CONSISTENCY_FACTOR * report.tolerance * bound
    report.checks["bound"] = _check_bound(
        est.mean if est.ci_valid else est.median, bound, slack,
        note="E[e^q] below the exponential-moment bound",
    )


# the body of each kind: its run once resolved; see `Scenario.run`
_BODIES = {
    "finite_dim": _finite_dim, "transf": _transf, "inverse": _inverse,
    "surjective": _surjective_family, "harmonic": _harmonic, "cameron_martin": _cameron_martin,
    "gencv": _gencv, "integrability": _integrability,
}
