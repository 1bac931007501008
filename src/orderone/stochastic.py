"""Monte Carlo engine: Wiener path batches and the path functionals.

Increments dW[m, i] ~ N(0, Delta I_d) are drawn from a counter-based Philox
stream keyed by (seed, *stream), so every batch is bit-for-bit reproducible
and independent streams are derived by extending the key, never by sharing a
generator.  Path values at the left nodes are W(t_k) = sum_{i<k} dW[m, i]
(W(0) = 0), and all stochastic sums are Ito sums: the integrand is evaluated
strictly before the increment that multiplies it.

Functionals of a batch:

    wiener integral     I[m, i]  = sum_j kappa(t_i, t_j) dW[m, j]
    transformation      dW'[m,i] = dW[m, i] + I[m, i] Delta
    quadratic form      q[m]     = sum_i < sum_{j<i} eta(t_i,t_j) dW[m,j], dW[m,i] >
    oscillator energy   h[m]     = 1/2 sum_i |I[m, i]|^2 Delta   (or <x, I>^2)
    linear-drift weight psi[m]   = - sum_j < sum_i phi(t_i,t_j)^T dW[m,i], W(t_j) > Delta
                                   - 1/2 sum_i |sum_j phi(t_i,t_j) W(t_j) Delta|^2 Delta

The quadratic form excludes the diagonal (strict lower triangle), matching the
defining Riemann sums of the Ito integral; evaluating the path at left nodes
keeps every cross term unbiased because dW_j is independent of W(t_j).  Since
eta is symmetric, the two triangles contribute equally, so

    q[m] = 1/2 (<dW, eta dW> - sum_i <dW_i, eta(t_i,t_i) dW_i>),

which needs only the product with the whole kernel and its diagonal blocks.

Every functional reaches its kernel through `MatrixKernel.apply` (x K^T),
`apply_adjoint` (x K) and `diagonal_blocks`, never through the
representation.  Cost per call on M paths, with n = N d:

    dense values                  O(M n^2)   one (M, n) x (n, n) product
    LowRank, rank r               O(M n r)   three thin products
    LowerExp (volterra, expdiag)  O(M n)     a weighted cumulative sum

Per-path reductions (q, h, psi) run over blocks of about PATH_BLOCK
increments, so their intermediates stay in cache; each value still depends on
its own path alone.

Node read.  Every test functional reads the path at one node k alone
(`TestFunctional.node`; 'one' reads none), and the image of a path under
either transformation is affine in its increments.  So W'(t_k) is dW G for
weights G of shape (N d, d) built once per kernel and node (`node_weights`:
one product of d rows with the kernel), and `transformed_node_value` /
`linear_node_value` cost O(M N d^2) per batch for every representation,
dense included, without forming the transformed (M, N, d) batch.  The
Monte Carlo sides read transformed paths this way; `apply_transformation`
and `apply_linear_transformation` remain for pathwise checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import struct

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
from .grid_kernel import MatrixKernel, TimeGrid, direction
from .operator import GATE_MARGIN, lambda_max

__all__ = [
    "PathBatch",
    "TestFunctional",
    "sample_paths",
    "wiener_integral",
    "apply_transformation",
    "quadratic_form",
    "h_functionals",
    "cameron_martin_drift",
    "apply_linear_transformation",
    "node_weights",
    "node_value",
    "transformed_node_value",
    "linear_node_value",
    "cm_exponent",
    "cm_trace_correction",
    "exp_q_moment_guard",
    "moment_guard",
    "save_batch",
    "load_batch",
]


@dataclass(frozen=True)
class PathBatch:
    """Batch of Wiener increments plus the stream metadata that produced it."""

    grid: TimeGrid
    dim: int
    increments: np.ndarray  # (M, N, d), read-only
    seed: int
    stream: tuple = ()

    def __post_init__(self):
        m, n, d = self.increments.shape
        if n != self.grid.n_steps or d != self.dim:
            raise InvalidArgumentError(
                f"increment shape {self.increments.shape} does not match grid/dim"
            )
        self.increments.setflags(write=False)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    def left_node_values(self) -> np.ndarray:
        """W(t_k) = sum_{i<k} dW_i for k = 0 .. N-1 (so W(t_0) = 0)."""
        return _left_node_values(self.increments)

    def terminal_values(self) -> np.ndarray:
        """W(T) per path, shape (M, d)."""
        return self.increments.sum(axis=1)

    def value_at_node(self, k: int) -> np.ndarray:
        """W(t_k) per path for k = 0 .. N (k = N gives W(T))."""
        if not 0 <= k <= self.grid.n_steps:
            raise InvalidArgumentError(f"node index {k} outside 0..{self.grid.n_steps}")
        if k == 0:
            return np.zeros((self.n_paths, self.dim))
        return self.increments[:, :k].sum(axis=1)


def sample_paths(
    grid: TimeGrid, dim: int, n_paths: int, seed: int, stream: tuple = (),
    out: np.ndarray | None = None,
) -> PathBatch:
    """Draw a batch of increments from the Philox stream keyed by (seed, *stream).

    The draw is a single deterministic pass: identical arguments give identical
    bits regardless of how callers schedule batches.  With out, a contiguous
    float64 buffer of at least n_paths N dim elements, the increments are drawn
    into its head (same bits) and the batch is a view of it.
    """
    if n_paths < 1:
        raise InvalidArgumentError(f"n_paths must be >= 1, got {n_paths}")
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    key = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *map(int, stream)])
    rng = np.random.Generator(np.random.Philox(key))
    shape = (n_paths, grid.n_steps, dim)
    if out is not None:
        size = n_paths * grid.n_steps * dim
        if out.dtype != np.float64 or out.ndim != 1 or out.size < size:
            raise InvalidArgumentError(
                f"out must be a flat float64 buffer of at least {size} elements")
        out = out[:size].reshape(shape)
    inc = rng.standard_normal(shape, out=out)
    inc *= np.sqrt(grid.step)  # in place: one copy of the batch, not two
    return PathBatch(grid, dim, inc, int(seed), tuple(stream))


def _left_node_values(increments: np.ndarray) -> np.ndarray:
    m, n, d = increments.shape
    w = np.empty((m, n, d))
    w[:, 0] = 0.0
    np.cumsum(increments[:, :-1], axis=1, out=w[:, 1:])
    return w


def _check_grid(kernel: MatrixKernel, batch: PathBatch):
    if kernel.grid != batch.grid or kernel.dim != batch.dim:
        raise InvalidArgumentError("kernel and path batch live on different grids")


# increment elements per block of paths in a per-path reduction, so that its
# (paths, N, d) intermediates stay in cache
PATH_BLOCK = 1 << 17


def _per_path(reduce, increments: np.ndarray) -> np.ndarray:
    """reduce(dW block) -> one value per path, run over blocks of paths."""
    m, n, d = increments.shape
    rows = max(1, PATH_BLOCK // (n * d))
    out = np.empty(m)
    for r0 in range(0, m, rows):
        out[r0:r0 + rows] = reduce(increments[r0:r0 + rows])
    return out


def wiener_integral(kappa: MatrixKernel, batch: PathBatch) -> np.ndarray:
    """I[m, i] = sum_j kappa(t_i, t_j) dW[m, j], shape (M, N, d).

    The integrand is deterministic, so the sum runs over the whole grid; for
    the Volterra indicator it telescopes back to the path at the left nodes.
    """
    _check_grid(kappa, batch)
    return kappa.apply(batch.increments)


def apply_transformation(kappa: MatrixKernel, batch: PathBatch) -> PathBatch:
    """The transformation of order one on the grid: dW'_i = dW_i + I_i Delta,
    I the Wiener integral of kappa along the batch.

    Affine in the path, so composing with the inverse kernel's transformation
    returns the original increments to machine precision.
    """
    inc = wiener_integral(kappa, batch)
    inc *= kappa.grid.step
    inc += batch.increments
    return replace(batch, increments=inc)


def quadratic_form(eta: MatrixKernel, batch: PathBatch) -> np.ndarray:
    """Double Ito sum of a symmetric kernel over the strict lower triangle,
    evaluated as 1/2 (<dW, eta dW> - sum_i <dW_i, eta_ii dW_i>)."""
    if not eta.symmetric:
        raise PreconditionError("quadratic_form requires a symmetric kernel")
    _check_grid(eta, batch)
    blocks = eta.diagonal_blocks()

    def reduce(dw):
        full = np.einsum("mia,mia->m", eta.apply(dw), dw)
        return 0.5 * (full - np.einsum("mia,iab,mib->m", dw, blocks, dw))

    return _per_path(reduce, batch.increments)


def h_functionals(
    kappa: MatrixKernel, batch: PathBatch, x: np.ndarray | None = None
) -> np.ndarray:
    """Oscillator energies: 1/2 int <x, I(t)>^2 dt, or 1/2 int |I(t)|^2 dt without x."""
    _check_grid(kappa, batch)
    if x is not None:
        x = direction(x, kappa.dim)

    def reduce(dw):
        integral = kappa.apply(dw)
        if x is None:
            return 0.5 * np.einsum("mia,mia->m", integral, integral) * kappa.grid.step
        proj = integral @ x
        return 0.5 * np.einsum("mi,mi->m", proj, proj) * kappa.grid.step

    return _per_path(reduce, batch.increments)


def cameron_martin_drift(phi: MatrixKernel, batch: PathBatch) -> np.ndarray:
    """G[m, i] = sum_j phi(t_i, t_j) W(t_j) Delta, the derivative of the linear
    transformation's shift; agrees with the Wiener integral of the tail kernel
    of phi up to an O(sqrt(Delta)) pathwise error."""
    _check_grid(phi, batch)
    return phi.apply(batch.left_node_values()) * phi.grid.step


def apply_linear_transformation(phi: MatrixKernel, batch: PathBatch) -> PathBatch:
    """The linear transformation on the grid: dW'_i = dW_i + G_i Delta, G the
    linear drift of phi along the batch."""
    inc = cameron_martin_drift(phi, batch)
    inc *= phi.grid.step
    inc += batch.increments
    return replace(batch, increments=inc)


def node_weights(kernel: MatrixKernel, k: int, linear: bool = False) -> np.ndarray:
    """Weights G of shape (N d, d) with W'(t_k) = dW G, W' the image of each
    path under the transformation of kernel (under the linear transformation
    of phi = kernel when linear), dW flattened to (M, N d).

    With U[a, i, b] = 1_{i<k} delta_ab and V = kernel.apply_adjoint(U), so
    V[a, j, b] = sum_{i<k} kernel(t_i, t_j)[a, b]:

        transformation   W'(t_k) = W(t_k) + Delta sum_{j,b} dW_{j,b} V[a, j, b]
        linear           W'(t_k) = W(t_k) + Delta^2 sum_j <V[a, j], W(t_j)>,

    and the linear sum equals sum_{i,b} dW_{i,b} sum_{j>i} V[a, j, b], a
    reversed exclusive cumulative sum of V.  One kernel product of d rows.
    """
    n, d, dt = kernel.grid.n_steps, kernel.dim, kernel.grid.step
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"node index {k} outside 0..{n}")
    u = np.zeros((d, n, d))
    for a in range(d):
        u[a, :k, a] = 1.0
    v = kernel.apply_adjoint(u)
    if linear:
        tail = np.zeros_like(v)
        np.cumsum(v[:, :0:-1], axis=1, out=tail[:, -2::-1])
        v = tail * dt * dt
    else:
        v *= dt
    v += u  # the path itself: W(t_k) = sum_{i<k} dW_i
    return np.ascontiguousarray(v.reshape(d, n * d).T)


def node_value(batch: PathBatch, weights: np.ndarray) -> np.ndarray:
    """dW G per path, shape (M, d): W'(t_k) for the weights of `node_weights`.
    O(M N d^2), and no transformed batch is formed."""
    return batch.increments.reshape(batch.n_paths, -1) @ weights


def transformed_node_value(kernel: MatrixKernel, batch: PathBatch, k: int) -> np.ndarray:
    """W'(t_k) of apply_transformation(kernel, batch), read without forming it."""
    _check_grid(kernel, batch)
    return node_value(batch, node_weights(kernel, k))


def linear_node_value(phi: MatrixKernel, batch: PathBatch, k: int) -> np.ndarray:
    """W'(t_k) of apply_linear_transformation(phi, batch), read without forming it."""
    _check_grid(phi, batch)
    return node_value(batch, node_weights(phi, k, linear=True))


def cm_exponent(phi: MatrixKernel, batch: PathBatch) -> tuple[np.ndarray, np.ndarray]:
    """Exponents of the linear change-of-variables weight.

    Returns (psi, psi_tilde) per path, where

        psi       = - sum_j < sum_i phi(t_i,t_j)^T dW_i, W(t_j) > Delta
                    - 1/2 sum_i |sum_j phi(t_i,t_j) W(t_j) Delta|^2 Delta
        psi_tilde = psi + sum_j (sum_{i: t_i < t_j} tr phi(t_i,t_j) Delta) Delta.

    The path enters at left nodes, so dW_j is independent of the W(t_j) it is
    paired with and the cross term is unbiased.
    """
    _check_grid(phi, batch)
    dt = phi.grid.step

    def reduce(dw):
        w = _left_node_values(dw)
        cross = phi.apply_adjoint(dw)  # cross[m, j] = sum_i phi_ij^T dW_i
        term1 = -np.einsum("mjb,mjb->m", cross, w) * dt
        drift = phi.apply(w) * dt
        return term1 - 0.5 * np.einsum("mia,mia->m", drift, drift) * dt

    psi = _per_path(reduce, batch.increments)
    return psi, psi + cm_trace_correction(phi)


def cm_trace_correction(phi: MatrixKernel) -> float:
    """Deterministic gap between the trace-free and trace-corrected exponents."""
    tr_blocks = np.einsum("ijaa->ij", phi.values)
    return float(np.sum(np.triu(tr_blocks, k=1)) * phi.grid.step ** 2)


def moment_guard(lam: float) -> str:
    """Integrability state of exp(q_eta) for the gate eigenvalue
    lam = lambda_max(B_eta) under the Wiener measure.

    'reject'    lambda >= 1 - gate margin: the mean itself is infinite
    'ok_no_ci'  2 lambda >= 1: mean finite but variance infinite, so sample
                standard errors are meaningless and no CI may be reported
    'ok'        both moments finite
    """
    if lam >= 1.0 - GATE_MARGIN:
        return "reject"
    # roundoff guard: exactly-critical spectra (2 lambda == 1) must flag no-CI
    # regardless of last-bit rounding of the eigensolve
    if 2.0 * lam >= 1.0 - 1e-12:
        return "ok_no_ci"
    return "ok"


def exp_q_moment_guard(eta: MatrixKernel) -> str:
    """moment_guard of the top eigenvalue of B_eta."""
    if not eta.symmetric:
        raise PreconditionError("moment guard requires a symmetric kernel")
    return moment_guard(lambda_max(eta))


# ---------------------------------------------------------------------------
# bounded test functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctional:
    """Small family of bounded continuous path functionals, |f| <= 1.

    Tags: 'one', 'cos_end:a' (cos of a times the coordinate sum of W(T)),
    'exp_negsq' (exp(-|W(T)|^2)), 'cos_mid:a,tau' (cos of a times the first
    coordinate of W(tau), tau in [0, T] snapped to the nearest node).
    """

    __test__ = False  # not a pytest class

    tag: str
    a: float = 1.0
    tau: float = 0.0

    @classmethod
    def parse(cls, text: str) -> "TestFunctional":
        text = text.strip()
        name, _, body = text.partition(":")
        if name == "one":
            return cls("one")
        if name == "exp_negsq":
            return cls("exp_negsq")
        if name == "cos_end":
            try:
                a = float(body)
            except ValueError:
                raise InvalidArgumentError(f"cos_end needs a real parameter, got {text!r}")
            if not np.isfinite(a):
                raise InvalidArgumentError(f"cos_end needs a finite parameter, got {text!r}")
            return cls("cos_end", a=a)
        if name == "cos_mid":
            parts = body.split(",")
            try:
                a, tau = map(float, parts)
            except ValueError:
                raise InvalidArgumentError(f"cos_mid needs two reals 'a,tau', got {text!r}")
            if not (np.isfinite(a) and np.isfinite(tau)):
                raise InvalidArgumentError(f"cos_mid needs finite 'a,tau', got {text!r}")
            return cls("cos_mid", a=a, tau=tau)
        raise InvalidArgumentError(
            f"unknown functional {text!r}; expected one, cos_end:a, exp_negsq, cos_mid:a,tau"
        )

    def __str__(self) -> str:
        if self.tag == "cos_end":
            return f"cos_end:{self.a:g}"
        if self.tag == "cos_mid":
            return f"cos_mid:{self.a:g},{self.tau:g}"
        return self.tag

    @property
    def is_constant_one(self) -> bool:
        return self.tag == "one"

    def node(self, grid: TimeGrid) -> int | None:
        """The node k whose value W(t_k) the functional reads (N for W(T));
        None for 'one', which reads no node.  A cos_mid tau outside [0, T]
        raises InvalidArgumentError."""
        if self.tag == "one":
            return None
        if self.tag in ("cos_end", "exp_negsq"):
            return grid.n_steps
        if self.tag == "cos_mid":
            if not 0.0 <= self.tau <= grid.horizon:
                raise InvalidArgumentError(
                    f"cos_mid reads W(tau) at tau = {self.tau:g}, outside [0, {grid.horizon:g}]")
            return int(round(self.tau / grid.step))
        raise InvalidArgumentError(f"unknown functional tag {self.tag!r}")

    def at_node(self, w: np.ndarray) -> np.ndarray:
        """f per path from its value w = W(t_k) at `node`, shape (M, d)."""
        if self.tag == "one":
            return np.ones(w.shape[0])
        if self.tag == "cos_end":
            return np.cos(self.a * w.sum(axis=1))
        if self.tag == "exp_negsq":
            return np.exp(-np.einsum("md,md->m", w, w))
        if self.tag == "cos_mid":
            return np.cos(self.a * w[:, 0])
        raise InvalidArgumentError(f"unknown functional tag {self.tag!r}")

    def evaluate(self, batch: PathBatch) -> np.ndarray:
        k = self.node(batch.grid)
        if k is None:
            return np.ones(batch.n_paths)
        return self.at_node(batch.value_at_node(k))


# ---------------------------------------------------------------------------
# binary replay format
# ---------------------------------------------------------------------------

# WPB2: header (magic, T, N, d, M, seed), the stream length K, K stream
# entries, then the row-major float64 increments.  WPB1 dumps have no stream.
_MAGIC_V1 = b"WPB1"
_MAGIC = b"WPB2"
_HEADER = struct.Struct("<4sd3Qq")  # magic, T, N, d, M, seed
_COUNT = struct.Struct("<Q")


def save_batch(batch: PathBatch, path) -> None:
    """Dump the batch, its seed and its stream in the WPB2 format."""
    try:
        stream = struct.pack(f"<Q{len(batch.stream)}Q", len(batch.stream), *batch.stream)
    except struct.error:
        raise InvalidArgumentError(
            f"stream {batch.stream!r} does not fit unsigned 64-bit entries"
        )
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _MAGIC,
                batch.grid.horizon,
                batch.grid.n_steps,
                batch.dim,
                batch.n_paths,
                batch.seed,
            )
        )
        fh.write(stream)
        fh.write(np.ascontiguousarray(batch.increments, dtype="<f8").tobytes())


def load_batch(path) -> PathBatch:
    """Load a WPB2 dump, or a WPB1 dump (which reloads with stream ())."""
    with open(path, "rb") as fh:
        data = fh.read()

    def field(start: int, size: int, what: str) -> bytes:
        if len(data) < start + size:
            raise InvalidArgumentError(
                f"{path}: truncated {what}: expected {size} bytes, "
                f"got {max(len(data) - start, 0)}"
            )
        return data[start:start + size]

    magic, horizon, n, d, m, seed = _HEADER.unpack(field(0, _HEADER.size, "header"))
    if magic not in (_MAGIC, _MAGIC_V1):
        raise InvalidArgumentError(f"{path}: not a path-batch dump")
    offset, stream = _HEADER.size, ()
    if magic == _MAGIC:
        (count,) = _COUNT.unpack(field(offset, _COUNT.size, "stream length"))
        offset += _COUNT.size
        stream = struct.unpack(f"<{count}Q", field(offset, count * _COUNT.size, "stream"))
        offset += count * _COUNT.size
    size = m * n * d * 8
    if len(data) - offset != size:
        raise InvalidArgumentError(
            f"{path}: payload of {m} x {n} x {d} increments needs {size} bytes, "
            f"got {len(data) - offset}"
        )
    increments = np.frombuffer(data, dtype="<f8", offset=offset).reshape(m, n, d).copy()
    return PathBatch(TimeGrid(horizon, n), d, increments, seed, stream)
