"""Matrix-valued L2 kernels sampled on a uniform time grid.

A kernel kappa on [0,T]^2 with values in the d x d real matrices is stored as
an (N, N, d, d) array of point evaluations kappa(t_i, t_j) at the left-endpoint
nodes t_i = i*T/N.  All integrals over [0,T] become sums weighted by the step
Delta = T/N, so the kernel algebra is plain (blocked) matrix arithmetic:

    adjoint        kappa*(t,s)      = kappa(s,t)^T
    composition    (a o b)(t,s)     = int a(t,u) b(u,s) du
    eta kernel     eta(kappa)(t,s)  = -{kappa(t,s) + kappa(s,t)^T
                                        + int kappa(u,t)^T kappa(u,s) du}
    s kernel       s(kappa)(t,s)    = -{kappa(t,s) + kappa(s,t)^T}
    c kernels      c(kappa; x)(t,s) = int (kappa(u,s)^T x) (kappa(u,t)^T x)^T du
                   c(kappa)(t,s)    = int kappa(u,t)^T kappa(u,s) du
    tail integral  kappa_phi(t,s)   = int_s^T phi(t,u) du

Symmetric kernels (eta(t,s)^T = eta(s,t)) carry a `symmetric` flag that is
validated at construction; the eta/s/c constructors always return flagged
kernels.

Factored forms.  Next to its dense values a kernel may carry one factored
form, which the path layer uses instead of the dense (N d)^2 matrix:

    LowRank     the flat matrix (see `flat`) is L C R^T, with L and R of
                shape (N d, r) and a core C of shape (r, r); set by the zoo for
                rank1, rank2, remark_gencv, const and const_phi
    LowerExp    scale * 1_{s < t} diag(e^{(t - s) p}), or its adjoint; set by
                the zoo for volterra (p = 0) and expdiag

`scale_kernel` and `adjoint_kernel` keep either form.  `eta_of_kappa` and
`kappa_from_phi` keep a LowRank form (a rank-r kappa gives an eta of rank at
most 2r; the tail integral acts on R alone).  Every other constructor, and
every kernel the operator layer builds, carries none.  Construction checks
that the form reproduces the values to FACTOR_TOL of the form's magnitude
(its largest entry before cancellation), so the operator layer (which reads
`values`) and the path layer (which reads the form) always see one kernel.  Callers never inspect the form: `apply` (x -> x K^T),
`apply_adjoint` (x -> x K) and `diagonal_blocks` hide it, and fall back to the
dense values when there is none.

The rank-k constructors draw their orthonormal family from
e_n'(t) = sqrt(2/T) cos((n - 1/2) pi t / T), re-orthonormalized in the
Delta-weighted inner product of the grid (a weighted QR).  The correction is
O(Delta), so the sampled kernels stay within quadrature error of their
continuum counterparts, while rank-one spectral facts (eigenvalues, traces,
determinants) hold to machine precision on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
import re
import threading

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "TimeGrid",
    "MatrixKernel",
    "LowRank",
    "LowerExp",
    "make_grid",
    "kernel_from_values",
    "kernel_l2_norm",
    "adjoint_kernel",
    "compose_kernels",
    "eta_of_kappa",
    "s_of_kappa",
    "c_kernels",
    "kappa_from_phi",
    "scale_kernel",
    "orthonormal_columns",
    "kernel_zoo",
    "remark_pair",
    "KERNEL_GRAMMAR",
]

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=True)
class TimeGrid:
    """Uniform left-endpoint discretization of [0, T] into N steps."""

    horizon: float
    n_steps: int

    @property
    def step(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        """Left endpoints t_i = i * Delta, i = 0 .. N-1."""
        return np.arange(self.n_steps) * self.step


def make_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Validated TimeGrid constructor."""
    if not np.isfinite(horizon) or horizon <= 0:
        raise InvalidArgumentError(f"horizon must be a positive real, got {horizon}")
    if int(n_steps) != n_steps or n_steps < 2:
        raise InvalidArgumentError(f"n_steps must be an integer >= 2, got {n_steps}")
    return TimeGrid(float(horizon), int(n_steps))


@dataclass(frozen=True)
class LowRank:
    """Flat kernel matrix L C R^T in the (i, a) layout of `flat`."""

    left: np.ndarray  # (N d, r)
    core: np.ndarray  # (r, r)
    right: np.ndarray  # (N d, r)

    def apply(self, x: np.ndarray, grid: TimeGrid, adjoint: bool) -> np.ndarray:
        xf = x.reshape(x.shape[0], -1)
        if adjoint:  # x K = x L C R^T
            out = xf @ self.left @ self.core @ self.right.T
        else:  # x K^T = x R C^T L^T
            out = xf @ self.right @ self.core.T @ self.left.T
        return out.reshape(x.shape)

    def diagonal_blocks(self, grid: TimeGrid, dim: int) -> np.ndarray:
        n, r = grid.n_steps, self.core.shape[0]
        lc = self.left.reshape(n, dim, r) @ self.core
        return np.einsum("iak,ibk->iab", lc, self.right.reshape(n, dim, r))

    def rows(self, grid: TimeGrid, dim: int, i) -> np.ndarray:
        """Values kappa(t_i, t_j) for the row indices i, shape (len(i), N, d, d)."""
        n, r = grid.n_steps, self.core.shape[0]
        lc = self.left.reshape(n, dim, r)[i].reshape(-1, r) @ self.core
        block = lc @ self.right.T  # rows (i, a), columns (j, b)
        return block.reshape(len(i), dim, n, dim).transpose(0, 2, 1, 3)

    def magnitude(self, grid: TimeGrid) -> float:
        """Bound on |L| |C| |R|^T: the size of the terms before any cancellation."""
        return float(np.max(np.abs(self.left), axis=0) @ np.abs(self.core)
                     @ np.max(np.abs(self.right), axis=0))

    def scaled(self, factor: float) -> "LowRank":
        return LowRank(self.left, self.core * factor, self.right)

    def adjoint(self) -> "LowRank":
        return LowRank(self.right, np.ascontiguousarray(self.core.T), self.left)


# largest exponent of a weight e^{k step p} inside one block of the
# exponential recursion; the blocks are chained by a carry
EXP_RANGE = 16.0


@dataclass(frozen=True)
class LowerExp:
    """scale * 1_{s < t} diag(e^{(t - s) rates}); `transposed` holds its adjoint."""

    rates: np.ndarray  # (d,)
    scale: float = 1.0
    transposed: bool = False

    def apply(self, x: np.ndarray, grid: TimeGrid, adjoint: bool) -> np.ndarray:
        out = np.empty(x.shape)
        if adjoint == self.transposed:  # sum over earlier nodes
            _exp_causal_sum(x, self.rates, grid.step, self.scale, out)
        else:  # sum over later nodes: the same recursion run backwards in time
            _exp_causal_sum(x[:, ::-1], self.rates, grid.step, self.scale, out[:, ::-1])
        return out

    def diagonal_blocks(self, grid: TimeGrid, dim: int) -> np.ndarray:
        return np.zeros((grid.n_steps, dim, dim))

    def rows(self, grid: TimeGrid, dim: int, i) -> np.ndarray:
        n = grid.n_steps
        lag = np.subtract.outer(i, np.arange(n))
        if self.transposed:
            lag = -lag
        lag = np.maximum(lag, 0)  # lag 0 stands for every entry off the strict triangle
        out = np.zeros((len(i), n, dim, dim))
        for a, table in enumerate(self._lag_tables(grid)):
            out[:, :, a, a] = table[lag]
        return out

    def _lag_tables(self, grid: TimeGrid) -> np.ndarray:
        """scale e^{k step p} for lags k = 0 .. N-1, one row per rate; lag 0 is 0."""
        k = np.arange(grid.n_steps) * grid.step
        tables = self.scale * np.exp(np.multiply.outer(self.rates, k))
        tables[:, 0] = 0.0
        return tables

    def magnitude(self, grid: TimeGrid) -> float:
        return float(np.max(np.abs(self._lag_tables(grid))))

    def scaled(self, factor: float) -> "LowerExp":
        return LowerExp(self.rates, self.scale * factor, self.transposed)

    def adjoint(self) -> "LowerExp":
        return LowerExp(self.rates, self.scale, not self.transposed)


def _exp_causal_sum(x: np.ndarray, rates: np.ndarray, step: float, scale: float,
                    out: np.ndarray) -> None:
    """out[m, i, a] = scale sum_{j<i} e^{(i - j) step rates[a]} x[m, j, a] for
    (M, N, d) arrays or views; O(M N d).

    Inside a block starting at node i0 the sum is e^{k step p} times an
    exclusive cumulative sum of e^{-(j - i0) step p} x_j (k = i - i0); the
    carry c, the sum at the next block start, follows
    c <- e^{B step p} (c + block sum).  Blocks are short enough that every
    weight stays within e^{+-EXP_RANGE}, so nothing overflows however large
    the rates: one block for moderate rates, one step per block at worst.
    """
    n = x.shape[1]
    top = float(np.max(np.abs(rates))) * step
    block = n if top * n <= EXP_RANGE else max(1, int(EXP_RANGE / top))
    k = np.arange(block)[:, None] * step
    weight_in = np.exp(-k * rates)  # (block, d)
    weight_out = np.exp(k * rates) * scale
    jump = np.exp(block * step * rates)
    plain = not np.any(rates)  # Volterra: the weights are all one
    carry = None
    for i0 in range(0, n, block):
        width = min(block, n - i0)
        seg, xs = out[:, i0:i0 + width], x[:, i0:i0 + width]
        seg[:, 0] = 0.0
        if plain:
            np.cumsum(xs[:, :-1], axis=1, out=seg[:, 1:])
        else:
            np.multiply(xs[:, :-1], weight_in[:width - 1], out=seg[:, 1:])
            np.cumsum(seg[:, 1:], axis=1, out=seg[:, 1:])
        if carry is not None:
            seg += carry[:, None, :]
        if i0 + width < n:
            carry = (seg[:, -1] + xs[:, -1] * weight_in[width - 1]) * jump
        if not (plain and scale == 1.0):
            seg *= weight_out[:width]


# reconstruction of a factored form must match the values to this error,
# relative to the form's magnitude (its largest entry before cancellation)
FACTOR_TOL = 1e-12
_CHECK_ELEMENTS = 1 << 16  # kernel entries compared at a time by the construction checks
_FLAT_LOCK = threading.Lock()  # guards the lazy flat copy of a dense kernel


@dataclass(frozen=True)
class MatrixKernel:
    """Sampled d x d matrix kernel: values[i, j] ~ kappa(t_i, t_j), with an
    optional factored form of the same values (see the module docstring)."""

    grid: TimeGrid
    dim: int
    values: np.ndarray  # (N, N, d, d), read-only
    symmetric: bool = False
    factored: LowRank | LowerExp | None = None

    def __post_init__(self):
        v = self.values
        if v.shape != (self.grid.n_steps, self.grid.n_steps, self.dim, self.dim):
            raise InvalidArgumentError(
                f"kernel values shape {v.shape} does not match grid/dim "
                f"({self.grid.n_steps}, {self.grid.n_steps}, {self.dim}, {self.dim})"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("kernel values must be finite")
        if self.symmetric:
            asym = self._max_deviation(lambda i: np.transpose(v[:, i], (1, 0, 3, 2)))
            if asym > SYMMETRY_TOL and asym > SYMMETRY_TOL * np.max(np.abs(v)):
                raise InvalidArgumentError(
                    f"kernel flagged symmetric but max asymmetry is {asym:.3e}"
                )
        if self.factored is not None:
            self._check_factored()
        v.setflags(write=False)

    def _max_deviation(self, rows) -> float:
        """max |rows(i) - values[i]| over row slices i of about _CHECK_ELEMENTS
        entries, so that the construction checks stay in cache."""
        n, d = self.grid.n_steps, self.dim
        step = max(1, _CHECK_ELEMENTS // (n * d * d))
        err = 0.0
        for i0 in range(0, n, step):
            i = slice(i0, min(i0 + step, n))
            diff = rows(i) - self.values[i]
            err = max(err, float(np.max(np.abs(diff, out=diff))))
        return err

    def _check_factored(self):
        n, d, form = self.grid.n_steps, self.dim, self.factored
        if isinstance(form, LowRank):
            r = form.core.shape[0]
            if (form.core.shape != (r, r) or form.left.shape != (n * d, r)
                    or form.right.shape != (n * d, r)):
                raise InvalidArgumentError(
                    f"low-rank factors {form.left.shape}, {form.core.shape}, "
                    f"{form.right.shape} do not fit an ({n * d}, {n * d}) kernel"
                )
            factors = (form.left, form.core, form.right)
        elif np.shape(form.rates) != (d,):
            raise InvalidArgumentError(f"{d} rates expected, got {np.shape(form.rates)}")
        else:
            factors = (form.rates,)
        for factor in factors:
            factor.setflags(write=False)
        scale = form.magnitude(self.grid)
        err = self._max_deviation(lambda i: form.rows(self.grid, d, np.arange(n)[i]))
        if not err <= FACTOR_TOL * scale:
            raise InvalidArgumentError(
                f"factored form departs from the kernel values by {err:.3e} "
                f"(scale {scale:.3e})"
            )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """out[m, i] = sum_j kappa(t_i, t_j) x[m, j] for x of shape (M, N, d):
        the row-vector product x K^T of the flat matrix."""
        if self.factored is not None:
            return self.factored.apply(x, self.grid, adjoint=False)
        return (x.reshape(x.shape[0], -1) @ self._flat.T).reshape(x.shape)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """out[m, j] = sum_i kappa(t_i, t_j)^T x[m, i]: the product x K."""
        if self.factored is not None:
            return self.factored.apply(x, self.grid, adjoint=True)
        return (x.reshape(x.shape[0], -1) @ self._flat).reshape(x.shape)

    @property
    def _flat(self) -> np.ndarray:
        # a view for d = 1; for d > 1 one copy, made on the first dense product
        # and shared by every block of paths after it.  Chunks run on several
        # threads, so the copy is built under a lock, once.
        cached = self.__dict__.get("_flat_matrix")
        if cached is None:
            with _FLAT_LOCK:
                cached = self.__dict__.get("_flat_matrix")
                if cached is None:
                    cached = self.__dict__["_flat_matrix"] = flat(self.values)
        return cached

    def diagonal_blocks(self) -> np.ndarray:
        """kappa(t_i, t_i), shape (N, d, d)."""
        if self.factored is not None:
            return self.factored.diagonal_blocks(self.grid, self.dim)
        i = np.arange(self.grid.n_steps)
        return self.values[i, i]


def kernel_from_values(grid: TimeGrid, values: np.ndarray, symmetric: bool = False) -> MatrixKernel:
    """Build a kernel from tabulated values; scalar (N, N) arrays become d = 1."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        values = values[:, :, None, None]
    if values.ndim != 4 or values.shape[2] != values.shape[3]:
        raise InvalidArgumentError(f"expected (N, N, d, d) values, got shape {values.shape}")
    return MatrixKernel(grid, values.shape[2], np.ascontiguousarray(values), symmetric)


# ---------------------------------------------------------------------------
# flattening between (N, N, d, d) blocks and (N*d, N*d) matrices
# ---------------------------------------------------------------------------

def flat(values: np.ndarray) -> np.ndarray:
    """Block layout (i, a), (j, b): row i*d+a, column j*d+b."""
    n, _, d, _ = values.shape
    return np.ascontiguousarray(values.transpose(0, 2, 1, 3).reshape(n * d, n * d))


def unflat(matrix: np.ndarray, n_steps: int, dim: int) -> np.ndarray:
    return np.ascontiguousarray(
        matrix.reshape(n_steps, dim, n_steps, dim).transpose(0, 2, 1, 3)
    )


def _check_compatible(a: MatrixKernel, b: MatrixKernel):
    if a.grid != b.grid or a.dim != b.dim:
        raise InvalidArgumentError(
            f"kernel mismatch: grids ({a.grid}, {b.grid}), dims ({a.dim}, {b.dim})"
        )


def _symmetrize(values: np.ndarray) -> np.ndarray:
    # kills last-bit asymmetry from BLAS so the symmetric flag is exactly true
    return 0.5 * (values + np.transpose(values, (1, 0, 3, 2)))


# ---------------------------------------------------------------------------
# kernel algebra
# ---------------------------------------------------------------------------

def kernel_l2_norm(kappa: MatrixKernel) -> float:
    """Quadrature value of the L2 norm: (sum |kappa(t_i,t_j)|_F^2 Delta^2)^(1/2)."""
    return float(np.sqrt(np.sum(kappa.values ** 2)) * kappa.grid.step)


def adjoint_kernel(kappa: MatrixKernel) -> MatrixKernel:
    """kappa*(t,s) = kappa(s,t)^T; an involution and an L2 isometry."""
    vals = np.ascontiguousarray(np.transpose(kappa.values, (1, 0, 3, 2)))
    form = None if kappa.factored is None else kappa.factored.adjoint()
    return MatrixKernel(kappa.grid, kappa.dim, vals, kappa.symmetric, form)


def compose_kernels(a: MatrixKernel, b: MatrixKernel) -> MatrixKernel:
    """(a o b)(t_i, t_j) = sum_u a(t_i,t_u) b(t_u,t_j) Delta."""
    _check_compatible(a, b)
    n, d = a.grid.n_steps, a.dim
    prod = flat(a.values) @ flat(b.values) * a.grid.step
    return MatrixKernel(a.grid, d, unflat(prod, n, d))


def _adjoint_gram(kappa: MatrixKernel) -> np.ndarray:
    """Values of kappa* o kappa.  flat(kappa*) = flat(kappa)^T exactly, so the
    composition is one product of the flat matrix with itself and needs no
    transposed copy of the kernel."""
    m = flat(kappa.values)
    return unflat(m.T @ m * kappa.grid.step, kappa.grid.n_steps, kappa.dim)


def eta_of_kappa(kappa: MatrixKernel) -> MatrixKernel:
    """The symmetric kernel -(kappa + kappa* + kappa* o kappa).

    Its quadratic Wiener form is the exponent of the change-of-variables
    identity attached to the transformation induced by kappa.
    """
    adj = np.transpose(kappa.values, (1, 0, 3, 2))
    vals = _symmetrize(-(kappa.values + adj + _adjoint_gram(kappa)))
    form = kappa.factored
    if isinstance(form, LowRank):
        # K + K^T + K^T K Delta = [L R] [[0, C], [C^T, C^T G C]] [L R]^T, G = L^T L Delta
        left, core, right = form.left, form.core, form.right
        gram = core.T @ (left.T @ left * kappa.grid.step) @ core
        eta_core = np.block([[np.zeros_like(core), core], [core.T, 0.5 * (gram + gram.T)]])
        basis = np.hstack([left, right])
        form = LowRank(basis, -eta_core, basis)
    else:
        form = None
    return MatrixKernel(kappa.grid, kappa.dim, vals, symmetric=True, factored=form)


def s_of_kappa(kappa: MatrixKernel) -> MatrixKernel:
    """The symmetric kernel -(kappa + kappa*): eta without the quadratic term."""
    adj = adjoint_kernel(kappa)
    vals = _symmetrize(-(kappa.values + adj.values))
    return MatrixKernel(kappa.grid, kappa.dim, vals, symmetric=True)


def c_kernels(kappa: MatrixKernel, x: np.ndarray | None = None) -> MatrixKernel:
    """Covariance-type kernels of the harmonic-oscillator functionals.

    With a direction x in R^d:
        c(kappa; x)(t_i, t_j) = sum_u (kappa(t_u,t_j)^T x) outer (kappa(t_u,t_i)^T x) Delta,
    where (v outer w)[a, b] = w_a v_b.  Without x:
        c(kappa)(t_i, t_j)    = sum_u kappa(t_u,t_i)^T kappa(t_u,t_j) Delta.
    Both are symmetric and positive semi-definite as operators.
    """
    if x is None:
        return MatrixKernel(kappa.grid, kappa.dim, _symmetrize(_adjoint_gram(kappa)),
                            symmetric=True)
    x = np.asarray(x, dtype=float)
    if x.shape != (kappa.dim,):
        raise InvalidArgumentError(f"direction x has shape {x.shape}, expected ({kappa.dim},)")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("direction x must be finite")
    # proj[u, i, a] = (kappa(t_u, t_i)^T x)_a
    proj = np.einsum("uica,c->uia", kappa.values, x)
    vals = np.einsum("uia,ujb->ijab", proj, proj) * kappa.grid.step
    return MatrixKernel(kappa.grid, kappa.dim, _symmetrize(vals), symmetric=True)


def kappa_from_phi(phi: MatrixKernel) -> MatrixKernel:
    """Tail integral kappa_phi(t, s) = int_s^T phi(t, u) du.

    Discretized as the tail sum over left nodes u >= s, so a constant phi gives
    kappa_phi(t_i, t_j) = c (T - t_j) exactly at the nodes.
    """
    grid, dim = phi.grid, phi.dim
    tail = np.cumsum(phi.values[:, ::-1], axis=1)[:, ::-1] * grid.step
    form = phi.factored
    if isinstance(form, LowRank):
        # the tail sum over the second argument acts on the right factor alone
        right = form.right.reshape(grid.n_steps, dim, -1)
        right = np.cumsum(right[::-1], axis=0)[::-1] * grid.step
        form = LowRank(form.left, form.core, right.reshape(form.right.shape))
    else:
        form = None
    return MatrixKernel(grid, dim, np.ascontiguousarray(tail), factored=form)


def scale_kernel(kappa: MatrixKernel, factor: float) -> MatrixKernel:
    factor = float(factor)
    form = None if kappa.factored is None else kappa.factored.scaled(factor)
    return MatrixKernel(kappa.grid, kappa.dim, kappa.values * factor, kappa.symmetric, form)


# ---------------------------------------------------------------------------
# orthonormal family and the constructor zoo
# ---------------------------------------------------------------------------

def orthonormal_columns(grid: TimeGrid, count: int, kind: str = "cosine") -> np.ndarray:
    """Columns orthonormal in the Delta-weighted inner product sum v_i w_i Delta.

    kind="cosine" samples e_n'(t) = sqrt(2/T) cos((n-1/2) pi t / T) and applies
    a weighted QR; the result deviates from the raw samples by O(Delta).
    kind="legendre" provides an unrelated family for basis-independence checks.
    """
    if count < 1 or count > grid.n_steps:
        raise InvalidArgumentError(f"count must be in 1..{grid.n_steps}, got {count}")
    t = grid.nodes
    if kind == "cosine":
        n = np.arange(1, count + 1)
        raw = np.sqrt(2.0 / grid.horizon) * np.cos(
            (n[None, :] - 0.5) * np.pi * t[:, None] / grid.horizon
        )
    elif kind == "legendre":
        raw = np.polynomial.legendre.legvander(2.0 * t / grid.horizon - 1.0, count - 1)
    else:
        raise InvalidArgumentError(f"unknown orthonormal family {kind!r}")
    sqrt_dt = np.sqrt(grid.step)
    q, r = np.linalg.qr(raw * sqrt_dt)
    q = q * np.sign(np.diag(r))[None, :]  # keep each column aligned with its seed
    return q / sqrt_dt


def _rank_kernel(grid: TimeGrid, terms, symmetric: bool = False) -> MatrixKernel:
    """Scalar kernel sum_k coeff_k * e_row(t_i) e_col(t_j), with its LowRank form.

    A term (coeff, row, col) contributes coeff * e_row(t_i) e_col(t_j); this is
    the d = 1 reading of the tensor convention (x tensor y)[a,b] = y_a x_b with
    x the second-argument factor and y the first-argument one.  The factors
    hold only the basis functions the terms use.
    """
    nmax = max(max(r, c) for _, r, c in terms)
    basis = orthonormal_columns(grid, nmax)
    used = sorted({n for _, r, c in terms for n in (r, c)})
    core = np.zeros((len(used), len(used)))
    vals = np.zeros((grid.n_steps, grid.n_steps))
    for coeff, row, col in terms:
        vals += coeff * np.outer(basis[:, row - 1], basis[:, col - 1])
        core[used.index(row), used.index(col)] += coeff
    factors = np.ascontiguousarray(basis[:, [n - 1 for n in used]])
    return MatrixKernel(grid, 1, vals[:, :, None, None], symmetric,
                        LowRank(factors, core, factors))


def remark_pair(grid: TimeGrid, b: float, c: float) -> tuple[MatrixKernel, MatrixKernel]:
    """The non-injectivity pair (d = 1): distinct kernels with equal eta kernels
    whenever 1 + c^2 = (1 + b)^2.

        kappa_1(t,s) = b {e_1(t)e_1(s) + e_2(t)e_2(s)}        (symmetric)
        kappa_2(t,s) = c {e_2(t)e_1(s) - e_1(t)e_2(s)}        (antisymmetric)
    """
    k1 = _rank_kernel(grid, [(b, 1, 1), (b, 2, 2)], symmetric=True)
    k2 = _rank_kernel(grid, [(c, 2, 1), (-c, 1, 2)])
    return k1, k2


KERNEL_GRAMMAR = """\
kernel-spec := name | name ':' param (',' param)*
param       := key '=' value        value := real | int | '[' real (',' real)* ']'

  zero                          zero kernel
  volterra                      indicator 1_{s < t} I_d
  rank1:b=<r>[,n=<int>]         b * e_n(t) e_n(s), d = 1 (default n = 1)
  rank2:b=<r>,c=<r>[,member=<1|2>]
                                member 1: b {e1 e1 + e2 e2}; member 2 (default 1):
                                c {e2(t)e1(s) - e1(t)e2(s)}, the non-injectivity pair
  remark_gencv:b1=<r>,b2=<r>    b1 e1(t)e1(s) + b2 e2(t)e2(s), d = 1
  expdiag:p=[<r>,...]           1_{s < t} diag(e^{(t-s) p_k}), d = len(p)
  const:c=<r>                   constant kernel c I_d (a drift kernel phi)
  const_phi:c=<r>               tail integral of the constant drift phi == c I_d
"""

_ALIASES = {"remark12": "rank2"}


def _split_params(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _parse_spec(spec: str) -> tuple[str, dict]:
    spec = spec.strip()
    name, _, body = spec.partition(":")
    name = _ALIASES.get(name.strip(), name.strip())
    params = {}
    if body:
        for part in _split_params(body):
            key, eq, value = part.partition("=")
            if not eq or not key.strip():
                raise InvalidArgumentError(
                    f"malformed kernel parameter {part!r} in {spec!r}\n{KERNEL_GRAMMAR}"
                )
            params[key.strip()] = value.strip()
    return name, params


def _real(params: dict, key: str, spec: str, default=None) -> float:
    if key not in params:
        if default is not None:
            return default
        raise InvalidArgumentError(f"kernel spec {spec!r} misses parameter {key!r}\n{KERNEL_GRAMMAR}")
    try:
        return float(params.pop(key))
    except ValueError:
        raise InvalidArgumentError(f"parameter {key!r} of {spec!r} is not a real number")


def _real_list(params: dict, key: str, spec: str) -> list[float]:
    if key not in params:
        raise InvalidArgumentError(f"kernel spec {spec!r} misses parameter {key!r}\n{KERNEL_GRAMMAR}")
    raw = params.pop(key)
    m = re.fullmatch(r"\[(.*)\]", raw)
    if not m:
        raise InvalidArgumentError(f"parameter {key!r} of {spec!r} must look like [a,b,...]")
    try:
        return [float(x) for x in m.group(1).split(",") if x.strip()]
    except ValueError:
        raise InvalidArgumentError(f"parameter {key!r} of {spec!r} has non-numeric entries")


def _const_kernel(grid: TimeGrid, dim: int, c: float, symmetric: bool = False) -> MatrixKernel:
    """kappa == c I_d: rank d, with L = R = (I_d stacked N times) and C = c I_d."""
    n = grid.n_steps
    stacked = np.tile(np.eye(dim), (n, 1))
    return MatrixKernel(
        grid, dim, np.broadcast_to(c * np.eye(dim), (n, n, dim, dim)).copy(), symmetric,
        LowRank(stacked, c * np.eye(dim), stacked),
    )


def kernel_zoo(spec: str, grid: TimeGrid, dim: int = 1) -> MatrixKernel:
    """Construct a named kernel at the grid nodes.  See KERNEL_GRAMMAR."""
    name, params = _parse_spec(spec)
    n = grid.n_steps

    if name == "zero":
        kernel = MatrixKernel(grid, dim, np.zeros((n, n, dim, dim)), symmetric=True)
    elif name == "volterra":
        tri = np.tril(np.ones((n, n)), k=-1)
        kernel = MatrixKernel(grid, dim, tri[:, :, None, None] * np.eye(dim),
                              factored=LowerExp(np.zeros(dim)))
    elif name == "rank1":
        if dim != 1:
            raise InvalidArgumentError("rank1 kernels are scalar; pass dim=1")
        b = _real(params, "b", spec)
        mode = int(_real(params, "n", spec, default=1.0))
        kernel = _rank_kernel(grid, [(b, mode, mode)], symmetric=True)
    elif name == "rank2":
        if dim != 1:
            raise InvalidArgumentError("rank2 kernels are scalar; pass dim=1")
        b = _real(params, "b", spec)
        c = _real(params, "c", spec)
        member = int(_real(params, "member", spec, default=1.0))
        if member not in (1, 2):
            raise InvalidArgumentError(f"rank2 member must be 1 or 2, got {member}")
        kernel = remark_pair(grid, b, c)[member - 1]
    elif name == "remark_gencv":
        if dim != 1:
            raise InvalidArgumentError("remark_gencv kernels are scalar; pass dim=1")
        b1 = _real(params, "b1", spec)
        b2 = _real(params, "b2", spec)
        kernel = _rank_kernel(grid, [(b1, 1, 1), (b2, 2, 2)], symmetric=True)
    elif name == "expdiag":
        p = _real_list(params, "p", spec)
        if not p:
            raise InvalidArgumentError("expdiag needs at least one rate in p=[...]")
        d = len(p)
        t = grid.nodes
        diff = t[:, None] - t[None, :]
        tri = np.tril(np.ones((n, n)), k=-1)
        vals = np.zeros((n, n, d, d))
        for k, rate in enumerate(p):
            # the upper triangle is masked before exp, where e^{(t-s)p} may overflow
            vals[:, :, k, k] = tri * np.exp(np.maximum(diff, 0.0) * rate)
        kernel = MatrixKernel(grid, d, vals, factored=LowerExp(np.array(p)))
    elif name == "const":
        kernel = _const_kernel(grid, dim, _real(params, "c", spec), symmetric=True)
    elif name == "const_phi":
        kernel = kappa_from_phi(_const_kernel(grid, dim, _real(params, "c", spec)))
    else:
        raise InvalidArgumentError(f"unknown kernel name {name!r}\n{KERNEL_GRAMMAR}")

    if params:
        raise InvalidArgumentError(
            f"unknown parameters {sorted(params)} for kernel {name!r}\n{KERNEL_GRAMMAR}"
        )
    return kernel
