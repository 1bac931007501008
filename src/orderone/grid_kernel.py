"""Matrix-valued L2 kernels sampled on a uniform time grid.

A kernel kappa on [0,T]^2 with values in the d x d real matrices is sampled
at the left-endpoint nodes t_i = i*T/N; its matrix is the unweighted
(N d) x (N d) matrix

    matrix[(i, a), (j, b)] = kappa(t_i, t_j)[a, b]      (row i*d+a, column j*d+b),

the Nystrom matrix of the operator without its weight Delta = T/N.  `values`
is a read-only (N, N, d, d) view of it, values[i, j] = kappa(t_i, t_j); a
kernel given by such blocks is converted once, at construction.  All
integrals over [0,T] become sums weighted by Delta, so the kernel algebra is
plain matrix arithmetic on the matrices, or on LowRank factors:

    adjoint        kappa*(t,s)      = kappa(s,t)^T
    composition    (a o b)(t,s)     = int a(t,u) b(u,s) du
    eta kernel     eta(kappa)(t,s)  = -{kappa(t,s) + kappa(s,t)^T
                                        + int kappa(u,t)^T kappa(u,s) du}
    s kernel       s(kappa)(t,s)    = -{kappa(t,s) + kappa(s,t)^T}
    c kernels      c(kappa; x)(t,s) = int (kappa(u,s)^T x) (kappa(u,t)^T x)^T du
                   c(kappa)(t,s)    = int kappa(u,t)^T kappa(u,s) du
    tail integral  kappa_phi(t,s)   = int_s^T phi(t,u) du  (a sum over nodes u > s)

Symmetric kernels (eta(t,s)^T = eta(s,t), a symmetric matrix) carry a
`symmetric` flag that is validated at construction (`symmetry`); the eta/s/c
constructors always return flagged kernels.

Factored forms.  A kernel is given by its matrix or by one factored form
of it, never both.  The path layer (and, for LowRank, the operator layer)
reads the form instead of the dense (N d)^2 matrix:

    LowRank     the matrix is L C R^T, with L and R of shape (N d, r) and a
                core C of shape (r, r); set by the zoo for zero (const with
                c = 0), rank1, rank2, remark_gencv, const and const_phi
    LowerExp    1_{s < t} diag(e^{(t - s) p}); set by the zoo for volterra
                (p = 0) and expdiag

A factored kernel is its form: `kernel_from_form` stores a copy of the form
and no matrix, and `matrix` and `values` are multiplied out only when a
dense route first reads them (then kept).  The zoo, `eta_of_kappa`,
`s_of_kappa` and `kappa_from_phi` of a LowRank kernel (a rank-r kappa gives
an eta or s kernel of rank at most 2r; the tail integral acts on R alone)
and the operator layer's inverse and square-root kernels of a LowRank one
build kernels this way, and so does `c_kernels` of a LowRank kernel, the
form R (C^T L^T L C Delta) R^T.  `kernel_l2_norm` and `kernel_distance`
read LowRank kernels from their factors, and `kernel_l2_norm` reads a
LowerExp kernel from its rates.  The dense formulas run for every other
kernel, and stay the tested reference; the other constructors carry no form,
`scale_kernel` and `adjoint_kernel` among them: the algebra needs kappa*
only inside eta, and scaling only on spectra (`operator.Spectrum.scaled`).
The form's adjoint `apply`, the route the path functionals run, is the one
way to its entries: row r of the matrix is that `apply` of the unit row e_r,
so a route that reads the matrix and one that reads the form see one kernel,
entry for entry.  Construction checks only that the form fits the kernel; a
factored kernel is finite when its magnitude (its largest entry before
cancellation) is.  A form with one factor array for both sides and an
exactly symmetric core, L C L^T, is symmetric by construction and is not
scanned; any other kernel flagged symmetric is.  The path layer reaches
a kernel through `apply` (x -> x K^T), `apply_adjoint` (x -> x K) and
`diagonal_blocks`, which fall back to the matrix when there is no form; its
per-path reductions (q, h, psi) and `cm_trace_correction` read the factors
of a LowRank form directly.

The rank-k constructors draw their orthonormal family from
e_n'(t) = sqrt(2/T) cos((n - 1/2) pi t / T), re-orthonormalized in the
Delta-weighted inner product of the grid (a weighted QR).  The correction is
O(Delta), so the sampled kernels stay within quadrature error of their
continuum counterparts, while rank-one spectral facts (eigenvalues, traces,
determinants) hold to machine precision on the grid.

The zoo.  `kernel_zoo` reads one row of `_ZOO` per name: its builder, its
parameters (each with a text parser that checks its range, and a default, or
none when it is required) and the dimension d its parameters fix, if any:
1 for the scalar kernels, len(p) for expdiag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import re
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "TimeGrid",
    "MatrixKernel",
    "LowRank",
    "LowerExp",
    "make_grid",
    "kernel_from_values",
    "kernel_from_form",
    "kernel_l2_norm",
    "kernel_distance",
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
_CHECK_ELEMENTS = 1 << 16  # matrix entries a symmetry scan or a multiply-out forms at a time


def symmetry(matrix: np.ndarray) -> tuple[bool, float]:
    """(holds, max |A - A^T|) under the one symmetry rule of kernels and
    operator matrices alike: max |A - A^T| <= SYMMETRY_TOL * max(1, max |A|).
    Row slabs of about _CHECK_ELEMENTS entries right of the diagonal are
    compared with the matching column slabs, so no (N d)^2 temporary is
    formed; the magnitude, a pass over every entry, is read only past
    SYMMETRY_TOL."""
    n = matrix.shape[0]
    step = max(1, _CHECK_ELEMENTS // n)
    asym = 0.0
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        diff = matrix[r0:r1, r0:] - matrix[r0:, r0:r1].T
        asym = max(asym, float(np.max(np.abs(diff, out=diff))))
    if asym <= SYMMETRY_TOL:
        return True, asym
    magnitude = max(float(np.max(matrix)), -float(np.min(matrix)))
    return asym <= SYMMETRY_TOL * max(1.0, magnitude), asym


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


def integer(value, what: str, low: int, high: float = np.inf) -> int:
    """value as an int in [low, high]: a real of integral value, never
    truncated.  Raises InvalidArgumentError, naming value as what."""
    try:
        integral = int(value) == value
    except (TypeError, ValueError, OverflowError):  # not a number, nan or inf
        integral = False
    if not integral:
        raise InvalidArgumentError(f"{what} must be an integer, got {value!r}")
    if not low <= value <= high:
        upper = "" if high == np.inf else f" and <= {high}"
        raise InvalidArgumentError(f"{what} must be >= {low}{upper}, got {value}")
    return int(value)


def finite(value) -> bool:
    """Whether value is a finite real, or an array of them: False, not a
    TypeError, for anything that is not a real number."""
    try:
        return bool(np.all(np.isfinite(value))) and not np.iscomplexobj(value)
    except TypeError:
        return False


def make_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Validated TimeGrid constructor."""
    if not (finite(horizon) and horizon > 0):
        raise InvalidArgumentError(f"horizon must be a positive real, got {horizon}")
    return TimeGrid(float(horizon), integer(n_steps, "n_steps", 2))


@dataclass(frozen=True)
class LowRank:
    """Kernel matrix L C R^T in the (i, a) layout of `MatrixKernel.matrix`."""

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

    def magnitude(self, grid: TimeGrid) -> float:
        """Bound on |L| |C| |R|^T: the size of the terms before any cancellation."""
        return float(np.max(np.abs(self.left), axis=0) @ np.abs(self.core)
                     @ np.max(np.abs(self.right), axis=0))

    def scaled(self, factor: float) -> "LowRank":
        return LowRank(self.left, self.core * factor, self.right)

    def symmetric_by_construction(self) -> bool:
        """One factor array for both sides and an exactly symmetric core: L C L^T."""
        return self.left is self.right and np.array_equal(self.core, self.core.T)

    def minus(self, other: "LowRank") -> "LowRank":
        """The form of L C R^T - L' C' R'^T, stacked: [L L'] diag(C, -C') [R R']^T;
        one basis for both sides when each form has one."""
        left = np.hstack([self.left, other.left])
        shared = self.left is self.right and other.left is other.right
        right = left if shared else np.hstack([self.right, other.right])
        zero = np.zeros((self.core.shape[0], other.core.shape[1]))
        return LowRank(left, np.block([[self.core, zero], [zero.T, -other.core]]), right)

    def energy_core(self, grid: TimeGrid, dim: int, x: np.ndarray | None = None) -> np.ndarray:
        """C^T (L^T L) C, the r x r core of |y R C^T L^T|^2 = (y R) C^T (L^T L) C (y R)^T;
        with a direction x, L_x[i] = sum_a x_a L[(i, a)] in place of L."""
        left = self.left if x is None else self.left.reshape(
            grid.n_steps, dim, -1).transpose(0, 2, 1) @ x
        return self.core.T @ (left.T @ left) @ self.core

    def frobenius(self) -> float:
        """||L C R^T||_F = sqrt tr(C^T (L^T L) C (R^T R)), from the two Grams."""
        gram_left = self.left.T @ self.left
        gram_right = gram_left if self.right is self.left else self.right.T @ self.right
        return float(np.sqrt(max(np.trace(self.core.T @ gram_left @ self.core @ gram_right), 0.0)))


# largest exponent of a weight e^{k step p} inside one block of the
# exponential recursion; the blocks are chained by a carry
EXP_RANGE = 16.0


@dataclass(frozen=True)
class LowerExp:
    """The strictly lower kernel 1_{s < t} diag(e^{(t - s) rates})."""

    rates: np.ndarray  # (d,)

    def apply(self, x: np.ndarray, grid: TimeGrid, adjoint: bool) -> np.ndarray:
        out = np.empty(x.shape)
        if not adjoint:  # sum over earlier nodes
            _exp_causal_sum(x, self.rates, grid.step, out)
            return out
        # sum over later nodes: the same recursion run backwards in time, on a
        # contiguous reversed copy, so that no slab is read at a negative stride
        _exp_causal_sum(np.ascontiguousarray(x[:, ::-1]), self.rates, grid.step, out)
        return out[:, ::-1]

    def diagonal_blocks(self, grid: TimeGrid, dim: int) -> np.ndarray:
        return np.zeros((grid.n_steps, dim, dim))

    def magnitude(self, grid: TimeGrid) -> float:
        """max e^{k step p}: the largest entry, at lag k = 1 or N - 1."""
        k = np.array([1, grid.n_steps - 1]) * grid.step
        return float(np.max(np.exp(np.multiply.outer(self.rates, k))))


def _multiply_out(form: LowRank | LowerExp, grid: TimeGrid, dim: int) -> np.ndarray:
    """The (N d)^2 matrix of a form, read through its adjoint `apply`, the
    route of the path functionals: row r is e_r K for the unit row e_r, in
    slabs of about _CHECK_ELEMENTS entries."""
    n = grid.n_steps
    nd = n * dim
    out = np.empty((nd, nd))
    step = max(1, _CHECK_ELEMENTS // nd)
    for r0 in range(0, nd, step):
        h = min(step, nd - r0)  # the unit rows e_r0 .. e_{r0+h-1}
        out[r0:r0 + h] = form.apply(np.eye(h, nd, r0).reshape(h, n, dim), grid,
                                    adjoint=True).reshape(h, nd)
    return out


def _exp_causal_sum(x: np.ndarray, rates: np.ndarray, step: float, out: np.ndarray) -> None:
    """out[m, i, a] = sum_{j<i} e^{(i - j) step rates[a]} x[m, j, a] for
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
    weight_out = np.exp(k * rates)
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
        if not plain:
            seg *= weight_out[:width]


@dataclass(frozen=True)
class MatrixKernel:
    """Sampled d x d matrix kernel: its unweighted (N d) x (N d) matrix, or a
    factored form of that matrix (see the module docstring), never both.
    `values` is given as that matrix or as (N, N, d, d) blocks
    values[i, j] = kappa(t_i, t_j), converted once; it reads back as the
    read-only (N, N, d, d) view of `matrix`.  It owns the array it is given
    and makes it read-only: its callers pass temporaries, where a copy would
    add an (N d)^2 transient; `kernel_from_values` copies a caller's array,
    and `kernel_from_form` a caller's form.

    A kernel given no values (None) is its form alone: `matrix` and `values`
    are multiplied out through the form's `apply` on their first read, by a
    dense route, and kept; no factored route reads them."""

    grid: TimeGrid
    dim: int
    values: np.ndarray | None = field(repr=False)  # (N, N, d, d), a read-only view of `matrix`
    symmetric: bool = False
    factored: LowRank | LowerExp | None = None
    matrix: np.ndarray = field(init=False, repr=False, compare=False)  # (N d, N d), read-only

    def __post_init__(self):
        n, d, form = self.grid.n_steps, self.dim, self.factored
        if (self.values is None) == (form is None):
            raise InvalidArgumentError("a kernel is given by its values or by its form, not both")
        if self.values is None:
            object.__delattr__(self, "values")  # built on first read, by __getattr__
            self._check_factored()
            if self.symmetric and not (isinstance(form, LowRank)
                                       and form.symmetric_by_construction()):
                self._check_symmetric(_multiply_out(form, self.grid, d))
            return
        v = np.asarray(self.values, dtype=float)
        if v.shape not in ((n, n, d, d), (n * d, n * d)):
            raise InvalidArgumentError(
                f"kernel values shape {v.shape} does not match grid/dim: expected "
                f"({n}, {n}, {d}, {d}) blocks or the ({n * d}, {n * d}) matrix"
            )
        # blocks (i, j, a, b) -> rows (i, a), columns (j, b): a view where the
        # layouts coincide (contiguous d = 1 blocks or matrix), else one copy
        m = np.ascontiguousarray(v.transpose(0, 2, 1, 3) if v.ndim == 4 else v)
        m = m.reshape(n * d, n * d)
        if not np.all(np.isfinite(m)):
            raise InvalidArgumentError("kernel values must be finite")
        if self.symmetric:
            self._check_symmetric(m)
        v.setflags(write=False)  # the matrix may be a view of it
        self._keep(m)

    def __getattr__(self, name):
        # reached only for `matrix` and `values` of a kernel given by its
        # form, before their first read: multiply the form out, once
        form = self.__dict__.get("factored")
        if name not in ("matrix", "values") or form is None:
            raise AttributeError(name)
        self._keep(_multiply_out(form, self.grid, self.dim))
        return self.__dict__[name]

    def _keep(self, m: np.ndarray):
        """Store the matrix, read-only, and `values`, its (N, N, d, d) view."""
        n, d = self.grid.n_steps, self.dim
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "values", m.reshape(n, d, n, d).transpose(0, 2, 1, 3))

    @staticmethod
    def _check_symmetric(m: np.ndarray):
        holds, asym = symmetry(m)
        if not holds:
            raise InvalidArgumentError(f"kernel flagged symmetric but max asymmetry is {asym:.3e}")

    def _check_factored(self):
        """The form must fit the kernel: factors of its shape, or one rate
        per dimension.  The factors become read-only, and the kernel is
        finite when the form's magnitude is: no entry exceeds it."""
        n, d, form = self.grid.n_steps, self.dim, self.factored
        nd = n * d
        if isinstance(form, LowRank):
            r = form.core.shape[0]
            if (form.core.shape != (r, r) or form.left.shape != (nd, r)
                    or form.right.shape != (nd, r)):
                raise InvalidArgumentError(
                    f"low-rank factors {form.left.shape}, {form.core.shape}, "
                    f"{form.right.shape} do not fit an ({nd}, {nd}) kernel"
                )
            factors = (form.left, form.core, form.right)
        elif np.shape(form.rates) != (d,):
            raise InvalidArgumentError(f"{d} rates expected, got {np.shape(form.rates)}")
        else:
            factors = (form.rates,)
        for factor in factors:
            factor.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):  # decided just below
            scale = form.magnitude(self.grid)
        if not np.isfinite(scale):
            raise InvalidArgumentError("kernel values must be finite")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """out[m, i] = sum_j kappa(t_i, t_j) x[m, j] for x of shape (M, N, d):
        the row-vector product x K^T of the matrix."""
        if self.factored is not None:
            return self.factored.apply(x, self.grid, adjoint=False)
        return (x.reshape(x.shape[0], -1) @ self.matrix.T).reshape(x.shape)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """out[m, j] = sum_i kappa(t_i, t_j)^T x[m, i]: the product x K."""
        if self.factored is not None:
            return self.factored.apply(x, self.grid, adjoint=True)
        return (x.reshape(x.shape[0], -1) @ self.matrix).reshape(x.shape)

    def diagonal_blocks(self) -> np.ndarray:
        """kappa(t_i, t_i), shape (N, d, d), read-only: computed on the first
        call and kept, so a quadratic form reads it once per kernel, not once
        per block."""
        blocks = self.__dict__.get("_diagonal")
        if blocks is None:
            if self.factored is not None:
                blocks = self.factored.diagonal_blocks(self.grid, self.dim)
            else:
                i = np.arange(self.grid.n_steps)
                blocks = self.values[i, i]
            blocks.setflags(write=False)
            object.__setattr__(self, "_diagonal", blocks)
        return blocks


def kernel_from_values(grid: TimeGrid, values: np.ndarray, symmetric: bool = False) -> MatrixKernel:
    """Build a kernel from a copy of tabulated values, so the caller's array
    stays its own; scalar (N, N) arrays, the matrix of a d = 1 kernel, become
    d = 1."""
    values = np.array(values, dtype=float)
    if values.ndim == 2:
        return MatrixKernel(grid, 1, values, symmetric)
    if values.ndim != 4 or values.shape[2] != values.shape[3]:
        raise InvalidArgumentError(f"expected (N, N, d, d) values, got shape {values.shape}")
    return MatrixKernel(grid, values.shape[2], values, symmetric)


def kernel_from_form(grid: TimeGrid, dim: int, form: LowRank | LowerExp,
                     symmetric: bool = False) -> MatrixKernel:
    """The kernel whose matrix is that of a LowRank or LowerExp form, given by
    a copy of that form alone, so the caller's arrays stay its own (one copy
    when L is R): the matrix is multiplied out only if a dense route reads
    it."""
    if isinstance(form, LowRank):
        left = np.array(form.left, dtype=float)
        right = left if form.right is form.left else np.array(form.right, dtype=float)
        form = LowRank(left, np.array(form.core, dtype=float), right)
    else:
        form = LowerExp(np.array(form.rates, dtype=float))
    return MatrixKernel(grid, dim, None, symmetric, form)


def _check_compatible(a: MatrixKernel, b: MatrixKernel):
    if a.grid != b.grid or a.dim != b.dim:
        raise InvalidArgumentError(
            f"kernel mismatch: grids ({a.grid}, {b.grid}), dims ({a.dim}, {b.dim})"
        )


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    # kills last-bit asymmetry from BLAS so the symmetric flag is exactly true
    return 0.5 * (matrix + matrix.T)


# ---------------------------------------------------------------------------
# kernel algebra
# ---------------------------------------------------------------------------

def kernel_l2_norm(kappa: MatrixKernel) -> float:
    """Quadrature value of the L2 norm: (sum |kappa(t_i,t_j)|_F^2 Delta^2)^(1/2),
    the Frobenius norm of the matrix times Delta; read from the factors of a
    LowRank form (`LowRank.frobenius`), and in closed form from the rates of a
    LowerExp one: Delta^2 sum_a sum_{k=1}^{N-1} (N - k) e^{2 k Delta p_a}, the
    N - k entries of lag k counted once."""
    form, grid = kappa.factored, kappa.grid
    if isinstance(form, LowRank):
        return form.frobenius() * grid.step
    if isinstance(form, LowerExp):
        lag = np.arange(1, grid.n_steps)
        with np.errstate(over="ignore"):  # past the float range, as the dense sum is
            squares = np.exp(np.multiply.outer(2.0 * grid.step * form.rates, lag))
        return float(np.sqrt(np.sum(squares @ (grid.n_steps - lag))) * grid.step)
    v = kappa.matrix.reshape(-1)  # a view, not an (N d)^2 temporary
    return float(np.sqrt(v @ v) * kappa.grid.step)


def kernel_distance(a: MatrixKernel, b: MatrixKernel, c: float = 1.0) -> float:
    """The L2 norm of a - c b.  When both kernels are LowRank, it is read from
    the stacked form L D R^T (`LowRank.minus`) as ||R_L D R_R^T||_F, with
    R_L and R_R the triangular factors of thin QRs of L and R (one QR when
    L is R): the Grams of `LowRank.frobenius` cancel where a and c b nearly
    agree, which would lose half the digits of a small distance.  Otherwise
    it is read from the difference of the matrices."""
    _check_compatible(a, b)
    if isinstance(a.factored, LowRank) and isinstance(b.factored, LowRank):
        form = a.factored.minus(b.factored.scaled(c))
        r_left = np.linalg.qr(form.left, mode="r")
        r_right = r_left if form.right is form.left else np.linalg.qr(form.right, mode="r")
        return float(np.linalg.norm(r_left @ form.core @ r_right.T)) * a.grid.step
    return kernel_l2_norm(MatrixKernel(a.grid, a.dim, a.matrix - c * b.matrix))


def adjoint_kernel(kappa: MatrixKernel) -> MatrixKernel:
    """kappa*(t,s) = kappa(s,t)^T, the transposed matrix; an involution and an
    L2 isometry."""
    return MatrixKernel(kappa.grid, kappa.dim, kappa.matrix.T, kappa.symmetric)


def compose_kernels(a: MatrixKernel, b: MatrixKernel) -> MatrixKernel:
    """(a o b)(t_i, t_j) = sum_u a(t_i,t_u) b(t_u,t_j) Delta."""
    _check_compatible(a, b)
    return MatrixKernel(a.grid, a.dim, a.matrix @ b.matrix * a.grid.step)


def eta_of_kappa(kappa: MatrixKernel) -> MatrixKernel:
    """The symmetric kernel -(kappa + kappa* + kappa* o kappa).

    Its quadratic Wiener form is the exponent of the change-of-variables
    identity attached to the transformation induced by kappa.
    """
    k = kappa.factored
    if isinstance(k, LowRank):
        # K^T K Delta = R C^T G C R^T with G = L^T L Delta
        gram = k.core.T @ (k.left.T @ k.left * kappa.grid.step) @ k.core
        form = _symmetric_sum(k, -0.5 * (gram + gram.T))
        return kernel_from_form(kappa.grid, kappa.dim, form, symmetric=True)
    m = kappa.matrix
    vals = _symmetrize(-(m + m.T + m.T @ m * kappa.grid.step))
    return MatrixKernel(kappa.grid, kappa.dim, vals, symmetric=True)


def s_of_kappa(kappa: MatrixKernel) -> MatrixKernel:
    """The symmetric kernel -(kappa + kappa*): eta without the quadratic term."""
    k = kappa.factored
    if isinstance(k, LowRank):
        form = _symmetric_sum(k, np.zeros_like(k.core))
        return kernel_from_form(kappa.grid, kappa.dim, form, symmetric=True)
    vals = _symmetrize(-(kappa.matrix + kappa.matrix.T))
    return MatrixKernel(kappa.grid, kappa.dim, vals, symmetric=True)


def _symmetric_sum(form: LowRank, extra: np.ndarray) -> LowRank:
    """The form of -(K + K^T) + R extra R^T for K = L C R^T:
    [L R] [[0, -C], [-C^T, extra]] [L R]^T."""
    core = form.core
    basis = np.hstack([form.left, form.right])
    return LowRank(basis, np.block([[np.zeros_like(core), -core], [-core.T, extra]]), basis)


def direction(x, dim: int) -> np.ndarray:
    """x as a finite direction in R^dim, the direction of the oscillator functionals."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise InvalidArgumentError(f"direction x has shape {x.shape}, expected ({dim},)")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("direction x must be finite")
    return x


def c_kernels(kappa: MatrixKernel, x: np.ndarray | None = None) -> MatrixKernel:
    """Covariance-type kernels of the harmonic-oscillator functionals.

    With a direction x in R^d:
        c(kappa; x)(t_i, t_j) = sum_u (kappa(t_u,t_j)^T x) outer (kappa(t_u,t_i)^T x) Delta,
    where (v outer w)[a, b] = w_a v_b.  Without x:
        c(kappa)(t_i, t_j)    = sum_u kappa(t_u,t_i)^T kappa(t_u,t_j) Delta.
    Both are symmetric and positive semi-definite as operators.  Of a LowRank
    kappa = L C R^T the c kernel is K^T K Delta = R (C^T (L^T L) C Delta) R^T,
    with L_x in place of L when x is given (`LowRank.energy_core`): a form
    with one factor array for both sides, of the rank of kappa.
    """
    form, n, d = kappa.factored, kappa.grid.n_steps, kappa.dim
    if x is not None:
        x = direction(x, d)
    if isinstance(form, LowRank):
        core = _symmetrize(form.energy_core(kappa.grid, d, x) * kappa.grid.step)
        return kernel_from_form(kappa.grid, d, LowRank(form.right, core, form.right),
                                symmetric=True)
    m = kappa.matrix
    if x is None:
        return MatrixKernel(kappa.grid, d, _symmetrize(m.T @ m * kappa.grid.step),
                            symmetric=True)
    # proj[u, (i, a)] = (kappa(t_u, t_i)^T x)_a
    proj = x @ m.reshape(n, d, n * d)
    vals = proj.T @ proj * kappa.grid.step
    return MatrixKernel(kappa.grid, d, _symmetrize(vals), symmetric=True)


def _sum_of_later(a: np.ndarray, axis: int) -> np.ndarray:
    """out[i] = sum_{j>i} a[j] along axis: a reversed exclusive cumulative sum."""
    out = np.zeros_like(a)
    np.cumsum(np.moveaxis(a, axis, 0)[:0:-1], axis=0, out=np.moveaxis(out, axis, 0)[-2::-1])
    return out


def kappa_from_phi(phi: MatrixKernel) -> MatrixKernel:
    """Tail integral kappa_phi(t, s) = int_s^T phi(t, u) du.

    Discretized as the tail sum over the nodes u > s, so a constant phi gives
    kappa_phi(t_i, t_j) = c (T - t_{j+1}) at the nodes, and the Wiener integral
    of kappa_phi is the linear drift sum_u phi(t_i, t_u) W(t_u) Delta exactly.
    """
    grid, dim, form = phi.grid, phi.dim, phi.factored
    n = grid.n_steps
    if isinstance(form, LowRank):
        # the tail sum over the second argument acts on the right factor alone
        right = _sum_of_later(form.right.reshape(n, dim, -1), axis=0) * grid.step
        return kernel_from_form(grid, dim, LowRank(form.left, form.core,
                                                   right.reshape(form.right.shape)))
    tail = _sum_of_later(phi.matrix.reshape(n * dim, n, dim), axis=1)  # [(i, a), j, b]
    tail *= grid.step
    return MatrixKernel(grid, dim, tail.reshape(n * dim, n * dim))


def scale_kernel(kappa: MatrixKernel, factor: float) -> MatrixKernel:
    """factor * kappa, the scaled matrix."""
    return MatrixKernel(kappa.grid, kappa.dim, float(factor) * kappa.matrix, kappa.symmetric)


# ---------------------------------------------------------------------------
# orthonormal family and the constructor zoo
# ---------------------------------------------------------------------------

def orthonormal_columns(grid: TimeGrid, count: int) -> np.ndarray:
    """Columns orthonormal in the Delta-weighted inner product sum v_i w_i Delta:
    the samples of e_n'(t) = sqrt(2/T) cos((n-1/2) pi t / T) after a weighted
    QR, which moves them by O(Delta)."""
    if count < 1 or count > grid.n_steps:
        raise InvalidArgumentError(f"count must be in 1..{grid.n_steps}, got {count}")
    n = np.arange(1, count + 1)
    raw = np.sqrt(2.0 / grid.horizon) * np.cos(
        (n[None, :] - 0.5) * np.pi * grid.nodes[:, None] / grid.horizon
    )
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
    for coeff, row, col in terms:
        core[used.index(row), used.index(col)] += coeff
    factors = np.ascontiguousarray(basis[:, [n - 1 for n in used]])
    return kernel_from_form(grid, 1, LowRank(factors, core, factors), symmetric)


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
  const_phi:c=<r>               tail integral of the constant drift phi == c I_d,
                                c (T - t_{j+1}) I_d: the sum over the nodes u > s
"""

def parse_kernel_spec(spec: str) -> tuple[str, dict]:
    """(name, {key: value text}) of a kernel spec; see KERNEL_GRAMMAR."""
    spec = spec.strip()
    name, _, body = spec.partition(":")
    name = name.strip()
    params = {}
    if body:
        for part in re.split(r",(?![^\[]*\])", body):  # the commas outside [...]
            key, eq, value = part.partition("=")
            if not eq or not key.strip():
                raise InvalidArgumentError(
                    f"malformed kernel parameter {part!r} in {spec!r}\n{KERNEL_GRAMMAR}"
                )
            if key.strip() in params:
                raise InvalidArgumentError(f"repeated kernel parameter {key.strip()!r} in {spec!r}")
            params[key.strip()] = value.strip()
    return name, params


def _real(text: str) -> float:
    """A finite real."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"must be a finite real, got {text}")
    return value


def _integer(text: str, low: int = 1, high: float = np.inf) -> int:
    """An integer in [low, high], written as a real of integral value."""
    return integer(float(text), "value", low, high)


def _real_list(text: str) -> list[float]:
    """'[a,b,...]': a non-empty list of finite reals."""
    m = re.fullmatch(r"\[(.*)\]", text)
    if not m or not m.group(1).strip():
        raise ValueError("must look like [a,b,...], with at least one entry")
    return [_real(x) for x in m.group(1).split(",")]


def _const_kernel(grid: TimeGrid, dim: int, c: float, symmetric: bool = False) -> MatrixKernel:
    """kappa == c I_d: rank d, with L = R = (I_d stacked N times) and C = c I_d."""
    stacked = np.tile(np.eye(dim), (grid.n_steps, 1))
    return kernel_from_form(grid, dim, LowRank(stacked, c * np.eye(dim), stacked), symmetric)


class _Zoo(NamedTuple):
    build: Callable       # (grid, dim, **parameters) -> MatrixKernel
    params: dict = {}     # parameter -> (text parser, default); default None: required
    dim: Callable | None = None  # (**parameters) -> the d they fix; None: any d


_REAL = (_real, None)  # a required real parameter
_SCALAR = lambda **_: 1  # the dim column of a scalar kernel: d = 1 only
# one row per kernel name; see KERNEL_GRAMMAR
_ZOO = {
    "zero": _Zoo(lambda grid, dim: _const_kernel(grid, dim, 0.0, symmetric=True)),
    "volterra": _Zoo(lambda grid, dim: kernel_from_form(grid, dim, LowerExp(np.zeros(dim)))),
    "rank1": _Zoo(lambda grid, dim, b, n: _rank_kernel(grid, [(b, n, n)], symmetric=True),
                  {"b": _REAL, "n": (_integer, 1)}, _SCALAR),
    "rank2": _Zoo(lambda grid, dim, b, c, member: remark_pair(grid, b, c)[member - 1],
                  {"b": _REAL, "c": _REAL, "member": (lambda text: _integer(text, high=2), 1)},
                  _SCALAR),
    "remark_gencv": _Zoo(lambda grid, dim, b1, b2: _rank_kernel(
        grid, [(b1, 1, 1), (b2, 2, 2)], symmetric=True), {"b1": _REAL, "b2": _REAL}, _SCALAR),
    "expdiag": _Zoo(lambda grid, dim, p: kernel_from_form(grid, dim, LowerExp(np.array(p))),
                    {"p": (_real_list, None)}, lambda p: len(p)),
    "const": _Zoo(lambda grid, dim, c: _const_kernel(grid, dim, c, symmetric=True), {"c": _REAL}),
    "const_phi": _Zoo(lambda grid, dim, c: kappa_from_phi(_const_kernel(grid, dim, c)),
                      {"c": _REAL}),
}


def kernel_zoo(spec: str, grid: TimeGrid, dim: int | None = None) -> MatrixKernel:
    """Construct a named kernel at the grid nodes.  See KERNEL_GRAMMAR.

    Each parameter of the spec is read by its row's parser, and an unknown
    one is rejected, before the kernel is built.  dim None is the d the spec
    fixes (len(p) for expdiag, else 1); another d than it fixes is rejected,
    and an integral real is read as its int."""
    name, params = parse_kernel_spec(spec)
    if dim is not None:
        dim = integer(dim, "dim", 1)
    if name not in _ZOO:
        raise InvalidArgumentError(f"unknown kernel name {name!r}\n{KERNEL_GRAMMAR}")
    row = _ZOO[name]
    unknown = sorted(set(params) - set(row.params))
    if unknown:
        raise InvalidArgumentError(
            f"unknown parameters {unknown} for kernel {name!r}\n{KERNEL_GRAMMAR}")
    values = {}
    for key, (parse, default) in row.params.items():
        if key not in params and default is None:
            raise InvalidArgumentError(
                f"kernel spec {spec!r} misses parameter {key!r}\n{KERNEL_GRAMMAR}")
        try:
            values[key] = parse(params[key]) if key in params else default
        except ValueError as exc:
            raise InvalidArgumentError(f"parameter {key!r} of {spec!r}: {exc}") from None
    fixed = None if row.dim is None else row.dim(**values)
    if dim is None:
        dim = fixed or 1
    elif fixed is not None and dim != fixed:
        raise InvalidArgumentError(f"kernel {spec!r} has d = {fixed}, but dim={dim} was given")
    return row.build(grid, dim, **values)
