"""Nystrom realization of the induced Hilbert-Schmidt operators and their
spectral calculus.

A kernel kappa acts on L2([0,T]; R^d) (identified with the Cameron-Martin
space via h <-> h') through (B_kappa h)'(t) = int kappa(t,s) h'(s) ds.  On the
grid this is the (N d) x (N d) matrix

    M[(i,a), (j,b)] = kappa(t_i, t_j)[a,b] * Delta,

whose Frobenius norm equals the kernel's L2 norm.  An operator is addressed
by its kernel, which stores this matrix without the weight Delta (see
`grid_kernel`); `assemble` is the one way into the dense (N d)^2 operator
matrix, the stored matrix times Delta, used by the dense route and by the
checks.  The quantities:

    lambda_max   top eigenvalue of a symmetric M (the Rayleigh supremum)
    det2         regularized determinant det(I+M) e^{-tr M}, in log domain
    inverse      kappa_hat with (I+M)(I+M_hat) = I
    kappa_s      square root construction: M_s = sqrt(I - M_eta) - I for a
                 symmetric eta with lambda_max < 1

The d = 2 regularization matters because the operators are Hilbert-Schmidt but
generally not trace class; on the grid every matrix has a trace, and det2 of
the matrix converges to the operator det2 under grid refinement.

One factorisation per operator.  Everything asked of a symmetric M is a
function of one eigensolve (`spectrum`: eigvalsh, or eigh when eigenvectors
are needed), and everything asked of I + M is read from one LU
(`factor_identity_plus`).  `lambda_max`, `det2`, `inverse_kernel` and
`kappa_s` are thin readers of these.

The route is chosen by the form of the kernel (see `grid_kernel`).
A LowRank kernel, M = Delta L C R^T of rank r, is reduced once, by one
route (`_reduced`): a thin QR gives M = Q K Q^T with Q orthonormal and K of
order r (L = R) or 2r (distinct factors), and spec M = spec K with zeros,
det2(I + M) = det2(I + K) and (I + M)^{-1} - I = Q ((I + K)^{-1} - I) Q^T
(Golub and Van Loan, Matrix Computations, 4th ed., 5.2 and 2.1.4).  Every
other operator, and every bare matrix, is its own K, with no Q:

    factorisation         LowRank kernel                      dense
    spectrum              thin QR [L R] = Q [R_L R_R], then   eigvalsh/eigh of M
                            eigvalsh/eigh of the core
                            K = Delta R_L C R_R^T; the other
                            N d - 2r eigenvalues are zero
    factor_identity_plus  LU of I + K:                        LU of I + M
                            det2 = det(I + K) e^{-tr K}
    kernels read          inverse (Q, X / Delta, Q),          dense values
                            X = -(I + K)^{-1} K;
                            sqrt and inverse sqrt
                            (QU, f(1 - w) / Delta, QU)

The symmetry a spectrum needs is the kernel's `symmetric` flag, validated
at construction by the same routine (`grid_kernel.symmetry`), or given by
construction for a LowRank form L C L^T; only a bare matrix, or the matrix
of a kernel that is not flagged, is scanned.  An embedded check must not
read the factorisation it checks, or it becomes a tautology.  So
det2_sqrt_identity takes Sylvester's route (`sylvester_matrix`): for a
LowRank B_eta = Delta L C R^T, det2(I - c B_eta) is det2 of the order-r
matrix I_r - c Delta C R^T L, read from its own LU and built from the Gram
R^T L, which shares no QR with `_reduced` and no eigensolve; a dense B_eta
is factorised itself.  eta_roundtrip builds eta of kappa_s from kappa_s's
own factors (V and f(1 - w)) and measures its distance to c eta, whose
factors no eigensolve touched (`grid_kernel.kernel_distance`: the stacked
form of a LowRank difference, the matrices otherwise).  Every kind that
starts at `Scenario.factor` checks its gate eigensolve against its LU by
Carleman's product formula (`det2_product`; B. Simon, Trace Ideals, 2nd
ed., ch. 9).  det2_consistency reads the Sylvester matrix of B_kappa_phi,
of order r for a LowRank form.  det_dual_route reads det(I + lam B^T B)
from the kernel's own form (`gram_logdet`): Sylvester's determinant of
order r from the Grams of L and R for a LowRank kernel, a closed form per
rate for a LowerExp one whatever f, and the slogdet of the dense matrix
for a dense kernel.

The c kernel of the harmonic scenario, B_c = B^T B, takes the route of the
kernel's form too.  Of a LowRank kernel it is the form R (C^T L^T L C) R^T
(`grid_kernel.c_kernels`), which `_reduced` takes to order r.  Of a
LowerExp kernel B is block diagonal over the rates, each block strictly
lower, so det(I + lam B_c) is one scalar Riccati recursion per rate
(`c_logdet`, O(N d), no matrix) and the gate is 0; only a direction x or
a non-constant f, whose image kernel (I + lam B_c)^{-1/2} - I is dense,
takes it to the dense route.

Per scenario, with the form its hot-path factorisations take (kernel: that
of the scenario's kernel; LowRank for zero, rank1, rank2, remark_gencv,
const and const_phi; dense for volterra and expdiag, whose LowerExp matrix
a dense route multiplies out on its first read):

    scenario        form     hot path                               check routes
    transf          kernel   eigvalsh B_eta: gate, guard            det2_product
                             LU I+B_k: det2
    inverse         kernel   eigvalsh B_eta: gate, guard, image     det2_product
                               gate 1 - 1/(1 - lambda_min)          det2_inverse: the two
                             LU I+B_k: det2, khat by lu_solve         det2s against a
                                                                      factored tr(B B_khat)
                                                                    composition_roundtrip:
                                                                      paths through k, khat
                                                                    rn_normalization: own
                                                                      LU of I+B_khat, MC mass
    surjective      kernel   one eigh B_eta per scenario, its       det2_sqrt_identity: one
                               lambdas included; per factor c,        LU of I-cS per factor,
                               from c w and V: gate, guard,           S = Delta C R^T L of
                               det2(I-cB_eta), kappa_s, and khat_s    order r (dense: B_eta)
                               when f is not constant               eta_roundtrip: eta of
                                                                      kappa_s against c eta,
                                                                      in stacked factors
    harmonic        kernel   LowerExp, f = 1, no x: one Riccati     det_dual_route (no x),
                               recursion per rate: det; gate 0        I + lam B^T B:
                             else eigvalsh/eigh of B_c, read at       LowerExp: closed form
                               the factor -lam: gate, det, c'_hat     LowRank: Sylvester's,
                               (LowerExp: dense B_c)                    of order r
                                                                      dense: slogdet
    cameron_martin  kernel   eigvalsh B_eta: gate, guard            det2_product
                             LU I+B_kphi: det2                      det2_consistency: slogdet
                                                                      of I+S, S Sylvester's
                                                                    trace_formula: tail
                                                                      sums of phi
    gencv           LowRank  eigvalsh B_s; its own prologue:        det2_product; closed
                               eigvalsh B_eta, LU I+B_k: det2         forms of lambda_s,
                                                                      lambda_eta, det2
    finite_dim      dense    eigvalsh B_eta(A) on unit steps: gate  det2_product
                             LU I+A: det2, |det| = |det2| e^{tr A}
    integrability   kernel   one eigh B_eta, as surjective at       det2_sqrt_identity and
                               factor 1 with f = 1 (no khat_s)        eta_roundtrip, as
                                                                      surjective
                                                                    bound: closed-form
                                                                      exponential moment

No factorisation outlives the verification that made it: a dense one is as
large as the operator, so none is attached to a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import warnings

import numpy as np
import scipy.linalg as sla

from .errors import (
    InvalidArgumentError,
    NotContractiveError,
    PreconditionError,
    SingularOperatorError,
)
from .grid_kernel import (
    LowerExp,
    LowRank,
    MatrixKernel,
    TimeGrid,
    eta_of_kappa,
    kernel_from_form,
    kernel_l2_norm,
    symmetry,
)

__all__ = [
    "Det2",
    "Spectrum",
    "IdentityPlusLU",
    "SpectralSummary",
    "assemble",
    "kernel_from_matrix",
    "spectrum",
    "factor_identity_plus",
    "lambda_max",
    "det2",
    "det2_matrix",
    "sylvester_matrix",
    "det2_product",
    "trace",
    "trace_product",
    "inverse_kernel",
    "inverse_kernel_from",
    "kappa_s",
    "c_logdet",
    "gram_logdet",
    "spectral_summary",
    "GATE_MARGIN",
    "PIVOT_RTOL",
]

#: all "lambda < 1" gates actually require lambda < 1 - GATE_MARGIN
GATE_MARGIN = 1e-8
#: an LU pivot below PIVOT_RTOL * max pivot marks I + M as singular
PIVOT_RTOL = 1e-14


def assemble(kappa: MatrixKernel) -> np.ndarray:
    """Nystrom matrix M[(i,a),(j,b)] = kappa(t_i,t_j)[a,b] Delta, (N d, N d):
    the kernel's stored matrix, weighted."""
    return kappa.matrix * kappa.grid.step


def kernel_from_matrix(
    matrix: np.ndarray, grid: TimeGrid, dim: int, symmetric: bool = False
) -> MatrixKernel:
    """Invert the assemble weighting: the kernel stores matrix / Delta."""
    return MatrixKernel(grid, dim, np.asarray(matrix, dtype=float) / grid.step, symmetric)


def _require_symmetric(matrix: np.ndarray, what: str):
    holds, asym = symmetry(matrix)
    if not holds:
        raise PreconditionError(f"{what} requires a symmetric operator (asymmetry {asym:.3e})")


def _dense(op: MatrixKernel | np.ndarray) -> np.ndarray:
    """The operator matrix: assembled from a kernel, as given when bare."""
    return assemble(op) if isinstance(op, MatrixKernel) else np.asarray(op, dtype=float)


def _reduced(op: MatrixKernel | np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(Q, K) with M = Q K Q^T and Q with orthonormal columns, for a LowRank
    kernel M = Delta L C R^T: one thin QR of L, or of [L R] when R is another
    array, gives L = Q R_L, R = Q R_R and K = Delta R_L C R_R^T.  Anything
    else is (None, M)."""
    form = op.factored if isinstance(op, MatrixKernel) else None
    if not isinstance(form, LowRank):
        return None, _dense(op)
    if form.left is form.right:
        q, r_left = np.linalg.qr(form.left)
        r_right = r_left
    else:
        q, r = np.linalg.qr(np.hstack([form.left, form.right]))
        r_left, r_right = np.hsplit(r, [form.core.shape[0]])
    return q, op.grid.step * (r_left @ form.core @ r_right.T)


def c_logdet(kappa: MatrixKernel, lam: float) -> float:
    """log det(I + lam B_c) of a LowerExp kernel, B_c = B^T B its c kernel's
    operator, in O(N d) and with no matrix: B is block diagonal over the
    rates, and each block's determinant is one scalar Riccati recursion
    (`_riccati_logdet`)."""
    return _lower_exp_sum(kappa, lam, _riccati_logdet)


def _lower_exp_sum(kappa: MatrixKernel, lam: float, per_rate) -> float:
    """The sum over the rates p of a LowerExp kappa of per_rate(Delta p, lam Delta^2, N).
    A rate so large that the sum leaves the float range (e^{2 Delta p} past it)
    raises, as the dense route does on the inf entries of its B_c."""
    form, grid = kappa.factored, kappa.grid
    if not isinstance(form, LowerExp):
        raise PreconditionError("the Riccati route needs a LowerExp kernel")
    c = lam * grid.step ** 2
    try:
        value = math.fsum(per_rate(grid.step * p, c, grid.n_steps) for p in form.rates.tolist())
    except (OverflowError, ValueError):  # math.exp past the range; inf - inf in fsum
        value = math.inf
    if not math.isfinite(value):
        raise InvalidArgumentError(
            f"log det(I + lam B^T B) of the rates {form.rates.tolist()} at lam = {lam} "
            f"on {grid.n_steps} steps is past the float range")
    return value


def _riccati_logdet(rate_step: float, c: float, n: int) -> float:
    """log det(I + c K^T K) for the n x n strictly lower K[i, j] = alpha^(i - j),
    alpha = e^{rate_step}: K x is the state s_{i+1} = alpha (s_i + x_i), s_0 = 0,
    so I + c K K^T is the covariance of the observations sqrt(c) s_i + e_i of
    white x and e, and its log determinant the sum of the log innovation
    variances of the Kalman filter: P_0 = 0, S_i = 1 + c P_i,
    P_{i+1} = alpha^2 (P_i / S_i + 1), log det = sum_i log1p(c P_i).  It runs
    on Q_i = c P_i, Q_{i+1} = alpha^2 (Q_i / (1 + Q_i) + c), which stays below
    alpha^2 (1 + c) however small c is.  At c = 0 it is 0."""
    if c == 0.0:
        return 0.0
    alpha2, q, terms = math.exp(2.0 * rate_step), 0.0, []
    for _ in range(n):
        terms.append(math.log1p(q))
        q = alpha2 * (q / (1.0 + q) + c)
    return math.fsum(terms)


def _lower_exp_gram_logdet(rate_step: float, c: float, n: int) -> float:
    """log det(I + c K^T K) for K[i, j] = alpha^(i - j), j < i, alpha = e^{rate_step},
    in closed form.  K = alpha Z A^{-1} with Z the down shift and A = I - alpha Z
    of determinant 1, so I + c K^T K = A^{-T} T A^{-1}, T = A^T A + c alpha^2 Z^T Z
    tridiagonal (diagonal 1 + alpha^2 (1 + c), its last entry 1, off-diagonal
    -alpha), and det T = alpha^{n-1} [sinh n theta - alpha sinh (n-1) theta] / sinh theta,
    cosh theta = (1 + alpha^2 (1 + c)) / (2 alpha).

    With w, w' = e^{rate_step +- theta} the roots of
    w^2 - (1 + alpha^2 (1 + c)) w + alpha^2 = 0, X = w - 1 and Y = 1 - w' (both
    positive, X Y = alpha^2 c and X + Y = s, the root of the discriminant),
    det T = [Y w^n + X w'^n] / s.  X or Y, whichever has the sign of
    w + w' - 2, is computed without cancellation and the other from the
    product, and the log is taken around the larger of the two terms, so
    no theta divides and the error vanishes with c, at theta = 0 included.
    It is 0 at c = 0."""
    if c == 0.0:
        return 0.0
    a2c = math.exp(2.0 * rate_step) * c
    em = math.expm1(rate_step)  # alpha - 1
    # two roots, not the root of the product, which overflows past rate_step = 177
    s = math.sqrt(em * em + a2c) * math.sqrt((2.0 + em) ** 2 + a2c)
    e = math.expm1(2.0 * rate_step) + a2c  # w + w' - 2 = X - Y
    if e >= 0.0:
        x = 0.5 * (s + e)
        y = a2c / x
    else:
        y = 0.5 * (s - e)
        x = a2c / y
    log_w = math.log1p(x)
    # log w' from Y where w' is near 1, and as log(alpha^2 / w) where it is small
    log_w2 = math.log1p(-y) if y < 0.5 else 2.0 * rate_step - log_w
    spread = max(n * (log_w - log_w2), 0.0)  # 2 n theta
    if x <= y:  # X w'^n / s <= Y w^n / s
        return n * log_w + math.log1p(-(x / s) * -math.expm1(-spread))
    if spread < 700.0:  # e^{2 n theta} within the float range
        return n * log_w2 + math.log1p((y / s) * math.expm1(spread))
    # log(Y / s + (X / s) e^{-2 n theta}), each term in the log domain: Y / s
    # underflows where alpha^2 is near the float range and c tiny
    log_s = math.log(s)
    big, small = math.log(y) - log_s, math.log(x) - log_s - spread
    big, small = max(big, small), min(big, small)
    return n * log_w + big + math.log1p(math.exp(small - big))


def gram_logdet(kappa: MatrixKernel, lam: float) -> float:
    """log det(I + lam B^T B), along a route that shares nothing with the
    spectrum of the c kernel or with `c_logdet`: the closed form of
    `_lower_exp_gram_logdet` per rate of a LowerExp kernel; for a LowRank
    kernel B = Delta L C R^T, Sylvester's determinant of order r from the
    other side, det(I + lam B B^T) = det(I_r + lam Delta^2 C (R^T R) C^T (L^T L)),
    read from the two Grams; the slogdet of the dense matrix otherwise."""
    form, grid = kappa.factored, kappa.grid
    if isinstance(form, LowerExp):
        return _lower_exp_sum(kappa, lam, _lower_exp_gram_logdet)
    if isinstance(form, LowRank):
        gram_left, gram_right = form.left.T @ form.left, form.right.T @ form.right
        m = (lam * grid.step ** 2) * (form.core @ gram_right @ form.core.T @ gram_left)
    else:
        b = assemble(kappa)
        m = lam * (b.T @ b)
    return float(np.linalg.slogdet(np.eye(m.shape[0]) + m)[1])


@dataclass(frozen=True)
class Det2:
    """Regularized determinant det2(I + B) as sign * exp(log_modulus).

    A numerically rank-deficient I + B is reported as singular = True
    (sign 0, log_modulus -inf), never as a signed zero value.
    """

    sign: int
    log_modulus: float
    singular: bool = False

    @property
    def value(self) -> float:
        """sign * exp(log_modulus); the signed infinity past the float range."""
        if self.singular:
            return 0.0
        with np.errstate(over="ignore"):
            return self.sign * float(np.exp(self.log_modulus))


@dataclass(frozen=True)
class Spectrum:
    """One eigensolve of a symmetric operator matrix M: eigenvalues w
    (ascending) and, when they were asked for, eigenvectors V, plus `zeros`
    further eigenvalues that are exactly zero and not stored (the null space
    of a low-rank M, whose V has fewer columns than rows).

    The gate, det(I - M), det2(I - M) and every kernel V f(w) V^T of the
    spectral calculus are read from it; f(1 - 0) = 0 for both kernels, so
    the implicit zeros add nothing to them.  `grid` is None for a bare matrix.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None
    grid: TimeGrid | None = None
    dim: int = 1
    zeros: int = 0

    @property
    def lambda_max(self) -> float:
        top = float(self.values[-1])
        return max(top, 0.0) if self.zeros else top

    @property
    def lambda_min(self) -> float:
        bottom = float(self.values[0])
        return min(bottom, 0.0) if self.zeros else bottom

    def scaled(self, factor: float) -> "Spectrum":
        """The spectrum of factor * M, read from this one: the eigenvalues
        scaled (reversed for factor < 0, so they stay ascending) and the same
        eigenvectors, shared, not copied."""
        order = slice(None, None, -1 if factor < 0 else 1)
        vectors = None if self.vectors is None else self.vectors[:, order]
        # + 0.0 turns the -0.0 of a zero eigenvalue under factor < 0 into 0.0
        values = factor * self.values[order] + 0.0
        return Spectrum(values, vectors, self.grid, self.dim, self.zeros)

    def logdet_complement(self) -> float:
        """log det(I - M) = sum log(1 - w); requires lambda_max < 1."""
        return float(np.sum(np.log1p(-self.values)))

    def det2_complement(self) -> Det2:
        """det2(I - M) = prod (1 - w) e^w, positive when lambda_max < 1."""
        return Det2(sign=1, log_modulus=float(np.sum(np.log1p(-self.values) + self.values)))

    def sqrt_kernel(self) -> MatrixKernel:
        """The square-root kernel kappa_s: matrix V (sqrt(1 - w) - 1) V^T = sqrt(I - M) - I."""
        return self._complement_kernel(lambda c: np.sqrt(c) - 1.0)

    def inverse_sqrt_kernel(self) -> MatrixKernel:
        """The inverse kernel of kappa_s: matrix V ((1 - w)^(-1/2) - 1) V^T."""
        return self._complement_kernel(lambda c: 1.0 / np.sqrt(c) - 1.0)

    def _complement_kernel(self, f) -> MatrixKernel:
        """The kernel of V f(1 - w) V^T: LowRank (V, f(1 - w) / Delta, V) when
        V has fewer columns than rows, dense otherwise."""
        v = self.vectors
        if v is None or self.grid is None:
            raise PreconditionError("building a kernel needs eigenvectors of a grid operator")
        c = 1.0 - self.values
        # analytically >= 1 - lambda > 0; any negative value is pure roundoff
        c = np.maximum(c, PIVOT_RTOL * float(np.max(np.abs(c))))
        if v.shape[1] < v.shape[0]:
            form = LowRank(v, np.diag(f(c) / self.grid.step), v)
            return kernel_from_form(self.grid, self.dim, form, symmetric=True)
        m = (v * f(c)) @ v.T
        m = 0.5 * (m + m.T)
        return kernel_from_matrix(m, self.grid, self.dim, symmetric=True)


def spectrum(op: MatrixKernel | np.ndarray, vectors: bool = False) -> Spectrum:
    """Eigen-decomposition of a symmetric operator: eigvalsh, or eigh when
    the eigenvectors are needed; of K when the kernel is a symmetric LowRank
    kernel M = Q K Q^T (`_reduced`; see the module docstring)."""
    grid, dim, flagged = None, 1, False
    if isinstance(op, MatrixKernel):
        grid, dim, flagged = op.grid, op.dim, op.symmetric
    basis, m = _reduced(op) if flagged else (None, _dense(op))
    zeros = 0
    if basis is not None:
        m = 0.5 * (m + m.T)
        zeros = basis.shape[0] - basis.shape[1]
    elif not flagged:
        _require_symmetric(m, "spectrum")
    if vectors:
        w, v = np.linalg.eigh(m)
        return Spectrum(w, v if basis is None else basis @ v, grid, dim, zeros)
    return Spectrum(np.linalg.eigvalsh(m), None, grid, dim, zeros)


def lambda_max(op: MatrixKernel | np.ndarray) -> float:
    """Largest eigenvalue of a symmetric operator (sup of the Rayleigh quotient)."""
    return spectrum(op).lambda_max


@dataclass(frozen=True)
class IdentityPlusLU:
    """One LU factorisation, of I + K for M = Q K Q^T as `_reduced` gives it:
    `basis` Q has orthonormal columns, or is None when K is M itself.
    det2(I + M) = det2(I + K), and (I + M)^{-1} - I = Q X Q^T with X the
    `inverse_matrix`, are both read from it."""

    matrix: np.ndarray  # K
    lu: np.ndarray
    piv: np.ndarray
    det2: Det2
    basis: np.ndarray | None = None

    def inverse_matrix(self) -> np.ndarray:
        """X = (I + K)^{-1} - I, computed as -(I + K)^{-1} K, which keeps the
        result Hilbert-Schmidt-shaped instead of differencing two
        near-identity matrices."""
        if self.det2.singular:
            raise SingularOperatorError("I + B_kappa is numerically singular; no inverse kernel")
        return -sla.lu_solve((self.lu, self.piv), self.matrix, check_finite=False)


def factor_identity_plus(b: MatrixKernel | np.ndarray) -> IdentityPlusLU:
    """LU of I + K, M = Q K Q^T reduced by `_reduced`, with
    det2(I + b) = det(I + K) e^{-tr K} in log domain; K is of order r or 2r
    when b is a kernel with a LowRank form, and is b itself otherwise.

    Rank deficiency: a pivot below 1e-8 of the pivot scale is suspicious; it
    is confirmed singular when the smallest singular value of I + b falls
    below PIVOT_RTOL times the largest (partial-pivoting LU alone inflates a
    zero eigenvalue to roughly n * eps * growth and cannot decide at 1e-14).
    I + b acts as the identity off the span of Q, so when Q has fewer
    columns than rows the pivots and singular values of I + K are padded
    with ones.
    """
    basis, k = _reduced(b)
    a = np.array(k, order="F")  # Fortran order lets LAPACK factorise in place
    a[np.diag_indices_from(a)] += 1.0
    with warnings.catch_warnings():  # an exactly singular I + K is decided below
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a, overwrite_a=True, check_finite=False)
    diag = np.diag(lu)
    pad = [1.0] if basis is not None and basis.shape[1] < basis.shape[0] else []
    pivots = np.append(np.abs(diag), pad)
    singular = False  # an empty I + b is the identity of no space: det2 = 1
    if pivots.size and pivots.min() <= 1e-8 * pivots.max():
        sv = np.append(sla.svdvals(np.eye(k.shape[0]) + k, check_finite=False), pad)
        singular = sv.max() == 0.0 or sv.min() <= PIVOT_RTOL * sv.max()
    if singular:
        det2 = Det2(sign=0, log_modulus=-np.inf, singular=True)
    else:
        flips = np.count_nonzero(piv != np.arange(len(piv))) + np.count_nonzero(diag < 0)
        det2 = Det2(sign=-1 if flips % 2 else 1,
                    log_modulus=float(np.sum(np.log(np.abs(diag))) - np.trace(k)))
    return IdentityPlusLU(k, lu, piv, det2, basis)


def det2_matrix(b: np.ndarray) -> Det2:
    """det2(I + b) = det(I + b) e^{-tr b}, read from the LU of I + b."""
    return factor_identity_plus(b).det2


def det2(op: MatrixKernel | np.ndarray) -> Det2:
    return factor_identity_plus(op).det2


def sylvester_matrix(op: MatrixKernel | np.ndarray) -> np.ndarray:
    """A matrix S with det(I + x S) = det(I + x M) and tr S = tr M for every
    real x: for a LowRank kernel, M = Delta L C R^T, the matrix
    Delta C (R^T L) of order r, built from the Gram R^T L (Sylvester's
    identity det(I + A B) = det(I + B A)); the operator matrix M otherwise.
    So det2_matrix(x S) is det2(I + x M) along a route that shares no QR
    with `_reduced` and no eigensolve."""
    form = op.factored if isinstance(op, MatrixKernel) else None
    if not isinstance(form, LowRank):
        return _dense(op)
    return op.grid.step * (form.core @ (form.right.T @ form.left))


def trace(kappa: MatrixKernel) -> float:
    """Matrix trace of M, read from the diagonal blocks without assembling M:
    sum_i tr kappa(t_i, t_i) Delta, the quadrature of the diagonal integral
    (meaningful when the kernel is continuous and the operator trace class)."""
    return float(np.einsum("iaa->", kappa.diagonal_blocks())) * kappa.grid.step


def trace_product(a: MatrixKernel, b: MatrixKernel) -> float:
    """Matrix trace of M_a M_b without assembling either: for two LowRank
    kernels Delta^2 tr(C_a (R_a^T L_b) C_b (R_b^T L_a)), from two Grams of
    order r; the sum of M_a[i, j] M_b[j, i] otherwise."""
    fa, fb = a.factored, b.factored
    if isinstance(fa, LowRank) and isinstance(fb, LowRank):
        core = fa.core @ (fa.right.T @ fb.left) @ fb.core @ (fb.right.T @ fa.left)
        return float(np.trace(core)) * a.grid.step ** 2
    return float(np.einsum("ij,ji->", a.matrix, b.matrix)) * a.grid.step ** 2


def det2_product(gate: Spectrum, det2: Det2, hs_norm: float) -> tuple[float, float]:
    """(log det2(I - B_eta), 2 log|det2(I + B)| - ||kappa||^2) for eta the eta
    kernel of kappa, from the gate spectrum of B_eta and from det2(I + B) and
    the L2 norm: the two sides of Carleman's product formula for
    I - B_eta = (I + B)^*(I + B), equal whenever I + B is invertible."""
    return gate.det2_complement().log_modulus, 2.0 * det2.log_modulus - hs_norm ** 2


def inverse_kernel(kappa: MatrixKernel) -> MatrixKernel:
    """The kernel kappa_hat with B_kappa_hat = (I + B_kappa)^{-1} - I."""
    return inverse_kernel_from(factor_identity_plus(kappa), kappa)


def inverse_kernel_from(lu: IdentityPlusLU, kappa: MatrixKernel) -> MatrixKernel:
    """The inverse kernel of kappa, read from the LU of I + B_kappa: with X
    its `inverse_matrix`, the LowRank kernel (Q, X / Delta, Q) when the LU
    has a basis Q, the dense kernel of X otherwise; symmetric when kappa and
    X are."""
    x = lu.inverse_matrix()
    sym = kappa.symmetric and symmetry(x)[0]
    if sym:
        x = 0.5 * (x + x.T)
    if lu.basis is None:
        return kernel_from_matrix(x, kappa.grid, kappa.dim, symmetric=sym)
    form = LowRank(lu.basis, x / kappa.grid.step, lu.basis)
    return kernel_from_form(kappa.grid, kappa.dim, form, sym)


def kappa_s(eta: MatrixKernel) -> MatrixKernel:
    """Square-root kernel: B = sqrt(I - B_eta) - I, the unique symmetric kernel
    with I + B >= 0 whose eta kernel reproduces eta.

    Requires lambda_max(B_eta) < 1 - GATE_MARGIN (the exponential
    integrability regime); raises NotContractiveError otherwise.
    """
    if not eta.symmetric:
        raise PreconditionError("kappa_s requires a symmetric kernel")
    spec = spectrum(eta, vectors=True)
    lam = spec.lambda_max
    if lam >= 1.0 - GATE_MARGIN:
        raise NotContractiveError(
            f"lambda_max(B_eta) = {lam:.12g} >= 1 - {GATE_MARGIN}; no square-root regime"
        )
    return spec.sqrt_kernel()


@dataclass(frozen=True)
class SpectralSummary:
    """Flat summary of the spectral data attached to a kernel.

    lambda_max is the gate eigenvalue Lambda(B_eta(kappa)); det2 refers to
    det2(I + B_kappa).  Serializes to the flat JSON object used by the CLI.
    """

    lambda_max: float
    det2_sign: int
    det2_log_modulus: float
    trace: float
    hs_norm: float
    singular: bool = False

    def to_dict(self) -> dict:
        return {
            "lambda_max": self.lambda_max,
            "det2_sign": self.det2_sign,
            "det2_log_modulus": self.det2_log_modulus if np.isfinite(self.det2_log_modulus) else None,
            "trace": self.trace,
            "hs_norm": self.hs_norm,
            "singular": self.singular,
        }


def spectral_summary(kappa: MatrixKernel) -> SpectralSummary:
    d2 = det2(kappa)
    lam = lambda_max(eta_of_kappa(kappa))
    return SpectralSummary(
        lambda_max=lam,
        det2_sign=d2.sign,
        det2_log_modulus=d2.log_modulus,
        trace=trace(kappa),
        hs_norm=kernel_l2_norm(kappa),
        singular=d2.singular,
    )
