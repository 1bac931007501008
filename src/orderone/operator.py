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
For a LowRank kernel, M = Delta L C R^T of rank r, every quantity is an
r x r or 2r x 2r problem (the matrix determinant lemma and Woodbury's
identity; Golub and Van Loan, Matrix Computations, 4th ed., 2.1.4); every
other operator, and every bare matrix, takes the dense route:

    factorisation         LowRank kernel                      dense
    spectrum              thin QR [L R] = Q [R_L R_R], then   eigvalsh/eigh of M
                            eigvalsh/eigh of the core
                            Delta R_L C R_R^T; the other
                            N d - 2r eigenvalues are zero
    factor_identity_plus  LU of K = I_r + Delta C R^T L:      LU of I + M
                            det2 = det K e^{-Delta tr(C R^T L)}
    kernels read          inverse (L, -K^{-1} C, R);          dense values
                            sqrt and inverse sqrt
                            (QU, f(1 - w) / Delta, QU)

The symmetry a spectrum needs is the kernel's `symmetric` flag, validated
at construction by the same routine (`grid_kernel.symmetry`); only a bare
matrix, or the matrix of a kernel that is not flagged, is scanned.  An
embedded check must not read the factorisation it checks, or it becomes a
tautology: the determinant checks below factorise the operator matrix
itself (dense, whatever the form), and eta_roundtrip composes kernel values.
Per scenario, with the form its hot-path factorisations take (kernel: that
of the scenario's kernel; LowRank for rank1, rank2, remark_gencv, const and
const_phi, dense for volterra and expdiag):

    scenario        form     hot path                               check routes
    transf          kernel   eigvalsh B_eta: gate, guard            (identity only)
                             LU I+B_k: det2
    inverse         kernel   eigvalsh B_eta: gate, guard, image     composition_roundtrip:
                               gate 1 - 1/(1 - lambda_min)            paths through k, khat
                             LU I+B_k: det2, khat by lu_solve       rn_normalization: own
                                                                      LU of I+B_khat, MC mass
    surjective      kernel   one eigh B_eta per scenario, its       det2_sqrt_identity: one
                               lambdas included; per factor c,        dense LU of I-cB_eta
                               from c w and V: gate, guard,           per factor
                               det2(I-cB_eta), kappa_s, and khat_s  eta_roundtrip: eta of
                               when f is not constant                 kappa_s by composition
    harmonic        dense    eigvalsh B_{-c} (eigh when f is not    det_dual_route: slogdet
                               constant): gate, det(I+B_c), c'_hat    of I + B^T B (no x)
    cameron_martin  kernel   eigvalsh B_eta: gate, guard            det2_consistency:
                             LU I+B_kphi: det2                        slogdet of I+B_kphi
                                                                    trace_formula: tail
                                                                      sums of phi
    gencv           LowRank  eigvalsh B_s; gate and det2 read from  closed forms of
                               the inner transf's eigvalsh and LU     lambda_s, lambda_eta, det2
    integrability   kernel   eigvalsh B_eta: gate, guard            closed-form bound, oracle

No factorisation outlives the verification that made it: a dense one is as
large as the operator, so none is attached to a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "det2_product_identity_check",
    "trace",
    "inverse_kernel",
    "inverse_kernel_from",
    "kappa_s",
    "injectivity_witness",
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


def _orthonormal_basis(form: LowRank) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, R_L, R_R) with L = Q R_L and R = Q R_R, Q with orthonormal columns:
    one thin QR of L, or of [L R] when R is another array."""
    if form.left is form.right:
        q, r = np.linalg.qr(form.left)
        return q, r, r
    q, r = np.linalg.qr(np.hstack([form.left, form.right]))
    k = form.core.shape[0]
    return q, r[:, :k], r[:, k:]


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
        return Spectrum(factor * self.values[order], vectors, self.grid, self.dim, self.zeros)

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
    the eigenvectors are needed; of the small core when the kernel is a
    symmetric LowRank kernel (see the module docstring)."""
    if isinstance(op, MatrixKernel):
        grid, dim, flagged, form = op.grid, op.dim, op.symmetric, op.factored
    else:
        grid, dim, flagged, form = None, 1, False, None
    zeros, basis = 0, None
    if flagged and isinstance(form, LowRank):
        # M = Delta L C R^T = Q (Delta R_L C R_R^T) Q^T
        basis, r_left, r_right = _orthonormal_basis(form)
        m = grid.step * (r_left @ form.core @ r_right.T)
        m = 0.5 * (m + m.T)
        zeros = basis.shape[0] - basis.shape[1]
    else:
        m = _dense(op)
        if not flagged:
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
    """One LU factorisation: of I + M, or, when `form` holds M = L D R^T
    (D = Delta C of a LowRank kernel), of the capacitance K = I_r + D R^T L.
    det2(I + M) and the inverse (I + M)^{-1} - I are both read from it."""

    matrix: np.ndarray | None  # M; None on the capacitance route, which never reads it
    lu: np.ndarray
    piv: np.ndarray
    det2: Det2
    form: LowRank | None = None

    def _require_regular(self):
        if self.det2.singular:
            raise SingularOperatorError("I + B_kappa is numerically singular; no inverse kernel")

    def inverse_form(self) -> LowRank:
        """(I + M)^{-1} - I = L (-K^{-1} D) R^T by Woodbury's identity, K^{-1} D
        solved from the capacitance LU; for a LowRank-factorised M only."""
        self._require_regular()
        core = -sla.lu_solve((self.lu, self.piv), self.form.core, check_finite=False)
        return LowRank(self.form.left, core, self.form.right)

    def inverse_matrix(self) -> np.ndarray:
        """(I + M)^{-1} - I, computed as -(I+M)^{-1} M, which keeps the result
        Hilbert-Schmidt-shaped instead of differencing two near-identity matrices."""
        self._require_regular()
        if self.form is not None:
            inv = self.inverse_form()
            return inv.left @ inv.core @ inv.right.T
        return -sla.lu_solve((self.lu, self.piv), self.matrix, check_finite=False)


def factor_identity_plus(b: MatrixKernel | np.ndarray) -> IdentityPlusLU:
    """LU of I + b with det2(I + b) = det(I + b) e^{-tr b} in log domain; of
    the r x r capacitance when b is a kernel with a LowRank form.

    Rank deficiency: a pivot below 1e-8 of the pivot scale is suspicious; it
    is confirmed singular when the smallest singular value of I + b falls
    below PIVOT_RTOL times the largest (partial-pivoting LU alone inflates a
    zero eigenvalue to roughly n * eps * growth and cannot decide at 1e-14).
    """
    if isinstance(b, MatrixKernel) and isinstance(b.factored, LowRank):
        return _factor_capacitance(b.factored.scaled(b.grid.step))
    b = _dense(b)
    a = np.array(b, order="F")  # Fortran order lets LAPACK factorise in place
    a[np.diag_indices_from(a)] += 1.0
    lu, piv = sla.lu_factor(a, overwrite_a=True, check_finite=False)
    det2 = _det2_from_lu(lu, piv, float(np.trace(b)),
                         lambda: sla.svdvals(np.eye(b.shape[0]) + b, check_finite=False))
    return IdentityPlusLU(b, lu, piv, det2)


def _factor_capacitance(form: LowRank) -> IdentityPlusLU:
    """The LowRank route of `factor_identity_plus`, form = (L, Delta C, R):
    det(I + L D R^T) = det(I_r + D R^T L) (the matrix determinant lemma) and
    tr(L D R^T) = tr(D R^T L).  I + M acts as the identity off span[L R], so
    its pivots and singular values are those of the small problem padded
    with ones, and the dense rank rule applies unchanged."""
    inner = form.core @ (form.right.T @ form.left)
    r = inner.shape[0]
    with warnings.catch_warnings():  # an exactly singular K is decided below
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(np.eye(r) + inner, check_finite=False)

    def svdvals():
        q, r_left, r_right = _orthonormal_basis(form)
        sv = sla.svdvals(np.eye(q.shape[1]) + r_left @ form.core @ r_right.T,
                         check_finite=False)
        return np.sort(np.append(sv, 1.0))[::-1] if q.shape[1] < q.shape[0] else sv

    padded = form.left.shape[0] > r
    det2 = _det2_from_lu(lu, piv, float(np.trace(inner)), svdvals, padded)
    return IdentityPlusLU(None, lu, piv, det2, form)


def _det2_from_lu(lu, piv, trace: float, svdvals, padded: bool = False) -> Det2:
    """det(A) e^{-trace} from the LU of A, under the rank rule of
    `factor_identity_plus`; padded: A stands for a larger matrix that adds
    unit pivots and unit singular values to its own."""
    diag = np.diag(lu)
    pivots = np.abs(diag)
    if padded:
        pivots = np.append(pivots, 1.0)
    scale = float(np.max(pivots)) if pivots.size else 0.0
    singular = Det2(sign=0, log_modulus=-np.inf, singular=True)
    if scale == 0.0:
        return singular
    if float(np.min(pivots)) <= 1e-8 * scale:
        sv = svdvals()
        if sv[0] == 0.0 or sv[-1] <= PIVOT_RTOL * sv[0]:
            return singular
    perm_sign = 1 if np.count_nonzero(piv != np.arange(len(piv))) % 2 == 0 else -1
    sign = perm_sign * (1 if np.count_nonzero(diag < 0) % 2 == 0 else -1)
    return Det2(sign=sign, log_modulus=float(np.sum(np.log(np.abs(diag))) - trace))


def det2_matrix(b: np.ndarray) -> Det2:
    """det2(I + b) = det(I + b) e^{-tr b}, read from the LU of I + b."""
    return factor_identity_plus(b).det2


def det2(op: MatrixKernel | np.ndarray) -> Det2:
    return factor_identity_plus(op).det2


def trace(kappa: MatrixKernel) -> float:
    """Matrix trace of M, read from the diagonal blocks without assembling M:
    sum_i tr kappa(t_i, t_i) Delta, the quadrature of the diagonal integral
    (meaningful when the kernel is continuous and the operator trace class)."""
    return float(np.einsum("iaa->", kappa.diagonal_blocks())) * kappa.grid.step


@dataclass(frozen=True)
class Det2ProductReport:
    """Both routes to det2((I + B*)(I + B)) and their agreement."""

    lhs_log: float
    rhs_log: float
    discrepancy: float
    eta_log: float | None
    eta_discrepancy: float | None
    singular: bool

    @property
    def ok(self) -> bool:
        return not self.singular and self.discrepancy <= 1e-10


def _log_gap(a_log: float, b_log: float) -> float:
    # |ratio - 1| of two positive values given in log form
    return float(abs(np.expm1(a_log - b_log)))


def det2_product_identity_check(kappa: MatrixKernel) -> Det2ProductReport:
    """Check det2((I+B*)(I+B)) = det2(I+B) det2(I+B*) e^{-tr(B*B)}.

    Additionally compare with det2(I - B_eta) for the eta kernel of kappa,
    which equals the same product by the operator identity
    B_eta = -(B + B* + B*B); eta_log is None when I - B_eta is singular.
    """
    m = assemble(kappa)
    prod_b = m + m.T + m.T @ m  # (I+M^T)(I+M) - I, formed without cancellation
    lhs = det2_matrix(prod_b)
    d_m = det2_matrix(m)
    d_mt = det2_matrix(m.T)
    if lhs.singular or d_m.singular or d_mt.singular:
        return Det2ProductReport(lhs.log_modulus, -np.inf, np.inf, None, None, True)
    rhs_log = d_m.log_modulus + d_mt.log_modulus - float(np.sum(m * m))
    disc = _log_gap(lhs.log_modulus, rhs_log)

    eta_log = eta_disc = None
    d_eta = det2_matrix(-assemble(eta_of_kappa(kappa)))
    if not d_eta.singular:
        eta_log = d_eta.log_modulus
        eta_disc = _log_gap(lhs.log_modulus, eta_log)
    return Det2ProductReport(lhs.log_modulus, rhs_log, disc, eta_log, eta_disc, False)


def inverse_kernel(kappa: MatrixKernel) -> MatrixKernel:
    """The kernel kappa_hat with B_kappa_hat = (I + B_kappa)^{-1} - I."""
    return inverse_kernel_from(factor_identity_plus(kappa), kappa)


def inverse_kernel_from(lu: IdentityPlusLU, kappa: MatrixKernel) -> MatrixKernel:
    """The inverse kernel of kappa, read from the LU of I + B_kappa: the
    LowRank kernel (L, -K^{-1} C, R) when the LU is of the capacitance K."""
    if lu.form is not None:
        inv = lu.inverse_form()
        core, sym = inv.core / kappa.grid.step, kappa.symmetric
        if sym and inv.left is inv.right:
            # L X L^T is symmetric, so L sym(X) L^T is the same kernel
            core = 0.5 * (core + core.T)
        elif sym:
            sym = symmetry(inv.left @ inv.core @ inv.right.T)[0]
        return kernel_from_form(kappa.grid, kappa.dim, LowRank(inv.left, core, inv.right), sym)
    m_hat = lu.inverse_matrix()
    sym = kappa.symmetric and symmetry(m_hat)[0]
    if sym:
        m_hat = 0.5 * (m_hat + m_hat.T)
    return kernel_from_matrix(m_hat, kappa.grid, kappa.dim, symmetric=sym)


def kappa_s(eta: MatrixKernel, enforce_gate: bool = True) -> MatrixKernel:
    """Square-root kernel: B = sqrt(I - B_eta) - I, the unique symmetric kernel
    with I + B >= 0 whose eta kernel reproduces eta.

    Requires lambda_max(B_eta) < 1 - GATE_MARGIN (the exponential
    integrability regime); pass enforce_gate=False to try anyway.
    """
    if not eta.symmetric:
        raise PreconditionError("kappa_s requires a symmetric kernel")
    spec = spectrum(eta, vectors=True)
    lam = spec.lambda_max
    if enforce_gate and lam >= 1.0 - GATE_MARGIN:
        raise NotContractiveError(
            f"lambda_max(B_eta) = {lam:.12g} >= 1 - {GATE_MARGIN}; no square-root regime"
        )
    return spec.sqrt_kernel()


@dataclass(frozen=True)
class WitnessReport:
    """Distances behind the injectivity statement on {symmetric, I + B >= 0}."""

    eta_distance: float
    kappa_distance: float
    member_1: bool
    member_2: bool
    min_eig_1: float
    min_eig_2: float
    tol: float
    implication_holds: bool


def injectivity_witness(
    kappa_1: MatrixKernel, kappa_2: MatrixKernel, tol: float = 1e-8, strict: bool = True
) -> WitnessReport:
    """Report ||eta(k1) - eta(k2)|| and ||k1 - k2|| and test the implication
    "equal eta forces equal kappa" that holds on the domain
    {symmetric, I + B >= 0}.

    With strict=True (default) a non-member input raises PreconditionError;
    with strict=False the report documents the failure of injectivity outside
    the domain (member flags false).
    """
    if kappa_1.grid != kappa_2.grid or kappa_1.dim != kappa_2.dim:
        raise InvalidArgumentError("witness inputs must share grid and dimension")
    n_id = np.eye(kappa_1.grid.n_steps * kappa_1.dim)

    def membership(k: MatrixKernel) -> tuple[bool, float]:
        m = assemble(k)
        if not symmetry(m)[0]:
            return False, np.nan
        mn = float(np.linalg.eigvalsh(n_id + m)[0])
        return mn >= -1e-10, mn

    mem1, mn1 = membership(kappa_1)
    mem2, mn2 = membership(kappa_2)
    if strict and not (mem1 and mem2):
        raise PreconditionError(
            "injectivity witness requires symmetric kernels with I + B >= 0 "
            f"(membership: {mem1}, {mem2}); pass strict=False to document the violation"
        )
    eta_dist = kernel_l2_norm(
        MatrixKernel(
            kappa_1.grid,
            kappa_1.dim,
            eta_of_kappa(kappa_1).matrix - eta_of_kappa(kappa_2).matrix,
        )
    )
    kap_dist = kernel_l2_norm(
        MatrixKernel(kappa_1.grid, kappa_1.dim, kappa_1.matrix - kappa_2.matrix)
    )
    if mem1 and mem2:
        # Lipschitz factor of the square root on the spectral gap
        cond = 1.0 / max(np.sqrt(max(mn1, 0.0)) + np.sqrt(max(mn2, 0.0)), 1e-30)
        implication = (eta_dist > tol) or (kap_dist <= tol * cond)
    else:
        implication = False
    return WitnessReport(eta_dist, kap_dist, mem1, mem2, mn1, mn2, tol, implication)


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
