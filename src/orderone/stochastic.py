"""Monte Carlo engine: Wiener path batches and the path functionals.

Increments dW[m, i] ~ N(0, Delta I_d) are drawn one component at a time:
component 0 from an SFC64 generator seeded by SeedSequence([seed, *stream]),
component a >= 1 from the one seeded by SeedSequence([seed, *stream, a]),
interleaved into the (M, N, d) batch.  So every batch is bit-for-bit
reproducible, independent streams are derived by extending the key, never by
sharing a generator, and the first n paths and d components of a draw are
the draw of n paths and d components: a stream is one prefix-closed draw,
which readers of fewer paths or components share.  Every batch builds its
own generators from their keys and no generator is ever advanced or jumped,
so a counter-based generator such as Philox offers nothing here; SFC64 draws
normals about twice as fast.  Path values at the left nodes are W(t_k) =
sum_{i<k} dW[m, i] (W(0) = 0), and all stochastic sums are Ito sums: the
integrand is evaluated strictly before the increment that multiplies it.

Coarse net.  The Monte Carlo runner (`scenarios`) draws every stream with a
net (`path_blocks(..., net=)`): the K = min(NET_CELLS, N) = 16 coarsest
cell sums of each path and component come from a randomised Sobol point,
and the generator's normals only fill in each cell (Caflisch, Morokoff and
Owen, J. Comput. Finance 1, 1997, for the bridge; L'Ecuyer and Lemieux,
2002, for the replicates).  Path j of the stream is in replicate j % R (R =
REPLICATES = 32) and reads Sobol point j // R: component a < NET_COMPONENTS
= 8 reads dimensions a K .. a K + K - 1 of one unscrambled sequence (the
direction numbers of Joe and Kuo, SIAM J. Sci. Comput. 30, 2008, whose first
128 dimensions `_sobol_table` holds), XORed with replicate r's digital
shift, 64 random bits per dimension from the SFC64 generator seeded by
SeedSequence([seed, stream id, N, a, R, K]); further components are drawn
as without a net.  ndtri maps each coordinate to a standard normal, and a
Brownian bridge over the cells' end nodes at their true times (W(T) first,
then midpoints, coarsest first) to the cell sums S; within a cell of m
steps, dW_i = sqrt(Delta) (z_i - mean of z over the cell) + S / m, and a
grid of N <= K steps, all cells of one step, reads no normal at all.  The
shift makes every coordinate of a path uniform, so each path is exactly
N(0, Delta I) on the grid; the paths of one replicate are one randomised
net and the replicates are independent, so a standard error is read from
the R replicate means.  A path's bits depend only on the keys, its component
and j, so a stream stays one prefix-closed draw.  A draw without a net
(`sample_paths`, the reference of the tests) takes every normal from the
generators.

Functionals of a batch:

    wiener integral     I[m, i]  = sum_j kappa(t_i, t_j) dW[m, j]
    transformation      dW'[m,i] = dW[m, i] + I[m, i] Delta
    quadratic form      q[m]     = sum_i < sum_{j<i} eta(t_i,t_j) dW[m,j], dW[m,i] >
    oscillator energy   h[m]     = 1/2 sum_i |I[m, i]|^2 Delta   (or <x, I>^2)
    Ramer exponent      psi[m]   = - sum_i < I[m, i], dW[m, i] > - 1/2 sum_i |I[m, i]|^2 Delta

The quadratic form excludes the diagonal (strict lower triangle), matching the
defining Riemann sums of the Ito integral; evaluating the path at left nodes
keeps every cross term unbiased because dW_j is independent of W(t_j).  Since
eta is symmetric, the two triangles contribute equally, so

    q[m] = 1/2 (<dW, eta dW> - sum_i <dW_i, eta(t_i,t_i) dW_i>),

which needs only the product with the whole kernel and its diagonal blocks.

psi, the grid form of Ramer's exponent (J. Funct. Anal. 15, 1974), is the
exponent of the exact change of variables of dW' = (I + Delta K) dW; it is
1/2 <dW, eta(kappa) dW>, the q of eta(kappa) plus half its diagonal term.  The
linear transformation of a drift phi is that of its tail kernel
(`kappa_from_phi`), so its exponent Psi is psi of that kernel (`cm_exponent`).

Full forms and their exact means.  h and psi are full quadratic forms of
the increments; q, the Ito sum, is the full form 1/2 <dW, eta dW> less its
diagonal term.  Each full form has an exact mean on the grid,
E <dW, K dW> = tr B_K (the trace of the Nystrom operator, Delta sum_i tr
K(t_i, t_i)):

    q's full form   1/2 tr B_eta
    h               1/2 ||kappa||^2, or 1/2 tr B_c of c(kappa; x) along x
    psi             -tr B_kappa - 1/2 ||kappa||^2  (= 1/2 tr B_eta(kappa))

`Exponent` holds an exponent as data (its kind, kernel and direction) with
that mean, and gives the exponent and its full form per path: the control
variate of the Monte Carlo sides (`scenarios`).  The full form of q is read
through `_double_sum`, apart from `quadratic_form`, so a fault in q is not
absorbed by its own control.

The Wiener integral, the transformations and the linear drift reach their
kernel through `MatrixKernel.apply` (x K^T) and `apply_adjoint` (x K), and so
do q, h and psi of a dense or LowerExp kernel.  q, h and psi of a LowRank
kernel L C R^T read its factors instead: each is a bilinear form, with an
r x r core, of the projections dW L and dW R of each path.  Cost per call on
M paths, with n = N d:

    dense values                  O(M n^2)   one (M, n) x (n, n) product
    LowRank, rank r               O(M n r)   q, h, psi: the read-only thin
                                             projections, no (M, n) product;
                                             apply: three thin products
    LowerExp (volterra, expdiag)  O(M n)     a weighted cumulative sum

Each functional works on the whole batch it is given.  The Monte Carlo runner
(`scenarios`) owns the block plan: it draws every stream, whose first paths
its pathwise checks read too, in blocks of about `scenarios.PATH_BLOCK`
increments per component (`path_blocks`), so a block's intermediates stay in
cache and no product is large enough for BLAS to spread over threads of its
own, which would compete with the chunk threads for the cores.  Sequential
draws from one generator give the bits of one draw, so `sample_paths`, which
no program path calls, is the one-block case, and a reader of fewer paths or
components reads the head of each block (`PathBatch.head`).  A value depends on its own
path alone, but BLAS may sum a block's products in another order at another
block size; the fixed block plan keeps its last bits.

Node read.  Every test functional reads the path at one node k alone
(`TestFunctional.node`; 'one' reads none), and the image of a path under
the transformation is affine in its increments.  So W'(t_k) is dW G for
weights G of shape (N d, d) built once per kernel and node (`node_weights`:
one product of d rows with the kernel), and `node_value` reads it in
O(M N d^2) per batch for every representation, dense included, without
forming the transformed (M, N, d) batch.  The Monte Carlo sides read
transformed paths this way; `apply_transformation` remains for inverse's
probe round trip, and no check calls `apply_linear_transformation`.  Being
linear in the Gaussian increments, W'(t_k) is N(0, Delta G^T G), so a side
without an exponent has the closed form `TestFunctional.mean` of that
covariance (Mathai and Provost, Quadratic Forms in Random Variables, 1992).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
from .grid_kernel import LowRank, MatrixKernel, TimeGrid, direction, kappa_from_phi
from .operator import GATE_MARGIN, lambda_max

__all__ = [
    "PathBatch",
    "TestFunctional",
    "sample_paths",
    "path_blocks",
    "wiener_integral",
    "apply_transformation",
    "quadratic_form",
    "h_functionals",
    "cameron_martin_drift",
    "apply_linear_transformation",
    "node_weights",
    "node_value",
    "ramer_exponent",
    "Exponent",
    "cm_exponent",
    "cm_trace_correction",
    "exp_q_moment_guard",
    "moment_guard",
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
        w = np.empty(self.increments.shape)
        w[:, 0] = 0.0
        np.cumsum(self.increments[:, :-1], axis=1, out=w[:, 1:])
        return w

    def value_at_node(self, k: int) -> np.ndarray:
        """W(t_k) per path for k = 0 .. N (k = N gives W(T))."""
        if not 0 <= k <= self.grid.n_steps:
            raise InvalidArgumentError(f"node index {k} outside 0..{self.grid.n_steps}")
        return self.increments[:, :k].sum(axis=1)

    def head(self, n_paths: int, dim: int) -> "PathBatch":
        """The first n_paths paths and dim components of the batch, contiguous:
        the batch a draw of that many paths and components gives (a view when
        only paths are dropped, else a copy)."""
        if (n_paths, dim) == (self.n_paths, self.dim):
            return self
        return replace(self, dim=dim,
                       increments=np.ascontiguousarray(self.increments[:n_paths, :, :dim]))


def sample_paths(grid: TimeGrid, dim: int, n_paths: int, seed: int,
                 stream: tuple = ()) -> PathBatch:
    """Draw a batch of increments: component 0 from the SFC64 generator
    seeded by SeedSequence([seed, *stream]), component a >= 1 from the one
    seeded by SeedSequence([seed, *stream, a]).

    The draw is a single deterministic pass: identical arguments give identical
    bits regardless of how callers schedule batches.
    """
    return next(path_blocks(grid, dim, n_paths, seed, stream=stream))


def path_blocks(grid: TimeGrid, dim: int, n_paths, seed: int, stream: tuple = (),
                rows: int | None = None, net: tuple | None = None):
    """The batch of `sample_paths` with the same arguments, as successive
    batches of `rows` paths (the last one ragged; None: one batch), its
    coarse cells drawn from the net of `net` when it is given.

    Each component is one generator's draw, interleaved into the (rows, N,
    dim) block, so the first n paths and d components of a draw are the bits
    of the draw of n paths and d components.  n_paths is the number of paths,
    or one non-increasing count per component: component a is then drawn for
    its first n_paths[a] paths alone and is nan past them.

    net = (net_key, first) makes the m-th path of the draw path j = first + m
    of the stream net_key: each component's K = min(NET_CELLS, N) coarse
    cell sums come from Sobol point j // REPLICATES under the digital shift
    of replicate j % REPLICATES (`_CoarseNet`), and the generator's normals
    keep only their deviation from each cell's mean; a path of N <= K steps
    is the net's alone, and reads no normal.  Components from NET_COMPONENTS
    on are drawn as without a net.  A path's bits depend only on the keys,
    its component and j.

    Every block is drawn from the generators into one buffer of rows paths,
    so the blocks together hold the bits of the whole batch, and each block
    is overwritten by the next: a reader must not keep one past its turn.
    """
    counts = [n_paths] * dim if np.ndim(n_paths) == 0 else [int(n) for n in n_paths]
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    if (len(counts) != dim or sorted(counts, reverse=True) != counts or counts[0] < 1
            or counts[-1] < 0):
        raise InvalidArgumentError(f"n_paths must be >= 1 (per component: {dim} non-increasing "
                                   f"counts), got {n_paths}")
    total = counts[0]
    rows = total if rows is None else rows
    key = [int(seed) & 0xFFFFFFFFFFFFFFFF, *map(int, stream)]
    rngs = [np.random.Generator(np.random.SFC64(np.random.SeedSequence(key + [a] * (a > 0))))
            for a in range(dim)]
    coarse = None if net is None else _CoarseNet(grid, dim, total, seed, *net)
    netted = 0 if coarse is None else len(coarse.shifts)  # the components under the net
    buf = np.empty((min(rows, total), grid.n_steps, dim))
    # one component's draw: a dim-1 draw is the buffer itself
    part = buf[:, :, 0] if dim == 1 else np.empty(buf.shape[:2])
    for start in range(0, total, rows):
        inc = buf[:total - start]  # the head of the buffer: contiguous
        for a, rng in enumerate(rngs):
            m = min(len(inc), max(0, counts[a] - start))
            if a < netted:  # no normal is read where the net is the whole path
                z = None if coarse.whole else rng.standard_normal(out=part[:m])
                coarse.fill(inc[:m], a, z, start)
            else:
                rng.standard_normal(out=part[:m])
                np.multiply(part[:m], np.sqrt(grid.step), out=inc[:m, :, a])  # interleaved
            inc[m:, :, a] = np.nan
        yield PathBatch(grid, dim, inc, int(seed), tuple(stream))


NET_CELLS = 16  # K: the coarse cells per component whose sums the net draws
NET_COMPONENTS = 8  # of a path: the further ones are the generators' alone
REPLICATES = 32  # R: independent digital shifts, path j under shift j % R
_SOBOL_BITS = 32  # of every Sobol coordinate, above 32 bits of the shift alone
SAMPLER = f"sobol{NET_CELLS}-bridge/sfc64"  # the draw, as the reports name it


@lru_cache(maxsize=None)
def _sobol_directions(n_dims: int) -> np.ndarray:
    """The direction numbers of the first n_dims <= 128 dimensions of the
    Sobol sequence of Joe and Kuo (`_sobol_table`), as (_SOBOL_BITS, n_dims)
    uint64: row b is the word XORed into a point whose Gray-code index has
    bit b set, its most significant bit the first."""
    from ._sobol_table import JOE_KUO

    v = np.ones((n_dims, _SOBOL_BITS), dtype=np.uint64)  # dimension 0: every m_j = 1
    for k, (p, *m) in enumerate(JOE_KUO[:n_dims - 1], start=1):
        s = len(m)  # the degree of the primitive polynomial p
        for j in range(s, _SOBOL_BITS):  # m_j = m_{j-s} ^ sum_i 2^i a_i m_{j-i}
            new = m[j - s]
            for i in range(s):
                if (p >> (s - 1 - i)) & 1:
                    new ^= m[j - i - 1] << (i + 1)
            m.append(new)
        v[k] = m
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint64)
    return np.ascontiguousarray(v.T)


@lru_cache(maxsize=None)
def _bridge(n_steps: int) -> tuple:
    """(groups, A) of the K = min(NET_CELLS, N) coarse cells of a grid of N
    steps.  The cells hold q = N // K steps, the first N - K q of them one
    more; groups lists each run of cells of one size as (its first step, its
    first cell, its cells, their steps).  The cell sums of a path, in units
    of sqrt(Delta), are A z for K independent standard normals z: the
    Brownian-bridge construction over the cells' end nodes at their true
    times, z[0] giving W(T) and the next ones the midpoints of the intervals
    already built, coarsest first."""
    k = min(NET_CELLS, n_steps)
    q, longer = divmod(n_steps, k)
    groups = [(0, 0, longer, q + 1), (longer * (q + 1), longer, k - longer, q)]
    nodes = np.concatenate([[0], np.cumsum([q + 1] * longer + [q] * (k - longer))])
    bridge, order, queue = np.zeros((k + 1, k)), [k], [(0, k)]  # W(nodes) = bridge z
    bridge[k, 0] = np.sqrt(nodes[k])
    for left, right in queue:  # breadth first: every interval before its halves
        if right - left > 1:
            mid = (left + right) // 2
            t0, t, t1 = nodes[left], nodes[mid], nodes[right]
            bridge[mid] = ((t1 - t) * bridge[left] + (t - t0) * bridge[right]) / (t1 - t0)
            bridge[mid, len(order)] = np.sqrt((t - t0) * (t1 - t) / (t1 - t0))
            order.append(mid)
            queue += [(left, mid), (mid, right)]
    return [g for g in groups if g[2]], np.ascontiguousarray(np.diff(bridge, axis=0))


class _CoarseNet:
    """The coarse cells of the paths first .. first + n_paths - 1 of the
    stream net_key, per component a < NET_COMPONENTS (see `path_blocks`).

    Component a reads dimensions a K .. a K + K - 1 of one unscrambled Sobol
    sequence, so no two components share a dimension, under the digital
    shifts of row r of an (R, K) draw of 64-bit words from the SFC64
    generator of SeedSequence([seed, *net_key, N, a, R, K]): six entries for
    a one-entry net_key, where a chunk generator's key has four or five, so
    no chunk generator shares it.  A point's 32 bits XOR the shift's top 32,
    its low 32 bits are the shift's alone, and the 52 leading bits, centred
    in their cell, are mapped through ndtri and the bridge of `_bridge`.
    whole: every cell is one step (N <= K), so the net is the whole path."""

    def __init__(self, grid: TimeGrid, dim: int, n_paths: int, seed: int, net_key: tuple,
                 first: int):
        self.groups, self.bridge = _bridge(grid.n_steps)
        self.first, self.sqrt_step, k = int(first), np.sqrt(grid.step), len(self.bridge)
        self.whole, dim = k == grid.n_steps, min(dim, NET_COMPONENTS)
        self.shifts = [np.random.SFC64(np.random.SeedSequence(
            [int(seed) & 0xFFFFFFFFFFFFFFFF, *map(int, net_key), grid.n_steps, a, REPLICATES, k]
        )).random_raw(REPLICATES * k).reshape(REPLICATES, k) for a in range(dim)]
        # every point the paths read, once: path j reads point j // R
        self.lo = self.first // REPLICATES
        index = np.arange(self.lo, (self.first + n_paths - 1) // REPLICATES + 1, dtype=np.uint64)
        gray = index ^ (index >> np.uint64(1))
        directions = _sobol_directions(k * dim)
        points = np.zeros((len(index), k * dim), dtype=np.uint64)
        for b in range(int(gray[-1]).bit_length()):
            points ^= directions[b] * ((gray >> np.uint64(b)) & np.uint64(1))[:, None]
        points <<= np.uint64(64 - _SOBOL_BITS)
        self.points = points.reshape(len(index), 1, dim, k)

    def fill(self, out: np.ndarray, a: int, z: np.ndarray | None, start: int):
        """Write component a of the m paths first + start .. of out, shape
        (m, N, dim), from their generator normals z, shape (m, N): within
        each cell sqrt(Delta) (z_i - the cell mean of z), plus the cell's
        sum from the net over its steps.  z is overwritten; it is None when
        every cell is one step (`whole`), as it would read 0 throughout."""
        from scipy.special import ndtri

        m = len(out)
        point, lead = divmod(self.first + start, REPLICATES)
        point -= self.lo
        # points x replicates, in path order: path first + start + i is row lead + i
        word = self.points[point:point - (-(lead + m) // REPLICATES), :, a] ^ self.shifts[a]
        word = word.reshape(-1, word.shape[-1])[lead:lead + m]
        word >>= np.uint64(11)
        word |= np.uint64(1)  # 52 bits and the centre of their cell: (2 i + 1) 2^-53
        u = word.astype(float)
        u *= 2.0 ** -53
        # einsum's own loop, not BLAS: the same bits for a path in a block of any size
        cells = np.einsum("mk,lk->ml", ndtri(u, out=u), self.bridge)
        if z is None:
            np.multiply(cells, self.sqrt_step, out=out[:, :, a])
            return
        for step, cell, count, size in self.groups:
            within = z[:, step:step + count * size].reshape(m, count, size)
            shift = cells[:, cell:cell + count]
            shift -= np.einsum("mcs->mc", within)
            shift /= size
            within += shift[:, :, None]
        np.multiply(z, self.sqrt_step, out=out[:, :, a])


def _check_grid(kernel: MatrixKernel, batch: PathBatch):
    if kernel.grid != batch.grid or kernel.dim != batch.dim:
        raise InvalidArgumentError("kernel and path batch live on different grids")


def _bilinear(a: np.ndarray, core: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_m core b_m^T per path m, for projections a and b of shape (M, r)."""
    return np.einsum("mr,rs,ms->m", a, core, b)


def _project(dw: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """dW F per path: the (M, r) projections of a block on a factor of shape (N d, r)."""
    return dw.reshape(dw.shape[0], -1) @ factor


def _double_sum(kernel: MatrixKernel, dw: np.ndarray) -> np.ndarray:
    """<dW, K dW> = sum_{i,j} <dW_i, kernel(t_i, t_j) dW_j> per path; of a
    LowRank kernel L C R^T it is (dW L) C (dW R)^T."""
    form = kernel.factored
    if isinstance(form, LowRank):
        left = _project(dw, form.left)
        return _bilinear(left, form.core,
                         left if form.right is form.left else _project(dw, form.right))
    return np.einsum("mia,mia->m", kernel.apply(dw), dw)


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
    evaluated as 1/2 (<dW, eta dW> - sum_i <dW_i, eta_ii dW_i>); of a LowRank
    eta = L C R^T, <dW, eta dW> = (dW L) C (dW R)^T."""
    if not eta.symmetric:
        raise PreconditionError("quadratic_form requires a symmetric kernel")
    _check_grid(eta, batch)
    dw, blocks = batch.increments, eta.diagonal_blocks()
    # d^2 fused sums of products: one einsum over a, i and b is ten times slower at d = 2
    diagonal = sum(np.einsum("mi,i,mi->m", dw[:, :, a], blocks[:, a, b], dw[:, :, b])
                   for a in range(eta.dim) for b in range(eta.dim))
    return 0.5 * (_double_sum(eta, dw) - diagonal)


def h_functionals(
    kappa: MatrixKernel, batch: PathBatch, x: np.ndarray | None = None
) -> np.ndarray:
    """Oscillator energies: 1/2 int <x, I(t)>^2 dt, or 1/2 int |I(t)|^2 dt without x.

    Of a LowRank kappa = L C R^T, I = (dW R) C^T L^T, so the energy is
    1/2 Delta (dW R) C^T (L^T L) C (dW R)^T, with L_x[i] = sum_a x_a L[(i, a)]
    in place of L when x is given."""
    _check_grid(kappa, batch)
    dt, form = kappa.grid.step, kappa.factored
    if x is not None:
        x = direction(x, kappa.dim)
    if isinstance(form, LowRank):
        right = _project(batch.increments, form.right)
        return 0.5 * _bilinear(right, form.energy_core(kappa.grid, kappa.dim, x), right) * dt
    return _energy(kappa.apply(batch.increments), dt, x)


def _energy(integral: np.ndarray, dt: float, x: np.ndarray | None = None) -> np.ndarray:
    """1/2 Delta sum_i |I[m, i]|^2 per path, or of <x, I[m, i]> when x is given."""
    if x is None:
        return 0.5 * np.einsum("mia,mia->m", integral, integral) * dt
    proj = integral @ x
    return 0.5 * np.einsum("mi,mi->m", proj, proj) * dt


def ramer_exponent(kappa: MatrixKernel, batch: PathBatch) -> np.ndarray:
    """Exponent of the change of variables of the transformation of kappa on
    the grid, psi = - <dW, K dW> - h per path: the full double sum, diagonal
    blocks included, and the energy h = 1/2 Delta |I|^2 of `h_functionals`.
    Of a dense or LowerExp kernel both terms read one Wiener integral
    I = K dW, as -<I, dW> and 1/2 Delta |I|^2."""
    _check_grid(kappa, batch)
    if isinstance(kappa.factored, LowRank):
        return -_double_sum(kappa, batch.increments) - h_functionals(kappa, batch)
    dw = batch.increments
    integral = kappa.apply(dw)
    return -np.einsum("mia,mia->m", integral, dw) - _energy(integral, kappa.grid.step)


@dataclass(frozen=True, eq=False)
class Exponent:
    """The exponent of a side as data: q of a symmetric kernel (kind 'q'),
    h of kappa along x ('h') or psi of kappa ('psi'), each a quadratic form
    on Wiener space, and the exact grid mean of its full form, the control
    (see the module docstring), which the caller reads from what its
    prologue holds.  Called on a batch, it gives the exponent per path
    through the module's functional, looked up at call time."""

    kind: str
    kernel: MatrixKernel
    mean: float  # E of the control on the grid
    x: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("q", "h", "psi"):
            raise InvalidArgumentError(f"unknown exponent kind {self.kind!r}")

    def __call__(self, batch: PathBatch) -> np.ndarray:
        if self.kind == "q":
            return quadratic_form(self.kernel, batch)
        if self.kind == "h":
            return h_functionals(self.kernel, batch, self.x)
        return ramer_exponent(self.kernel, batch)

    def control(self, batch: PathBatch, value: np.ndarray) -> np.ndarray:
        """The full form per path, given the exponent's value on the batch: of
        q, 1/2 <dW, eta dW> with its diagonal blocks kept, one more product
        of the kernel (a thin projection of a LowRank one); h and psi are
        full forms, their own controls."""
        if self.kind == "q":
            return 0.5 * _double_sum(self.kernel, batch.increments)
        return value


def cameron_martin_drift(phi: MatrixKernel, batch: PathBatch) -> np.ndarray:
    """G[m, i] = sum_j phi(t_i, t_j) W(t_j) Delta, the derivative of the linear
    transformation's shift, read from the path at the left nodes; on the grid
    it is the Wiener integral of the tail kernel `kappa_from_phi(phi)`."""
    _check_grid(phi, batch)
    return phi.apply(batch.left_node_values()) * phi.grid.step


def apply_linear_transformation(phi: MatrixKernel, batch: PathBatch) -> PathBatch:
    """The linear transformation on the grid: dW'_i = dW_i + G_i Delta, G the
    linear drift of phi along the batch."""
    inc = cameron_martin_drift(phi, batch)
    inc *= phi.grid.step
    inc += batch.increments
    return replace(batch, increments=inc)


def node_weights(kernel: MatrixKernel, k: int) -> np.ndarray:
    """Weights G of shape (N d, d) with W'(t_k) = dW G, W' the image of each
    path under the transformation of kernel, dW flattened to (M, N d).

    With U[a, i, b] = 1_{i<k} delta_ab and V = kernel.apply_adjoint(U), so
    V[a, j, b] = sum_{i<k} kernel(t_i, t_j)[a, b]:

        W'(t_k) = W(t_k) + Delta sum_{j,b} dW_{j,b} V[a, j, b].

    One kernel product of d rows.
    """
    n, d = kernel.grid.n_steps, kernel.dim
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"node index {k} outside 0..{n}")
    u = np.zeros((d, n, d))
    u[:, :k] = np.eye(d)[:, None, :]
    v = kernel.apply_adjoint(u)
    v *= kernel.grid.step
    v += u  # the path itself: W(t_k) = sum_{i<k} dW_i
    return np.ascontiguousarray(v.reshape(d, n * d).T)


def node_value(batch: PathBatch, weights: np.ndarray) -> np.ndarray:
    """dW G per path, shape (M, d): W'(t_k) for the weights of `node_weights`.
    O(M N d^2), and no transformed batch is formed."""
    return _project(batch.increments, weights)


def cm_exponent(phi: MatrixKernel, batch: PathBatch) -> np.ndarray:
    """Exponent Psi of the linear change-of-variables weight, the Ramer exponent
    of the tail kernel of phi: -<G, dW> - 1/2 Delta |G|^2, G the linear drift.
    Its cross term has the mean -`cm_trace_correction`."""
    return ramer_exponent(kappa_from_phi(phi), batch)


def cm_trace_correction(phi: MatrixKernel) -> float:
    """Deterministic gap between the trace-free and trace-corrected exponents,
    Delta^2 sum_{i<k} tr phi(t_i, t_k); of a LowRank phi = L C R^T it is
    Delta^2 tr(C sum_k R_k^T L_{<k}), L_{<k} the sum of L's blocks of the
    nodes i < k, in O(N d r^2).  The dense sum is the reference."""
    form, n, dim = phi.factored, phi.grid.n_steps, phi.dim
    if isinstance(form, LowRank):
        left = form.left.reshape(n, dim, -1)
        below = np.zeros_like(left)
        np.cumsum(left[:-1], axis=0, out=below[1:])  # an exclusive cumulative sum
        cross = np.einsum("kaq,kap->qp", form.right.reshape(n, dim, -1), below)
        return float(np.trace(form.core @ cross) * phi.grid.step ** 2)
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

class _Tag(NamedTuple):
    params: tuple[str, ...]  # the fields its parameters fill, in order
    at_node: Callable        # (f, w = W(t_k)) -> f per path
    mean: Callable           # (f, cov) -> E[f(w)] for w ~ N(0, cov), cov of shape (d, d)
    node: Callable = lambda f, grid: grid.n_steps  # (f, grid) -> k; None: reads no node


def _mid_node(f, grid: TimeGrid) -> int:
    if not 0.0 <= f.tau <= grid.horizon:
        raise InvalidArgumentError(
            f"cos_mid reads W(tau) at tau = {f.tau:g}, outside [0, {grid.horizon:g}]")
    return int(round(f.tau / grid.step))


# one row per tag: its parameters, its value at the node it reads, its Gaussian
# mean and that node; E cos(<a, w>) = e^{-<a, cov a>/2}, E e^{-|w|^2} = det(I + 2 cov)^{-1/2}
_TAGS = {
    "one": _Tag((), lambda f, w: np.ones(w.shape[0]), lambda f, cov: 1.0, lambda f, grid: None),
    "cos_end": _Tag(("a",), lambda f, w: np.cos(f.a * w.sum(axis=1)),
                    lambda f, cov: np.exp(-0.5 * f.a ** 2 * cov.sum())),
    "exp_negsq": _Tag((), lambda f, w: np.exp(-np.einsum("md,md->m", w, w)),
                      lambda f, cov: np.linalg.det(np.eye(len(cov)) + 2.0 * cov) ** -0.5),
    "cos_mid": _Tag(("a", "tau"), lambda f, w: np.cos(f.a * w[:, 0]),
                    lambda f, cov: np.exp(-0.5 * f.a ** 2 * cov[0, 0]), _mid_node),
}


@dataclass(frozen=True)
class TestFunctional:
    """Small family of bounded continuous path functionals, |f| <= 1.

    Tags: 'one', 'cos_end:a' (cos of a times the coordinate sum of W(T)),
    'exp_negsq' (exp(-|W(T)|^2)), 'cos_mid:a,tau' (cos of a times the first
    coordinate of W(tau), tau in [0, T] snapped to the nearest node).  Each
    tag is one row of `_TAGS`; a tag without parameters takes none.
    """

    __test__ = False  # not a pytest class

    tag: str
    a: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise InvalidArgumentError(f"unknown functional tag {self.tag!r}")

    @classmethod
    def parse(cls, text: str) -> "TestFunctional":
        """'tag' or 'tag:p1,...', one finite real per parameter of the tag."""
        text = text.strip()
        name, sep, body = text.partition(":")
        if name not in _TAGS:
            raise InvalidArgumentError(
                f"unknown functional {text!r}; expected one, cos_end:a, exp_negsq, cos_mid:a,tau"
            )
        params = _TAGS[name].params
        try:
            values = [float(v) for v in body.split(",")] if sep else []
        except ValueError:
            values = None
        if values is None or len(values) != len(params) or not np.all(np.isfinite(values)):
            wanted = f"the finite reals '{','.join(params)}'" if params else "no parameter"
            raise InvalidArgumentError(f"{name} takes {wanted}, got {text!r}")
        return cls(name, **dict(zip(params, values)))

    def __str__(self) -> str:
        # each parameter as its shortest exact decimal, which `parse` reads back
        params = ",".join(np.format_float_positional(float(getattr(self, p)), trim="-")
                          for p in _TAGS[self.tag].params)
        return f"{self.tag}:{params}" if params else self.tag

    @property
    def is_constant_one(self) -> bool:
        return self.tag == "one"

    def node(self, grid: TimeGrid) -> int | None:
        """The node k whose value W(t_k) the functional reads (N for W(T));
        None for 'one', which reads no node.  A cos_mid tau outside [0, T]
        raises InvalidArgumentError."""
        return _TAGS[self.tag].node(self, grid)

    def at_node(self, w: np.ndarray) -> np.ndarray:
        """f per path from its value w = W(t_k) at `node`, shape (M, d)."""
        return _TAGS[self.tag].at_node(self, w)

    def mean(self, cov: np.ndarray) -> float:
        """E[f] in closed form when the node value it reads is N(0, cov),
        cov of shape (d, d)."""
        return float(_TAGS[self.tag].mean(self, np.asarray(cov, dtype=float)))

    def evaluate(self, batch: PathBatch) -> np.ndarray:
        k = self.node(batch.grid)  # None for 'one', whose value reads no entry of w
        return self.at_node(batch.value_at_node(0 if k is None else k))
