"""Exact joint simulation of fractional Brownian motion and its driving Wiener process.

The fractional Brownian motion (fBm) B^H with Hurst index H in (0,1) is the centered
Gaussian process with autocovariance

    r(t, s) = 1/2 (t^{2H} + s^{2H} - |t - s|^{2H}).

On a finite horizon it admits the Volterra representation B^H_t = int_0^t K_H(t, s) dW_s
against a standard Wiener process W, with the finite-interval (Molchan-Golosov) kernel

    K_H(t, s) = C_H [ (t/s)^{H-1/2} (t-s)^{H-1/2}
                      - (H - 1/2) s^{1/2-H} int_s^t z^{H-3/2} (z-s)^{H-1/2} dz ],
    C_H = sqrt( 2H Gamma(3/2 - H) / (Gamma(H + 1/2) Gamma(2 - 2H)) ).

This module factorizes the exact joint covariance of (B^H, W) on a time grid — fBm
block r(t,s), Wiener block min(t,s), cross block E[B^H_t W_s] = int_0^{min(t,s)}
K_H(t,u) du — and draws exact joint Gaussian paths plus, on request, an independent
orthogonal increment set (the asset scheme and the plain estimator read it; the
conditional estimator integrates it out, so it is not drawn there). Sampling is blocked
with per-block RNG streams so results are bit-identical at any degree of parallelism.
Draws and paths are stored time-major (Fortran order), shapes unchanged at paths x
steps: each grid step's values for every path are contiguous, which is the order in
which the left-point sums (`model._left_point_sums`) walk them.
The law is symmetric: the negated draws -Z give the antithetic mirror of a path, with
fBm -B^H and increments -dW, which the conditional estimator prices from the sampled
path itself, with no second draw and no second product.

The factorization puts W first. With Z = (Z_W, Z_B) standard normal, the Wiener
increments are dW_j = sqrt(dt_j) Z_W[j], which do not depend on H. The draws are
scaled where they are drawn (`_block_normals`), so every draw already holds the
increments [dW | Z_B] and the orthogonal increments dW~; W itself, the cumulative sum
of dW, is never formed. The fBm is B^H = K~ dW + L_S Z_B, where the step-average kernel

    K~[i, j] = E[B^H_{t_i} dW_j] / dt_j = int_{t_{j-1}}^{t_j} K_H(t_i, u) du / dt_j

is the Volterra kernel averaged over step j (lower-triangular, since K_H(t, u) = 0 for
u > t), and L_S is the Cholesky factor of the n x n conditional covariance
S = r - K K^T of B^H given the Wiener increments, with K = K~ sqrt(dt) the kernel in
Z-space. Only the n x 2n block [K~ | L_S] is stored, and B^H is the product
[dW | Z_B] @ [K~ | L_S]^T. Both halves are lower-triangular, so it is formed over
panels of grid steps, each multiplying only the columns up to its last step
(`_block_transform`): about half the flops of a dense product at n = 1011, and still
O(n^2) per path. Z_B is dead once the product has read it, so fresh draws get B^H
written over their own Z_B half, which the panels, run from the last to the first,
never read again: a fresh block holds [dW | B^H] and no second array. At H = 1/2 the
kernel is identically 1, B^H = W and S = 0, so no Cholesky is taken and the fBm paths
are the cumulative sum of dW.

The inner integral of the kernel reduces to an incomplete-Beta-type "tail" integral

    tail(x) = int_x^1 y^{-2H} (1-y)^{H-1/2} dy
            = B(1-2H, H+1/2) I_{1-x}(H+1/2, 1-2H)                    (H < 1/2)
            = (1-x)^{H+1/2} / (H+1/2) * 2F1(2H, H+1/2; H+3/2; 1-x),

the first a regularized incomplete Beta (DLMF 8.17; it needs 1-2H > 0), the second
the Gauss hypergeometric form that serves H > 1/2. The tail also yields a closed form
for the cross covariance (w = min(t,s)):

    E[B^H_t W_s] = C_H/(H+1/2) [ t^{H+1/2} B(3/2-H, H+1/2; w/t)
                                 - (H-1/2) w^{H+1/2} tail(w/t) ],

with B(a,b;x) the non-regularized incomplete Beta function. The closed form is used for
vectorized covariance assembly. Apart from the powers t^{H+1/2} and w^{H+1/2}, it
depends on the pair only through x = w/t, so the incomplete Beta and the tail are
evaluated once per distinct ratio of grid times (about 65% of the lower-triangle
entries at 1008 steps per year) and scattered back, bit for bit as a per-entry
evaluation. A caller that runs serially splits the distinct ratios over its threads;
the factor does not depend on the split. tests/test_fbm.py cross-checks the closed
form against adaptive quadrature of the kernel, with the endpoint singularities
removed by power substitutions.
"""
from __future__ import annotations

import concurrent.futures
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "TimeGrid",
    "JointCovariance",
    "PathBundle",
    "FactorizationError",
    "molchan_constant",
    "build_joint_covariance",
    "draw_normal_bundle",
    "sample_paths",
    "transform_normals",
    "derive_seed",
]

log = logging.getLogger(__name__)

#: fixed path-block size in sampled paths (the conditional estimator prices each with
#: its mirror); the unit of RNG-stream derivation, parallel dispatch, pricing and the
#: frozen pricer's path cache: every price pools per-block estimates, with one block
#: in flight per worker.
PATH_BLOCK = 4096

#: entries per panel of the time-major kernels (2 MB of float64 per temporary), so
#: the temporaries stay in cache at any grid size: a draw reads its stream into C-order
#: panels of _CHUNK_ENTRIES // columns rows, and the left-point sums walk panels of
#: _CHUNK_ENTRIES // paths contiguous steps.
_CHUNK_ENTRIES = 1 << 18

#: grid steps per row panel of the fBm transform (`_block_transform`). At n = 1011
#: on one BLAS thread a PATH_BLOCK took 0.67-0.71x the dense product's time at 128,
#: against 0.74-0.81x at 64, 0.70-0.74x at 256 and 0.78-0.81x at 512 (2-vCPU x86
#: VM); its panel temporary is 4 MB.
_TRANSFORM_PANEL = 128

#: escalating diagonal jitter schedule for nearly rank-deficient covariance matrices.
JITTER_LADDER = (1e-14, 1e-13, 1e-12, 1e-11, 1e-10)

#: absolute tolerance for deciding that a quoted maturity already sits on a grid node.
GRID_ATOL = 1e-12


class FactorizationError(RuntimeError):
    """Covariance factorization failed even at maximum diagonal jitter."""


def _validate_hurst(H: float) -> float:
    H = float(H)
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {H}")
    return H


def molchan_constant(H: float) -> float:
    """Normalizing constant C_H = sqrt(2H G(3/2-H) / (G(H+1/2) G(2-2H))).

    C_H = 1 at H = 1/2 (all Gamma arguments equal 1).
    """
    H = _validate_hurst(H)
    g = math.gamma
    return math.sqrt(2.0 * H * g(1.5 - H) / (g(H + 0.5) * g(2.0 - 2.0 * H)))


def _kernel_tail(x, H):
    """tail(x) = int_x^1 y^{-2H} (1-y)^{H-1/2} dy for x in (0, 1], vectorized.

    For H < 1/2 the integrand is a Beta density with a = 1-2H > 0, so
    tail(x) = B(1-2H, H+1/2) * I_{1-x}(H+1/2, 1-2H) (DLMF 8.17), one regularized
    incomplete Beta at 1-x. Over the 332,807 distinct ratios at n = 1011 it took
    0.04-0.10 s against 0.14-0.19 s for the hypergeometric form below (and 0.36-0.85 s
    for `betaincc` at x), and it stays accurate near H = 1/2, where that form loses up
    to 2.6e-7 relative. For H > 1/2 the Beta integral diverges at 0, and the Gauss
    hypergeometric identity tail(x) = (1-x)^{H+1/2}/(H+1/2) * 2F1(2H, H+1/2; H+3/2; 1-x)
    is used. Both are exact on their whole domain (the argument 1-x stays in [0, 1)).
    """
    x = np.asarray(x, dtype=float)
    b = H + 0.5
    z = 1.0 - x
    if H < 0.5:
        return special.betainc(b, 1.0 - 2.0 * H, z) * special.beta(1.0 - 2.0 * H, b)
    return z**b / b * special.hyp2f1(2.0 * H, b, b + 1.0, z)


def _cross_covariance(t, w, H: float, threads: int = 1):
    """E[B^H_t W_w] for t >= w > 0, elementwise, via the closed incomplete-Beta form.

    Apart from the powers t^{H+1/2} and w^{H+1/2}, which stay per entry, every term
    depends on (t, w) only through x = w/t. So the incomplete Beta and the tail are
    evaluated once per distinct x and scattered back; both are elementwise in x, so
    each entry keeps the bits of a per-entry evaluation. The distinct ratios are split
    interleaved (every ``threads``-th of the sorted ratios) over ``threads`` calls at
    once: the cost per ratio is uneven along the sorted ratios, so contiguous parts
    would not balance. The result does not depend on ``threads``.
    """
    c = molchan_constant(H)
    a_beta, b = 1.5 - H, H + 0.5
    x = w / t
    ux, inverse = np.unique(x, return_inverse=True)
    inverse = inverse.reshape(x.shape)  # numpy < 2 returns it flat

    shares = max(threads, 1)  # as in parallel_map, a count below 1 runs serially
    binc, tail = np.empty_like(ux), np.empty_like(ux)

    def fill(k: int) -> None:  # the k-th interleaved share, disjoint from the others
        share = slice(k, None, shares)
        binc[share] = special.betainc(a_beta, b, ux[share]) * special.beta(a_beta, b)
        tail[share] = _kernel_tail(ux[share], H)

    parallel_map(fill, range(shares), shares)
    return c / b * (t**b * binc[inverse] - (H - 0.5) * w**b * tail[inverse])


def _fbm_autocovariance(times: np.ndarray, H: float) -> np.ndarray:
    """Matrix of r(t_i, t_j) = 1/2 (t_i^{2H} + t_j^{2H} - |t_i - t_j|^{2H})."""
    t2h = times ** (2.0 * H)
    gaps = np.abs(times[:, None] - times[None, :])
    return 0.5 * (t2h[:, None] + t2h[None, :] - gaps ** (2.0 * H))


def _step_kernel(grid: TimeGrid, H: float, threads: int = 1) -> np.ndarray:
    """K[i, j] = E[B^H_{t_i} dW_j] / sqrt(dt_j), from the cross covariance at j <= i only.

    Differences of C[i, j] = E[B^H_{t_i} W_{t_j}] along j, with C[i, -1] = 0. Above the
    diagonal C[i, j] = C[i, i], so K is exactly zero there and C is not evaluated.
    ``threads`` splits the special functions of `_cross_covariance`.
    """
    times, n = grid.times, grid.n
    rows, cols = np.tril_indices(n)
    cross = np.zeros((n, n))
    cross[rows, cols] = _cross_covariance(times[rows], times[cols], H, threads)
    kernel = np.diff(cross, axis=1, prepend=0.0)
    kernel.flat[1 :: n + 1] = 0.0  # the superdiagonal holds -C[i, i]
    kernel /= np.sqrt(grid.deltas)
    return kernel


@dataclass(eq=False)
class TimeGrid:
    """Strictly increasing grid of positive times; t = 0 is excluded by construction.

    All processes vanish at t = 0, so including it would only make the joint covariance
    singular. Quoted maturities merged via `with_maturities` each appear exactly once.
    """

    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("grid requires a nonempty 1-d array of times")
        if self.times[0] <= 0.0:
            raise ValueError("grid times must be strictly positive (t=0 is implicit)")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("grid times must be strictly increasing")

    @classmethod
    def regular(cls, horizon: float, steps_per_year: int) -> "TimeGrid":
        """Uniform grid k/steps_per_year up to the horizon, horizon appended if needed."""
        horizon = float(horizon)
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if steps_per_year <= 0:
            raise ValueError("steps_per_year must be positive")
        n = int(math.floor(horizon * steps_per_year + 1e-9))
        times = np.arange(1, n + 1, dtype=float) / steps_per_year if n > 0 else np.empty(0)
        if times.size == 0 or times[-1] < horizon - GRID_ATOL:
            times = np.append(times, horizon)
        else:
            times[-1] = horizon  # absorb representation error so horizon is exact
        return cls(times=times)

    @classmethod
    def with_maturities(cls, maturities, steps_per_year: int) -> "TimeGrid":
        """Regular grid on [0, max maturity] with every quoted maturity as an exact node."""
        mats = sorted({float(m) for m in maturities})
        if not mats or mats[0] <= 0.0:
            raise ValueError("maturities must be positive")
        base = cls.regular(mats[-1], steps_per_year)
        times = list(base.times)
        for m in mats:
            if not any(abs(x - m) <= GRID_ATOL for x in times):
                times.append(m)
        times = np.array(sorted(times))
        return cls(times=times)

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def deltas(self) -> np.ndarray:
        """Step sizes into each node, with the implicit t=0 origin: deltas[0] = times[0]."""
        return np.diff(self.times, prepend=0.0)

    def index_of(self, maturity: float) -> int:
        """Index of an exact grid node; raises if the maturity was never inserted."""
        i = int(np.searchsorted(self.times, maturity))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.times.size and abs(self.times[j] - maturity) <= GRID_ATOL:
                return j
        raise ValueError(
            f"maturity {maturity} is not a grid node; build the grid with "
            "TimeGrid.with_maturities so every quoted maturity is inserted"
        )


@dataclass(eq=False)
class JointCovariance:
    """Factorized joint covariance of (B^H at grid times, W at grid times).

    Stores only the n x 2n fBm factor ``fbm_factor = [K~ | L_S]``: B^H = Z @ fbm_factor.T
    for the draws Z = [dW | Z_B] of `draw_normal_bundle`, whose first n columns are the
    Wiener increments and whose last n are the standard normals that drive the part of
    B^H independent of W. Both halves are lower-triangular, and the path kernel,
    `transform_normals`, forms the product over panels of grid steps that never read
    their zero upper triangles (`_block_transform`). K~ is the step-average kernel
    (see the module docstring), whose kernel tail is an incomplete Beta for H < 1/2
    and a 2F1 for H > 1/2; in Z-space the kernel is K = K~ sqrt(deltas). ``jitter``
    records the diagonal shift added to the conditional covariance S = r - K K^T
    before its Cholesky (0.0 when plain factorization succeeded, and always at
    H = 1/2, where S = 0 and K~ is tril(ones)).
    """

    grid: TimeGrid
    H: float
    fbm_factor: np.ndarray
    jitter: float = 0.0


def build_joint_covariance(grid: TimeGrid, H: float, threads: int = 1) -> JointCovariance:
    """Factorize the joint (B^H, W) covariance on a grid, W first.

    Forms the Z-space step kernel K from the closed-form cross covariance and
    factorizes only the n x n conditional covariance S = r - K K^T. Factorization first
    attempts a plain Cholesky; on failure an escalating diagonal jitter (1e-14 .. 1e-10,
    five steps) is applied, since fine grids make S numerically rank-deficient, and the
    jitter is logged at INFO with H and n. Exhausting the ladder raises
    FactorizationError naming the smallest eigenvalue of S. The stored kernel block is
    then K~ = K / sqrt(deltas), which multiplies dW. At H = 1/2, where B^H = W, K~ is
    tril(ones) and L_S = 0 with no jitter.

    The kernel's special functions run once per distinct ratio of grid times, split
    over ``threads`` calls at once (`_cross_covariance`); the factor is bit-identical
    at any ``threads``. Callers that are already parallel pass 1, so pools never nest.
    """
    H = _validate_hurst(H)
    n = grid.n
    factor = np.zeros((n, 2 * n))
    if H == 0.5:
        factor[np.tril_indices(n)] = 1.0
        return JointCovariance(grid=grid, H=H, fbm_factor=factor)
    kernel = factor[:, :n]
    kernel[:] = _step_kernel(grid, H, threads)
    cond = _fbm_autocovariance(grid.times, H)
    cond -= kernel @ kernel.T
    for jit in (0.0,) + JITTER_LADDER:
        target = cond
        if jit:
            target = cond.copy()
            target.flat[:: n + 1] += jit
        try:
            factor[:, n:] = np.linalg.cholesky(target)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        min_eig = float(np.linalg.eigvalsh(cond)[0])
        raise FactorizationError(
            f"covariance factorization failed at maximum jitter {JITTER_LADDER[-1]:.0e}; "
            f"smallest eigenvalue estimate {min_eig:.3e} of the conditional fBm covariance"
        )
    if jit:
        log.info("covariance jitter %.0e added at H=%r, n=%d", jit, H, n)
    kernel /= np.sqrt(grid.deltas)
    return JointCovariance(grid=grid, H=H, fbm_factor=factor, jitter=jit)


@dataclass(eq=False)
class PathBundle:
    """Sampled joint paths on ``grid``: B^H at grid times, the Wiener increments that
    drive it, and independent scaled increments, one row per path.

    ``w_increments[:, k]`` is dW_k = W_{t_k} - W_{t_{k-1}} = sqrt(deltas[k]) Z_W[k], a
    view of the draws [dW | Z_B]; W itself is never formed. ``fbm_paths`` may share
    its base with ``w_increments``: `sample_paths` forms B^H over the Z_B half of the
    draws it made, so the two are the halves of one [dW | B^H] array.
    ``w_tilde_increments[:, k]`` is an N(0, deltas[k]) draw independent of everything
    else — the orthogonal Brownian component consumed by the asset scheme — or None
    when it was not drawn.
    The path count is ``fbm_paths.shape[0]``. Every array is time-major (Fortran
    order, or a row slice of a Fortran-order array), shapes unchanged at paths x
    steps: the values of one grid step are contiguous. Identical (seed, grid, path
    count) reproduce bit-identical bundles.
    """

    fbm_paths: np.ndarray
    w_increments: np.ndarray
    w_tilde_increments: np.ndarray | None
    grid: TimeGrid = field(repr=False)
    #: one-slot memo of the conditional estimator's sums of these paths at sigma0 = 1,
    #: ``(key, sums)``, read and replaced by `pricing.chain_estimates`; it goes with
    #: the paths
    unit_sums: tuple | None = field(default=None, init=False, repr=False)


#: Leading key words of the RNG streams under one base seed s, one per consumer, so
#: no two consumers share a stream. Path block b draws from [s, _STREAM_PATHS, b], the
#: genetic search from [s, _STREAM_GA], bootstrap sample j from the `derive_seed` keys
#: [s, _STREAM_BOOT, j, tag], and significance repetition k from
#: [s, _STREAM_SIGNIFICANCE, k, arm]. numpy's SeedSequence ignores trailing zero words
#: ([s], [s, 0] and [s, 0, 0] give the same state with numpy 2.4.6), so path block 0 of
#: seed s draws the same stream as ``default_rng(s)``. A new consumer takes a new tag.
_STREAM_PATHS, _STREAM_GA, _STREAM_BOOT, _STREAM_SIGNIFICANCE = 0, 1, 2, 3


def derive_seed(base: int, *path: int) -> int:
    """Deterministic 64-bit child seed from a base seed and an integer key path.

    Built on SeedSequence hashing, so children are pairwise independent and
    platform-stable; used wherever a workflow needs many reproducible sub-seeds
    (bootstrap samples, significance repetitions)."""
    state = np.random.SeedSequence([int(base), *map(int, path)]).generate_state(1, np.uint64)
    return int(state[0])


def _block_count(path_count: int) -> int:
    return -(-path_count // PATH_BLOCK)


def _block_normals(seed: int, b: int, path_count: int, grid: TimeGrid,
                   orthogonal: bool = True):
    """Block b's draws from its own stream, Z (rows x 2n) first, then Z_tilde (rows x n),
    returned as [dW | Z_B] and dW~: the one place where normals are scaled by sqrt(dt).

    Both arrays are time-major (Fortran order). The stream fills a C-order panel of
    ``_CHUNK_ENTRIES // columns`` rows at a time, which is scaled and copied into place,
    so every (row, column) holds its value in a one-shot ``standard_normal`` draw of the
    whole block. Without ``orthogonal`` Z_tilde is not drawn and dW~ is None; Z keeps
    its bits, since it comes first in the stream."""
    n = grid.n
    rows = min(PATH_BLOCK, path_count - b * PATH_BLOCK)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_PATHS, b]))
    scale = np.sqrt(grid.deltas)

    def draw(columns: int) -> np.ndarray:
        draws = np.empty((rows, columns), order="F")
        height = max(1, _CHUNK_ENTRIES // columns)
        panel = np.empty((min(height, rows), columns))
        for lo in range(0, rows, height):
            part = panel[: min(height, rows - lo)]
            rng.standard_normal(out=part)
            part[:, :n] *= scale
            draws[lo: lo + part.shape[0]] = part
        return draws

    z = draw(2 * n)
    return z, draw(n) if orthogonal else None


def _cumsum_steps(a: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=1)`` in place for a time-major ``a``, bit for bit: the same
    sequential additions, one contiguous column of steps at a time (numpy's cumsum
    would walk the strided axis, 5-7x slower at 4096 x 1011)."""
    for k in range(1, a.shape[1]):
        a[:, k] += a[:, k - 1]
    return a


def parallel_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, with up to ``threads`` calls at once.

    Results come back in the order of ``items`` whatever the scheduling, and the
    exception of the first failing item propagates. Runs serially when
    ``threads <= 1`` or there is at most one item.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def draw_normal_bundle(grid: TimeGrid, path_count: int, seed: int, *,
                       orthogonal: bool = True):
    """Draw the frozen inputs: [dW | Z_B] (path_count x 2n) and dW~ (path_count x n).

    dW and dW~ are the Wiener and orthogonal increments on ``grid``, Z_B the normals
    that drive the part of B^H independent of W (see `JointCovariance`); none depends
    on H. Without ``orthogonal`` dW~ is neither drawn nor stored, and is None. Both
    arrays are time-major (Fortran order), shapes unchanged, and each value sits where
    a row-major draw of the block puts it. Block b draws from the same per-block stream
    as `sample_paths` with ``block=b``, so `transform_normals` of any PATH_BLOCK row
    slice of these draws reproduces that block bit for bit. The blocks are drawn in
    order on the calling thread. This is the object a common-random-numbers calibration
    freezes, and the whole draw of `sample_paths`.
    """
    if path_count < 1:
        raise ValueError("path_count must be >= 1")
    n = grid.n
    z = np.empty((path_count, 2 * n), order="F")
    z_tilde = np.empty((path_count, n), order="F") if orthogonal else None
    for b in range(_block_count(path_count)):
        z_b, zt_b = _block_normals(seed, b, path_count, grid, orthogonal)
        rows = slice(b * PATH_BLOCK, b * PATH_BLOCK + z_b.shape[0])
        # Keep this copy and the free of the block buffer after it: freeing a block's
        # draws (an mmap) raises glibc's dynamic mmap threshold to its size, and the
        # heap trim threshold to twice that, so the pricing loop's per-block
        # temporaries come from a heap that is not trimmed after every call. Drawing
        # in place left only the 2 MB draw panel to set them, and a desk calibration
        # faulted in about 5x the pages (81k against 17k minor faults).
        z[rows] = z_b
        if orthogonal:
            z_tilde[rows] = zt_b
        del z_b, zt_b
    return z, z_tilde


def _block_transform(factor: np.ndarray, zt: np.ndarray, out: np.ndarray) -> None:
    """out = factor @ zt for the n x 2n factor [K~ | L_S], over row panels of
    _TRANSFORM_PANEL grid steps, from the last panel to the first.

    Both halves are lower-triangular, so the panel of steps [lo, hi) multiplies only
    columns [0, hi) of each half, two products summed through one panel temporary;
    the last panel is one product over all 2n columns. The zeros above each
    non-final panel's last step are never read, which saves about half the flops at
    n = 1011, and a grid of at most one panel keeps the single dense product.

    ``out`` may be the Z_B half of ``zt`` (its rows n onwards), which `sample_paths`
    passes: panel [lo, hi) reads only Z_B steps below hi, so walking the panels
    backwards lands each on steps that no panel still to run reads. Within a panel
    the Z_B product goes into the temporary before the dW product overwrites those
    steps. The last panel reads every step it writes; numpy's ufuncs give an
    overlapping output the result of a separate one, so matmul forms it in a copy
    of that panel and writes it back. The products and sums are those of a forward
    walk into a separate ``out``, so the paths keep their bits either way.
    """
    n = factor.shape[0]
    last = (n - 1) // _TRANSFORM_PANEL * _TRANSFORM_PANEL
    np.matmul(factor[last:], zt, out=out[last:])
    partial = np.empty((min(_TRANSFORM_PANEL, last), zt.shape[1]))
    for lo in range(last - _TRANSFORM_PANEL, -1, -_TRANSFORM_PANEL):
        hi = lo + _TRANSFORM_PANEL
        np.matmul(factor[lo:hi, n: n + hi], zt[n: n + hi], out=partial)
        np.matmul(factor[lo:hi, :hi], zt[:hi], out=out[lo:hi])
        out[lo:hi] += partial


def sample_paths(cov: JointCovariance, path_count: int, seed: int, *,
                 block: int | None = None, orthogonal: bool = True) -> PathBundle:
    """Draw exact joint paths: B^H, the Wiener increments dW and independent
    orthogonal increments.

    The draws [dW | Z_B] and dW~ are made block by block on the calling thread
    (`draw_normal_bundle`); each block owns an RNG stream derived from (seed, block
    index), so the output is deterministic for fixed inputs. With ``block=b`` only path
    block b of the ``path_count``-path draw is sampled (`_block_normals`), rows
    b * PATH_BLOCK onwards, bit for bit as in the whole draw; callers that want
    parallelism dispatch blocks this way. Without ``orthogonal`` dW~ is not drawn (the
    conditional estimator never reads it) and the bundle's ``w_tilde_increments`` is
    None; B^H and dW keep their bits. Either draw is mapped to paths by the W-first
    factor in `transform_normals`, whose bundle is returned as it is. The draws are
    this call's own, so B^H is written over their Z_B half (``out=z[:, n:]``): a
    block holds [dW | B^H] (and dW~), with the bits of a transform into a new array.
    """
    if path_count < 1:
        raise ValueError("path_count must be >= 1")
    if block is None:
        z, w_tilde = draw_normal_bundle(cov.grid, path_count, seed, orthogonal=orthogonal)
    else:
        n_blocks = _block_count(path_count)
        if not 0 <= block < n_blocks:
            raise ValueError(f"block {block} outside 0..{n_blocks - 1} for "
                             f"{path_count} paths")
        z, w_tilde = _block_normals(seed, block, path_count, cov.grid, orthogonal)
    return transform_normals(z, w_tilde, cov, out=z[:, cov.grid.n:])


def transform_normals(z: np.ndarray, w_tilde_increments: np.ndarray | None,
                      cov: JointCovariance, *, out: np.ndarray | None = None) -> PathBundle:
    """The path kernel: form the paths of draws under a covariance.

    ``z`` and ``w_tilde_increments`` are (row slices of) the two arrays of
    `draw_normal_bundle` or one block's draw: [dW | Z_B] and dW~ (or None), neither of
    which depends on H. dW is a view of ``z`` and B^H = [dW | Z_B] @ [K~ | L_S]^T under
    ``cov`` (see `JointCovariance`), formed as ([K~ | L_S] @ [dW | Z_B]^T)^T so that it
    comes out time-major, panel by panel of grid steps (`_block_transform`), per
    PATH_BLOCK rows: BLAS may round a product over more rows differently, and this way
    the rows of a whole draw are its blocks' bit for bit. At H = 1/2, B^H = cumsum(dW)
    with no product. The bundle's increments are views of the inputs.

    B^H is written to ``out``, a time-major (rows, n) buffer that must not overlap dW
    (ValueError otherwise), or to a new array when ``out`` is None. ``out`` may be the
    Z_B half of ``z`` itself, ``z[:, n:]``: the draws then end up holding [dW | B^H],
    and nothing is allocated beyond panel temporaries. `sample_paths` owns its draws
    and passes that; the calibrator keeps its draws, passes one PATH_BLOCK row slice of
    them at a time and no ``out``, so they stay fixed while the covariance (hence the
    Hurst index) changes, making the parameter-to-paths map deterministic and smooth.
    The paths have the same bits with or without ``out``. Every path set goes through
    here.
    """
    n = cov.grid.n
    if z.shape[1] != 2 * n or (w_tilde_increments is not None
                               and w_tilde_increments.shape[1] != n):
        raise ValueError("normal draw shapes do not match the covariance grid")
    dw = z[:, :n]
    out = np.empty(dw.shape, order="F") if out is None else out
    if out.shape != dw.shape or np.shares_memory(out, dw):
        raise ValueError(f"out must have shape {dw.shape} and not overlap dW")
    if cov.H == 0.5:
        out[:] = dw
        _cumsum_steps(out)
    else:  # per PATH_BLOCK rows, as each block alone is formed
        for lo in range(0, z.shape[0], PATH_BLOCK):
            rows = slice(lo, lo + PATH_BLOCK)
            _block_transform(cov.fbm_factor, z[rows].T, out[rows].T)
    return PathBundle(fbm_paths=out, w_increments=dw,
                      w_tilde_increments=w_tilde_increments, grid=cov.grid)
