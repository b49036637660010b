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
K_H(t,u) du — and draws exact joint Gaussian paths plus an independent orthogonal
increment set. Sampling is blocked with per-block RNG streams so results are bit-identical
at any degree of parallelism.

The factorization puts W first. With Z = (Z_W, Z_B) standard normal, the Wiener
increments are dW_j = sqrt(dt_j) Z_W[j], which do not depend on H. Paths carry dW, the
form that the left-point integrals and the asset scheme consume; W itself, their
cumulative sum, is never formed. The fBm is B^H = K Z_W + L_S Z_B, where the step kernel

    K[i, j] = E[B^H_{t_i} dW_j] / sqrt(dt_j) = int_{t_{j-1}}^{t_j} K_H(t_i, u) du / sqrt(dt_j)

is the Volterra kernel integrated over step j (lower-triangular, since K_H(t, u) = 0
for u > t), and L_S is the Cholesky factor of the n x n conditional covariance
S = r - K K^T of B^H given the Wiener increments. Only the n x 2n block [K | L_S] is
stored and multiplied. At H = 1/2 the kernel is identically 1, B^H = W and S = 0, so
no Cholesky is taken and the fBm paths are the cumulative sum of dW.

The inner integral of the kernel reduces to an incomplete-Beta-type "tail" integral

    tail(x) = int_x^1 y^{-2H} (1-y)^{H-1/2} dy
            = (1-x)^{H+1/2} / (H+1/2) * 2F1(2H, H+1/2; H+3/2; 1-x),

which also yields a closed form for the cross covariance (w = min(t,s)):

    E[B^H_t W_s] = C_H/(H+1/2) [ t^{H+1/2} B(3/2-H, H+1/2; w/t)
                                 - (H-1/2) w^{H+1/2} tail(w/t) ],

with B(a,b;x) the non-regularized incomplete Beta function. The closed form is used for
vectorized covariance assembly; tests/test_fbm.py cross-checks it against adaptive
quadrature of the kernel, with the endpoint singularities removed by power
substitutions.
"""
from __future__ import annotations

import concurrent.futures
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
    "cross_covariance_matrix",
    "build_joint_covariance",
    "draw_normal_bundle",
    "sample_paths",
    "transform_normals",
    "derive_seed",
]

#: fixed path-block size; the unit of RNG-stream derivation, parallel dispatch,
#: pricing and the frozen pricer's path cache: every price pools per-block estimates,
#: with one block in flight per worker.
PATH_BLOCK = 4096

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

    Evaluated through the Gauss hypergeometric identity
    tail(x) = (1-x)^{H+1/2}/(H+1/2) * 2F1(2H, H+1/2; H+3/2; 1-x), which is exact and
    well-conditioned on the whole domain (argument 1-x stays inside [0, 1)).
    """
    x = np.asarray(x, dtype=float)
    b = H + 0.5
    z = 1.0 - x
    return z**b / b * special.hyp2f1(2.0 * H, b, b + 1.0, z)


def _cross_covariance(t, w, H: float):
    """E[B^H_t W_w] for t >= w > 0, elementwise, via the closed incomplete-Beta form."""
    c = molchan_constant(H)
    a_beta, b = 1.5 - H, H + 0.5
    x = w / t
    binc = special.betainc(a_beta, b, x) * special.beta(a_beta, b)
    return c / b * (t**b * binc - (H - 0.5) * w**b * _kernel_tail(x, H))


def cross_covariance_matrix(times: np.ndarray, H: float) -> np.ndarray:
    """Matrix of E[B^H_{t_i} W_{t_j}] over a grid, via the closed incomplete-Beta form.

    Entry (i, j) equals int_0^{min(t_i, t_j)} K_H(t_i, u) du.
    """
    H = _validate_hurst(H)
    tcol = np.asarray(times, dtype=float)[:, None]
    return _cross_covariance(tcol, np.minimum(tcol, tcol.T), H)


def _fbm_autocovariance(times: np.ndarray, H: float) -> np.ndarray:
    """Matrix of r(t_i, t_j) = 1/2 (t_i^{2H} + t_j^{2H} - |t_i - t_j|^{2H})."""
    t2h = times ** (2.0 * H)
    gaps = np.abs(times[:, None] - times[None, :])
    return 0.5 * (t2h[:, None] + t2h[None, :] - gaps ** (2.0 * H))


def _wiener_factor(grid: TimeGrid) -> np.ndarray:
    """tril(ones) * sqrt(deltas): the factor that maps Z_W to W at the grid times."""
    return np.tril(np.ones((grid.n, grid.n))) * np.sqrt(grid.deltas)


def _step_kernel(grid: TimeGrid, H: float) -> np.ndarray:
    """K[i, j] = E[B^H_{t_i} dW_j] / sqrt(dt_j), from the cross covariance at j <= i only.

    Differences of C[i, j] = E[B^H_{t_i} W_{t_j}] along j, with C[i, -1] = 0. Above the
    diagonal C[i, j] = C[i, i], so K is exactly zero there and C is not evaluated.
    """
    times, n = grid.times, grid.n
    rows, cols = np.tril_indices(n)
    cross = np.zeros((n, n))
    cross[rows, cols] = _cross_covariance(times[rows], times[cols], H)
    kernel = np.diff(cross, axis=1, prepend=0.0)
    kernel.flat[1 :: n + 1] = 0.0  # the superdiagonal holds -C[i, i]
    kernel /= np.sqrt(grid.deltas)
    return kernel


@dataclass(eq=False)
class TimeGrid:
    """Strictly increasing grid of positive times; t = 0 is excluded by construction.

    All processes vanish at t = 0, so including it would only make the joint covariance
    singular. ``horizon`` is the last grid time; quoted maturities merged via
    `with_maturities` each appear exactly once.
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
    def horizon(self) -> float:
        return float(self.times[-1])

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

    Stores only the n x 2n fBm factor ``fbm_factor = [K | L_S]``: B^H = Z @ fbm_factor.T
    for standard normals Z whose first n columns (Z_W) drive the Wiener increments
    dW = sqrt(deltas) * Z_W, and whose last n columns (Z_B) drive the part of B^H that
    is independent of W. ``jitter`` records the diagonal shift added to the
    conditional covariance S before its Cholesky (0.0 when plain factorization
    succeeded, and always at H = 1/2, where S = 0).

    ``sigma_matrix`` and ``cholesky_factor`` are the 2n x 2n matrices in the fBm-first
    layout (index i < n is B^H_{t_i}, index n + j is W_{t_j}); they are built on each
    access and not kept.
    """

    grid: TimeGrid
    H: float
    fbm_factor: np.ndarray
    jitter: float = 0.0

    @property
    def sigma_matrix(self) -> np.ndarray:
        """The exact joint covariance, fBm block r(t,s), Wiener block min(t,s)."""
        times = self.grid.times
        cross = cross_covariance_matrix(times, self.H)
        return np.block([[_fbm_autocovariance(times, self.H), cross],
                         [cross.T, np.minimum(times[:, None], times[None, :])]])

    @property
    def cholesky_factor(self) -> np.ndarray:
        """L with L L^T = sigma_matrix + jitter on the fBm diagonal; columns follow Z.

        The B^H rows are [K | L_S] and the W rows are [tril(ones) * sqrt(deltas) | 0],
        so L is lower-triangular once W is ordered first.
        """
        n = self.grid.n
        return np.vstack([self.fbm_factor,
                          np.hstack([_wiener_factor(self.grid), np.zeros((n, n))])])


def build_joint_covariance(grid: TimeGrid, H: float) -> JointCovariance:
    """Factorize the joint (B^H, W) covariance on a grid, W first.

    Forms the step kernel K from the closed-form cross covariance and factorizes only
    the n x n conditional covariance S = r - K K^T. Factorization first attempts a
    plain Cholesky; on failure an escalating diagonal jitter (1e-14 .. 1e-10, five
    steps) is applied, since fine grids make S numerically rank-deficient. Exhausting
    the ladder raises FactorizationError naming the smallest eigenvalue of S. At
    H = 1/2, where B^H = W, K is the Wiener factor and L_S = 0 with no jitter.
    """
    H = _validate_hurst(H)
    n = grid.n
    factor = np.zeros((n, 2 * n))
    if H == 0.5:
        factor[:, :n] = _wiener_factor(grid)
        return JointCovariance(grid=grid, H=H, fbm_factor=factor)
    kernel = factor[:, :n]
    kernel[:] = _step_kernel(grid, H)
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
    return JointCovariance(grid=grid, H=H, fbm_factor=factor, jitter=jit)


@dataclass(eq=False)
class PathBundle:
    """Sampled joint paths: B^H at grid times, the Wiener increments that drive it, and
    independent scaled increments.

    ``w_increments[:, k]`` is dW_k = W_{t_k} - W_{t_{k-1}} = sqrt(deltas[k]) Z_W[k],
    exactly as drawn; W itself is never formed. ``w_tilde_increments[:, k]`` is an
    N(0, deltas[k]) draw independent of everything else — the orthogonal Brownian
    component consumed by the asset scheme. Identical (seed, grid, path_count)
    reproduce bit-identical bundles at any thread count.
    """

    fbm_paths: np.ndarray
    w_increments: np.ndarray
    w_tilde_increments: np.ndarray
    path_count: int
    grid: TimeGrid = field(repr=False, default=None)


#: sub-stream namespace tag for path-block draws; other consumers of the same base
#: seed (optimizer, resampler, significance workflow) use different leading tags.
_STREAM_PATHS = 0


def derive_seed(base: int, *path: int) -> int:
    """Deterministic 64-bit child seed from a base seed and an integer key path.

    Built on SeedSequence hashing, so children are pairwise independent and
    platform-stable; used wherever a workflow needs many reproducible sub-seeds
    (bootstrap samples, significance repetitions)."""
    state = np.random.SeedSequence([int(base), *map(int, path)]).generate_state(1, np.uint64)
    return int(state[0])


def _block_count(path_count: int) -> int:
    return -(-path_count // PATH_BLOCK)


def _block_normals(seed: int, b: int, path_count: int, n: int):
    """Block b's draws from its own stream, Z (rows x 2n) first, then Z_tilde (rows x n)."""
    rows = min(PATH_BLOCK, path_count - b * PATH_BLOCK)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _STREAM_PATHS, b]))
    return rng.standard_normal((rows, 2 * n)), rng.standard_normal((rows, n))


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


def draw_normal_bundle(n: int, path_count: int, seed: int, threads: int = 1):
    """Draw the frozen standard-normal inputs: Z (path_count x 2n), Z_tilde (path_count x n).

    Z's first n columns drive dW and its last n the part of B^H independent of W (see
    `JointCovariance`). Block b draws from the same per-block stream as
    `sample_paths` with ``block=b``, Z first then Z_tilde, so transforming any
    PATH_BLOCK row slice of these draws reproduces that block bit for bit. This is the
    object a common-random-numbers calibration freezes.
    """
    if path_count < 1:
        raise ValueError("path_count must be >= 1")
    z = np.empty((path_count, 2 * n))
    z_tilde = np.empty((path_count, n))

    def worker(b: int) -> None:
        z_b, zt_b = _block_normals(seed, b, path_count, n)
        rows = slice(b * PATH_BLOCK, b * PATH_BLOCK + zt_b.shape[0])
        z[rows] = z_b
        z_tilde[rows] = zt_b

    parallel_map(worker, range(_block_count(path_count)), threads)
    return z, z_tilde


def _joint_paths(z: np.ndarray, w_tilde_increments: np.ndarray,
                 cov: JointCovariance) -> PathBundle:
    """The path kernel of `sample_paths` and `transform_normals`.

    dW = sqrt(deltas) * Z_W and B^H = Z @ [K | L_S]^T; at H = 1/2, B^H = cumsum(dW)
    with no product.
    """
    dw = z[:, : cov.grid.n] * np.sqrt(cov.grid.deltas)
    fbm = np.cumsum(dw, axis=1) if cov.H == 0.5 else z @ cov.fbm_factor.T
    return PathBundle(fbm_paths=fbm, w_increments=dw,
                      w_tilde_increments=w_tilde_increments, path_count=z.shape[0],
                      grid=cov.grid)


def sample_paths(cov: JointCovariance, path_count: int, seed: int,
                 threads: int = 1, *, block: int | None = None) -> PathBundle:
    """Draw exact joint paths: B^H, the Wiener increments dW and independent
    orthogonal increments.

    Standard normals are drawn block-by-block, Z (first n columns for dW, last n for
    the conditional fBm part) then Z_tilde, and mapped to paths by the W-first
    factor; each block owns an RNG stream derived from (seed, block index), so the
    output is deterministic for fixed inputs regardless of ``threads``. With
    ``block=b`` only path block b of the ``path_count``-path draw is sampled, rows
    b * PATH_BLOCK onwards, bit for bit as in the whole draw; ``threads`` is then
    unused. Either draw goes through the one path kernel, as `transform_normals` does.
    """
    if path_count < 1:
        raise ValueError("path_count must be >= 1")
    n = cov.grid.n
    if block is None:
        z, z_tilde = draw_normal_bundle(n, path_count, seed, threads)
    else:
        n_blocks = _block_count(path_count)
        if not 0 <= block < n_blocks:
            raise ValueError(f"block {block} outside 0..{n_blocks - 1} for "
                             f"{path_count} paths")
        z, z_tilde = _block_normals(seed, block, path_count, n)
    z_tilde *= np.sqrt(cov.grid.deltas)
    return _joint_paths(z, z_tilde, cov)


def transform_normals(z: np.ndarray, w_tilde_increments: np.ndarray,
                      cov: JointCovariance) -> PathBundle:
    """Turn frozen normal draws into a PathBundle under a (possibly new) covariance.

    Z's first n columns give the Wiener increments dW = sqrt(deltas) * Z_W, which do
    not depend on H; the fBm paths are Z @ [K | L_S]^T under ``cov`` (see
    `JointCovariance`). W is never formed. ``w_tilde_increments`` is the Z_tilde draw
    already scaled by sqrt(deltas); it does not depend on H, so a caller that
    transforms the same draws under many covariances scales it once and the bundle
    shares that array instead of copying it. Used by the calibrator, one PATH_BLOCK
    row slice at a time: the draws stay fixed while the covariance (hence the Hurst
    index) changes, making the parameter-to-paths map deterministic and smooth.
    """
    n = cov.grid.n
    if z.shape[1] != 2 * n or w_tilde_increments.shape[1] != n:
        raise ValueError("normal draw shapes do not match the covariance grid")
    return _joint_paths(z, w_tilde_increments, cov)
