"""Exact joint simulation of fractional Brownian motion and its driving Wiener process.

The fractional Brownian motion (fBm) B^H with Hurst index H in (0,1) is the centered
Gaussian process with autocovariance

    r(t, s) = 1/2 (t^{2H} + s^{2H} - |t - s|^{2H}).

On a finite horizon it admits the Volterra representation B^H_t = int_0^t K_H(t, s) dW_s
against a standard Wiener process W, with the finite-interval (Molchan-Golosov) kernel

    K_H(t, s) = C_H [ (t/s)^{H-1/2} (t-s)^{H-1/2}
                      - (H - 1/2) s^{1/2-H} int_s^t z^{H-3/2} (z-s)^{H-1/2} dz ],
    C_H = sqrt( 2H Gamma(3/2 - H) / (Gamma(H + 1/2) Gamma(2 - 2H)) ).

This module assembles the exact joint covariance of (B^H, W) on a time grid — fBm block
r(t,s), Wiener block min(t,s), cross block E[B^H_t W_s] = int_0^{min(t,s)} K_H(t,u) du —
factorizes it, and draws exact joint Gaussian paths plus an independent orthogonal
increment set. Sampling is blocked with per-block RNG streams so results are bit-identical
at any degree of parallelism.

The inner integral of the kernel reduces to an incomplete-Beta-type "tail" integral

    tail(x) = int_x^1 y^{-2H} (1-y)^{H-1/2} dy
            = (1-x)^{H+1/2} / (H+1/2) * 2F1(2H, H+1/2; H+3/2; 1-x),

which also yields a closed form for the cross covariance (w = min(t,s)):

    E[B^H_t W_s] = C_H/(H+1/2) [ t^{H+1/2} B(3/2-H, H+1/2; w/t)
                                 - (H-1/2) w^{H+1/2} tail(w/t) ],

with B(a,b;x) the non-regularized incomplete Beta function. The closed form is used for
vectorized covariance assembly; `fbm_wiener_cross_covariance` exposes the equivalent
adaptive-quadrature evaluation with the endpoint singularities removed by power
substitutions.
"""
from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

__all__ = [
    "TimeGrid",
    "JointCovariance",
    "PathBundle",
    "QuadratureError",
    "FactorizationError",
    "fbm_autocovariance",
    "molchan_constant",
    "molchan_golosov_kernel",
    "fbm_wiener_cross_covariance",
    "cross_covariance_matrix",
    "build_joint_covariance",
    "draw_normal_bundle",
    "sample_paths",
]

#: fixed path-block size; the unit of RNG-stream derivation and parallel dispatch, and
#: the unit of memory of fresh-draw pricing, which holds one block per worker.
PATH_BLOCK = 4096

#: escalating diagonal jitter schedule for nearly rank-deficient covariance matrices.
JITTER_LADDER = (1e-14, 1e-13, 1e-12, 1e-11, 1e-10)

#: absolute tolerance for deciding that a quoted maturity already sits on a grid node.
GRID_ATOL = 1e-12


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class FactorizationError(RuntimeError):
    """Covariance factorization failed even at maximum diagonal jitter."""


def _validate_hurst(H: float) -> float:
    H = float(H)
    if not 0.0 < H < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {H}")
    return H


def fbm_autocovariance(t: float, s: float, H: float) -> float:
    """Autocovariance r(t,s) = 1/2 (t^{2H} + s^{2H} - |t-s|^{2H}) of fBm.

    Symmetric in (t, s); r(t, t) = t^{2H}. Raises ValueError for negative times
    or H outside (0, 1).
    """
    H = _validate_hurst(H)
    t, s = float(t), float(s)
    if t < 0.0 or s < 0.0:
        raise ValueError(f"times must be nonnegative, got t={t}, s={s}")
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


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


def molchan_golosov_kernel(t: float, s: float, H: float) -> float:
    """Finite-interval fBm kernel K_H(t, s) for 0 < s < t.

    Unbounded as s -> t when H < 1/2 (the (t-s)^{H-1/2} factor) and as s -> 0
    (s^{H-1/2} from the reduced correction term); both singularities are integrable.
    K_H is identically 1 at H = 1/2.
    """
    H = _validate_hurst(H)
    t, s = float(t), float(s)
    if not 0.0 < s <= t:
        raise ValueError(f"kernel requires 0 < s <= t, got t={t}, s={s}")
    c = molchan_constant(H)
    a = H - 0.5
    # the inner z-integral collapses to s^{2H-1} * tail(s/t)
    return c * ((t / s) ** a * (t - s) ** a - a * s**a * float(_kernel_tail(s / t, H)))


def fbm_wiener_cross_covariance(t: float, s: float, H: float, tol: float = 1e-10) -> float:
    """E[B^H_t W_s] = int_0^{min(t,s)} K_H(t, u) du by adaptive quadrature.

    The kernel's endpoint singularities are removed by power substitutions before
    integration: near u = 0 the map u = v^p with p = max(1/(H+1/2), 2/(3-2H)), near
    u = t the map u = t - v^{1/(H+1/2)}; in both substituted integrands the singular
    factor is cancelled analytically, so no evaluation ever forms (t-u)^{H-1/2} from
    a catastrophically cancelled difference. The integral is split at min(t,s)/2.

    Raises QuadratureError if the combined achieved error estimate exceeds ``tol``.
    """
    H = _validate_hurst(H)
    t, s = float(t), float(s)
    if t < 0.0 or s < 0.0:
        raise ValueError(f"times must be nonnegative, got t={t}, s={s}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    w = min(t, s)
    if w == 0.0:
        return 0.0
    if H == 0.5:  # K_H is identically 1
        return w

    c = molchan_constant(H)
    a = H - 0.5
    b = H + 0.5
    q = 1.0 / b
    p = max(q, 2.0 / (3.0 - 2.0 * H))
    a1 = p * (1.5 - H) - 1.0  # exponent left on the first kernel term after u = v^p
    a2 = p * b - 1.0          # exponent left on the tail term after u = v^p

    def lower_piece(v: float) -> float:
        # u = v^p on (0, w/2]; u^{H-1/2} (tail term) and u^{1/2-H} (first term)
        # are absorbed into v^{a2} and v^{a1}, both with nonnegative exponents.
        u = v**p
        term1 = t**a * (t - u) ** a * v**a1
        term2 = a * float(_kernel_tail(u / t, H)) * v**a2
        return c * p * (term1 - term2)

    def upper_piece(v: float) -> float:
        # u = t - d with d = v^q on [w/2, w]; d^{H-1/2} * dv-Jacobian == q exactly,
        # and tail(u/t) is rewritten through 2F1 at the small argument d/t.
        d = v**q
        u = t - d
        term1 = q * (t / u) ** a
        hyp = special.hyp2f1(2.0 * H, b, b + 1.0, d / t)
        term2 = a / b * u**a * t ** (-b) * hyp * q * d
        return c * (term1 - term2)

    val1, err1 = integrate.quad(
        lower_piece, 0.0, (w / 2.0) ** (1.0 / p),
        epsabs=tol / 2.0, epsrel=1e-11, limit=200, full_output=1,
    )[:2]
    val2, err2 = integrate.quad(
        upper_piece, (t - w) ** (1.0 / q), (t - w / 2.0) ** (1.0 / q),
        epsabs=tol / 2.0, epsrel=1e-11, limit=200, full_output=1,
    )[:2]
    achieved = err1 + err2
    if achieved > tol:
        raise QuadratureError(
            f"cross-covariance quadrature achieved +/-{achieved:.3e}, requested {tol:.3e}"
        )
    return val1 + val2


def cross_covariance_matrix(times: np.ndarray, H: float) -> np.ndarray:
    """Matrix of E[B^H_{t_i} W_{t_j}] over a grid, via the closed incomplete-Beta form.

    Entry (i, j) equals int_0^{min(t_i, t_j)} K_H(t_i, u) du. Agrees with
    `fbm_wiener_cross_covariance` to quadrature precision but is vectorized, which is
    what makes per-parameter covariance rebuilds affordable inside calibration.
    """
    H = _validate_hurst(H)
    times = np.asarray(times, dtype=float)
    c = molchan_constant(H)
    a_beta, b = 1.5 - H, H + 0.5
    tcol = times[:, None]
    w = np.minimum(tcol, times[None, :])
    x = w / tcol
    binc = special.betainc(a_beta, b, x) * special.beta(a_beta, b)
    tail = _kernel_tail(x, H)
    return c / b * (tcol**b * binc - (H - 0.5) * w**b * tail)


@dataclass(eq=False)
class TimeGrid:
    """Strictly increasing grid of positive times; t = 0 is excluded by construction.

    All processes vanish at t = 0, so including it would only make the joint covariance
    singular. ``horizon`` always equals the last grid time; quoted maturities merged via
    `with_maturities` each appear exactly once.
    """

    times: np.ndarray
    steps_per_year: int
    horizon: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("grid requires a nonempty 1-d array of times")
        if self.times[0] <= 0.0:
            raise ValueError("grid times must be strictly positive (t=0 is implicit)")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        if abs(self.horizon - self.times[-1]) > GRID_ATOL:
            raise ValueError("horizon must equal the last grid time")
        if self.steps_per_year <= 0:
            raise ValueError("steps_per_year must be positive")

    @classmethod
    def regular(cls, horizon: float, steps_per_year: int) -> "TimeGrid":
        """Uniform grid k/steps_per_year up to the horizon, horizon appended if needed."""
        horizon = float(horizon)
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        n = int(math.floor(horizon * steps_per_year + 1e-9))
        times = np.arange(1, n + 1, dtype=float) / steps_per_year if n > 0 else np.empty(0)
        if times.size == 0 or times[-1] < horizon - GRID_ATOL:
            times = np.append(times, horizon)
        else:
            times[-1] = horizon  # absorb representation error so horizon is exact
        return cls(times=times, steps_per_year=steps_per_year, horizon=horizon)

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
        return cls(times=times, steps_per_year=steps_per_year, horizon=mats[-1])

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
    """Joint covariance of (B^H at grid times, W at grid times) and its Cholesky factor.

    Layout: index i < n is B^H_{t_i}, index n + j is W_{t_j}. ``jitter`` records the
    diagonal shift (0.0 when plain factorization succeeded); the factor then reproduces
    sigma_matrix + jitter * I.
    """

    grid: TimeGrid
    H: float
    sigma_matrix: np.ndarray
    cholesky_factor: np.ndarray
    jitter: float = 0.0


def build_joint_covariance(grid: TimeGrid, H: float) -> JointCovariance:
    """Assemble and factorize the 2n x 2n joint covariance on a grid.

    Blocks: fBm-fBm from the autocovariance r(t,s), W-W from min(t,s), cross from the
    closed-form kernel integral. Factorization first attempts a plain Cholesky; on
    failure an escalating diagonal jitter (1e-14 .. 1e-10, five steps) is applied —
    fine grids and the H = 1/2 degeneracy (where B^H coincides with W) make the matrix
    numerically rank-deficient. Exhausting the ladder raises FactorizationError naming
    the smallest eigenvalue estimate.
    """
    H = _validate_hurst(H)
    times = grid.times
    t2h = times ** (2.0 * H)
    fbm_block = 0.5 * (t2h[:, None] + t2h[None, :] - np.abs(times[:, None] - times[None, :]) ** (2.0 * H))
    wiener_block = np.minimum(times[:, None], times[None, :])
    cross = cross_covariance_matrix(times, H)
    sigma = np.block([[fbm_block, cross], [cross.T, wiener_block]])

    jitter_used = 0.0
    for jit in (0.0,) + JITTER_LADDER:
        target = sigma
        if jit:
            target = sigma.copy()
            target.flat[:: target.shape[0] + 1] += jit
        try:
            factor = np.linalg.cholesky(target)
            jitter_used = jit
            break
        except np.linalg.LinAlgError:
            continue
    else:
        min_eig = float(np.linalg.eigvalsh(sigma)[0])
        raise FactorizationError(
            f"covariance factorization failed at maximum jitter {JITTER_LADDER[-1]:.0e}; "
            f"smallest eigenvalue estimate {min_eig:.3e}"
        )
    return JointCovariance(grid=grid, H=H, sigma_matrix=sigma,
                           cholesky_factor=factor, jitter=jitter_used)


@dataclass(eq=False)
class PathBundle:
    """Sampled joint paths: B^H and W at grid times plus independent scaled increments.

    ``w_tilde_increments[:, k]`` is an N(0, deltas[k]) draw independent of everything
    else — the orthogonal Brownian component consumed by the asset scheme. Identical
    (seed, grid, path_count) reproduce bit-identical bundles at any thread count.
    """

    fbm_paths: np.ndarray
    w_paths: np.ndarray
    w_tilde_increments: np.ndarray
    seed: int
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


def _run_blocks(worker, n_blocks: int, threads: int) -> None:
    """Execute ``worker(block_index)`` for every block; output slices are disjoint, so
    the result is independent of scheduling."""
    if threads <= 1 or n_blocks == 1:
        for b in range(n_blocks):
            worker(b)
        return
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(worker, range(n_blocks)))


def draw_normal_bundle(n: int, path_count: int, seed: int, threads: int = 1):
    """Draw the frozen standard-normal inputs: Z (path_count x 2n), Z_tilde (path_count x n).

    Block b draws from the same per-block stream as `sample_paths`, Z first then
    Z_tilde, so transforming these draws reproduces `sample_paths` bit for bit. This
    is the object a common-random-numbers calibration freezes.
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

    _run_blocks(worker, _block_count(path_count), threads)
    return z, z_tilde


def _sample_block(cov: JointCovariance, path_count: int, seed: int, b: int) -> PathBundle:
    """Path block b as its own bundle: views of one transform product, and Z_tilde
    scaled in place."""
    grid = cov.grid
    n = grid.n
    z, zt = _block_normals(seed, b, path_count, n)
    joint = z @ cov.cholesky_factor.T
    zt *= np.sqrt(grid.deltas)
    return PathBundle(fbm_paths=joint[:, :n], w_paths=joint[:, n:], w_tilde_increments=zt,
                      seed=int(seed), path_count=zt.shape[0], grid=grid)


def sample_paths(cov: JointCovariance, path_count: int, seed: int,
                 threads: int = 1, *, block: int | None = None) -> PathBundle:
    """Draw exact joint (B^H, W) paths plus independent orthogonal increments.

    Standard normals are transformed by the Cholesky factor block-by-block; each block
    owns an RNG stream derived from (seed, block index), so the output is deterministic
    for fixed inputs regardless of ``threads``. With ``block=b`` only path block b of
    the ``path_count``-path draw is sampled, rows b * PATH_BLOCK onwards, bit for bit
    as in the full draw; ``threads`` is then unused.
    """
    if path_count < 1:
        raise ValueError("path_count must be >= 1")
    n_blocks = _block_count(path_count)
    if block is not None:
        if not 0 <= block < n_blocks:
            raise ValueError(f"block {block} outside 0..{n_blocks - 1} for "
                             f"{path_count} paths")
        return _sample_block(cov, path_count, seed, block)
    n = cov.grid.n
    fbm = np.empty((path_count, n))
    w = np.empty((path_count, n))
    w_tilde = np.empty((path_count, n))

    def worker(b: int) -> None:
        part = _sample_block(cov, path_count, seed, b)
        rows = slice(b * PATH_BLOCK, b * PATH_BLOCK + part.path_count)
        fbm[rows] = part.fbm_paths
        w[rows] = part.w_paths
        w_tilde[rows] = part.w_tilde_increments

    _run_blocks(worker, n_blocks, threads)
    return PathBundle(fbm_paths=fbm, w_paths=w, w_tilde_increments=w_tilde,
                      seed=int(seed), path_count=path_count, grid=cov.grid)


def transform_normals(z: np.ndarray, w_tilde_increments: np.ndarray,
                      cov: JointCovariance) -> PathBundle:
    """Turn frozen normal draws into a PathBundle under a (possibly new) covariance.

    ``w_tilde_increments`` is the Z_tilde draw already scaled by sqrt(deltas); it does
    not depend on H, so a caller that transforms the same draws under many covariances
    scales it once and the bundle shares that array instead of copying it. Used by the
    calibrator: the draws stay fixed while the covariance (hence the Hurst index)
    changes, making the parameter-to-paths map deterministic and smooth.
    """
    n = cov.grid.n
    if z.shape[1] != 2 * n or w_tilde_increments.shape[1] != n:
        raise ValueError("normal draw shapes do not match the covariance grid")
    joint = z @ cov.cholesky_factor.T
    return PathBundle(fbm_paths=joint[:, :n], w_paths=joint[:, n:],
                      w_tilde_increments=w_tilde_increments,
                      seed=-1, path_count=z.shape[0], grid=cov.grid)
