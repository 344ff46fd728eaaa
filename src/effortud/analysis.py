"""Utilization-distribution summaries built on fitted intensity models.

A utilization distribution (UD) is an intensity surface rescaled to a
probability density over the region: cell values times cell area sum
to one. Downstream summaries include exceedance (core-area) maps with
sampling uncertainty, and scalar accuracy metrics for simulation studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    NonConcaveFitError,
    SingularCovarianceError,
)
from .geometry import Grid, Point, Raster, raster_from_function
from .inference import CovariateBlock, FitResult, IntensityModel, _env_block, _env_log_intensity
from .pool import ordered_map


_MAD_C = 1.48  # makes the MAD estimate a normal standard deviation
_BAND_K = 2.0  # robust_interval's half-width, in those standard deviations
_VALUE_CHUNK = 1 << 19  # cell values per block of exceedance draws
_BAND_STRIDE = 32  # a row's sample for its threshold band: every 32nd cell


def normalize_ud(intensity: Raster) -> Raster:
    """Rescale a nonnegative, finite intensity surface into a raster with sum * cell_area = 1."""
    v = intensity.values
    if not np.all(np.isfinite(v)):
        raise ValueError("intensity must be finite everywhere")
    if np.any(v < 0):
        raise ValueError("intensity must be nonnegative")
    total = v.sum() * intensity.grid.cell_area
    if total <= 0:
        raise ValueError("cannot normalize an all-zero intensity")
    return Raster(intensity.grid, v / total)


@dataclass
class ExceedanceMap:
    """Per-cell probability that the intensity exceeds a high quantile.

    ``probabilities`` holds, for each cell, the fraction of coefficient
    draws under which that cell's intensity lay strictly above the
    draw's percentile threshold. Cells whose probability falls below
    ``cutoff`` are hidden by ``masked()``.
    """

    probabilities: Raster
    cutoff: float | None = None
    n_samples: int = 0

    def masked(self) -> Raster:
        if self.cutoff is None:
            return self.probabilities.copy()
        v = self.probabilities.values.copy()
        v[v < self.cutoff] = np.nan
        return Raster(self.probabilities.grid, v)


def is_covariance(C: np.ndarray) -> bool:
    """Finite, symmetric and positive semidefinite, up to 1e-10 of the largest entry."""
    tol = 1e-10 * np.abs(C).max(initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: not symmetric
        asymmetry = np.abs(C - C.T).max(initial=0.0)
    return tol < np.inf and asymmetry <= tol and np.linalg.eigvalsh(C).min(initial=0.0) >= -tol


def _order_statistics(P: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Each row's values at sorted positions ``lo <= hi``, as ``np.partition`` places them.

    Every ``_BAND_STRIDE``-th cell of a row is a sample; two of its order
    statistics, a few standard errors either side of the ranks, give
    values ``tl <= th`` of the row. The row's cells below ``tl`` are
    counted and those in [tl, th] (its band) partitioned on their own; a
    row whose band does not hold both ranks is partitioned whole. Order
    statistics are values, so both ways give the same bits. Returns a
    rows x 2 array.
    """
    n = P.shape[1]
    S = P[:, ::_BAND_STRIDE]
    m = S.shape[1]
    # a sample rank's standard error is at most sqrt(m) / 2
    margin = 2 * math.isqrt(m) + 1
    sl, sh = max(lo * m // n - margin, 0), min(hi * m // n + margin, m - 1)
    S = np.partition(S, [sl, sh], axis=1)
    below = P < S[:, sl, None]
    band = (P <= S[:, sh, None]) ^ below  # below implies <= th, as tl <= th
    out = np.empty((len(P), 2))
    sizes = zip(np.count_nonzero(below, axis=1).tolist(), np.count_nonzero(band, axis=1).tolist())
    for i, (c, size) in enumerate(sizes):
        if c <= lo and hi < c + size:
            out[i] = np.partition(P[i][band[i]], [lo - c, hi - c])[[lo - c, hi - c]]
        else:
            out[i] = np.partition(P[i], [lo, hi])[[lo, hi]]
    return out


def _count_above(V: np.ndarray, q: float, fixed_thr: float | None = None):
    """Per-cell counts of the rows of ``V`` whose finite value exceeds the row's threshold.

    The threshold is ``fixed_thr`` when given, else each row's
    ``np.quantile(row[finite], q)`` (numpy's linear method). Rows whose
    finite cells are exactly the cells finite in every row take the order
    statistics around (n - 1) q (``_order_statistics``) and numpy's
    interpolation rule; any other row calls ``np.quantile`` itself.
    Returns the counts and the cells finite in some row.
    """
    finite = np.isfinite(V)
    thr = fixed_thr
    if thr is None:
        if not finite.any(axis=1).all():
            raise ValueError("a coefficient draw gives no cell a finite intensity")
        common = finite.all(axis=0)
        batch = (finite == common).all(axis=1)
        thr = np.empty((len(V), 1))
        if batch.any():
            n = int(np.count_nonzero(common))
            pos = (n - 1) * q
            lo = math.floor(pos)
            hi = lo + 1
            if pos >= n - 1:
                lo = hi = n - 1
            g = pos - lo
            P = V if n == V.shape[1] else V[np.ix_(batch, common)]
            a, b = _order_statistics(P, lo, hi).T
            d = b - a
            thr[batch, 0] = b - d * (1 - g) if g >= 0.5 else a + d * g
        for i in np.flatnonzero(~batch):
            thr[i] = np.quantile(V[i][finite[i]], q)
    return np.count_nonzero(finite & (V > thr), axis=0), finite.any(axis=0)


def exceedance_map(
    model: IntensityModel,
    fit: FitResult,
    rng: np.random.Generator,
    percentile: float = 70.0,
    n_samples: int = 1000,
    cutoff: float | None = None,
    threshold_mode: str = "per-draw",
    fix_detection: float = 0.0,
    fix_effort: float = 0.0,
) -> ExceedanceMap:
    """Sample coefficient uncertainty into a core-area probability map.

    Coefficients are drawn from the asymptotic normal N(theta_hat,
    covariance). Per draw the environment-driven intensity surface is
    computed and compared against its own ``percentile`` threshold
    ("per-draw" mode) or against the point-estimate threshold ("fixed").
    An all-zero covariance is accepted and yields a 0/1-valued map; any
    other rank-deficient covariance, and one that is not symmetric positive
    semidefinite (``is_covariance``), is refused.

    Draws are evaluated in blocks of at most ``_VALUE_CHUNK`` (2**19)
    cell values, one draw per block on grids larger than that. The blocks
    run on the stage threads (``pool.ordered_map``); their counts are
    integers, added on the calling thread, so the map does not depend on
    the thread count. Beyond the environment block and the per-cell
    counts, each thread's block holds its values (4 MiB at most), one
    row's partitioned copy, a few boolean masks and its counts, whatever
    ``n_samples`` is.
    """
    if not 0.0 < percentile < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    if threshold_mode not in ("per-draw", "fixed"):
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    if cutoff is not None and not np.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff}")
    if fit.covariance is None:
        raise SingularCovarianceError("fit carries no covariance")
    cov = np.asarray(fit.covariance, dtype=float)
    if not is_covariance(cov):
        raise ValueError("the coefficient covariance is not symmetric positive semidefinite")
    degenerate = bool(np.all(cov == 0.0))
    if fit.singular_information and not degenerate:
        raise SingularCovarianceError("singular coefficient covariance")

    grid = model.grid
    q = percentile / 100.0
    if degenerate:
        # every draw equals theta_hat, so one evaluation gives the 0/1 map
        draws = fit.theta[None]
    else:
        # checked above; numpy's own check has an absolute tolerance (1e-8)
        draws = rng.multivariate_normal(fit.theta, cov, n_samples, method="svd", check_valid="ignore")

    A = _env_block(model)
    fixed_thr = None
    if threshold_mode == "fixed":
        # a cell whose intensity overflows is not finite, so it counts in no draw
        with np.errstate(over="ignore"):
            base = np.exp(_env_log_intensity(model, fit.theta[None], fix_detection, fix_effort, A)[0])
        base = base[np.isfinite(base)]
        if not base.size:
            raise ValueError("the fitted coefficients give no cell a finite intensity")
        fixed_thr = float(np.quantile(base, q))
    step = max(1, _VALUE_CHUNK // grid.ncells)

    def count_block(k: int):
        # errstate is per thread: a stage thread does not inherit the caller's
        with np.errstate(over="ignore"):
            V = _env_log_intensity(model, draws[k : k + step], fix_detection, fix_effort, A)
            np.exp(V, out=V)
            return _count_above(V, q, fixed_thr)

    above = np.zeros(grid.ncells, dtype=np.int64)
    finite_any = np.zeros(grid.ncells, dtype=bool)
    for n_above, finite in ordered_map(count_block, range(0, len(draws), step)):
        above += n_above
        finite_any |= finite
    probs = above / len(draws)
    probs[~finite_any] = np.nan
    return ExceedanceMap(
        probabilities=Raster(grid, probs.reshape(grid.ny, grid.nx)),
        cutoff=cutoff,
        n_samples=n_samples,
    )


def mspe(estimate: Raster, truth: Raster) -> float:
    """Mean squared prediction error over cells."""
    if estimate.grid != truth.grid:
        raise GridMismatchError("estimate and truth on different grids")
    diff = estimate.values - truth.values
    if not np.all(np.isfinite(diff)):
        raise ValueError("mspe requires finite surfaces")
    return float(np.mean(diff * diff))


@dataclass(frozen=True)
class RobustInterval:
    median: float
    lo: float
    hi: float


def robust_interval(values) -> RobustInterval:
    """Median +- 2 * 1.48 * MAD summary of replicate statistics.

    With the consistency constant 1.48 the MAD estimates a normal
    standard deviation, so two of them give a rough 95% band.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ValueError("need at least two values to summarize")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    med = float(np.median(v))
    mad = float(np.median(np.abs(v - med)))
    half = _BAND_K * _MAD_C * mad
    return RobustInterval(median=med, lo=med - half, hi=med + half)


@dataclass(frozen=True)
class QuadraticDesign:
    """Quadratic log-intensity surface in region-scaled coordinates.

    Coordinates are mapped to u = (x - cx) / sx, v = (y - cy) / sy with
    the region center and half-widths, keeping covariates within
    [-1, 1] so the optimizer sees a well-conditioned design. The five
    covariates are named qx, qy, qx2, qy2, qxy.
    """

    grid: Grid

    @property
    def cx(self) -> float:
        r = self.grid.region
        return (r.xmin + r.xmax) / 2.0

    @property
    def cy(self) -> float:
        r = self.grid.region
        return (r.ymin + r.ymax) / 2.0

    @property
    def sx(self) -> float:
        return self.grid.region.width / 2.0

    @property
    def sy(self) -> float:
        return self.grid.region.height / 2.0

    def block(self) -> CovariateBlock:
        cx, cy, sx, sy = self.cx, self.cy, self.sx, self.sy
        u = lambda X, Y: (X - cx) / sx  # noqa: E731
        v = lambda X, Y: (Y - cy) / sy  # noqa: E731
        g = self.grid
        return CovariateBlock(
            names=["qx", "qy", "qx2", "qy2", "qxy"],
            rasters=[
                raster_from_function(g, u),
                raster_from_function(g, v),
                raster_from_function(g, lambda X, Y: u(X, Y) ** 2),
                raster_from_function(g, lambda X, Y: v(X, Y) ** 2),
                raster_from_function(g, lambda X, Y: u(X, Y) * v(X, Y)),
            ],
        )

    def center_from(self, fit: FitResult) -> Point:
        """Maximizer of the fitted quadratic surface, in map units."""
        c = fit.coefficients
        try:
            b1, b2 = c["env:qx"], c["env:qy"]
            b3, b4, b5 = c["env:qx2"], c["env:qy2"], c["env:qxy"]
        except KeyError as exc:
            raise ValueError("fit lacks quadratic coefficients qx..qxy") from exc
        det = 4.0 * b3 * b4 - b5 * b5
        if not (b3 < 0 and det > 0):
            raise NonConcaveFitError(
                f"fitted quadratic has no interior maximum (qx2={b3}, det={det})"
            )
        u = (-b1 * 2.0 * b4 + b2 * b5) / det
        v = (-b2 * 2.0 * b3 + b1 * b5) / det
        return Point(self.cx + self.sx * u, self.cy + self.sy * v)


def ud_center_bias(fit: FitResult, design: QuadraticDesign, true_center_y: float) -> float:
    """Northward displacement of the fitted UD center from the truth."""
    return float(design.center_from(fit).y - true_center_y)
