"""Inhomogeneous Poisson point-process models with effort and detection.

The modeled intensity at cell i factorizes on the log scale as

    log eta_i = beta' x_i  +  log g(gamma1' w1_i)  +  gamma2' w2_i  +  off_i

where x are environment covariates (with optional intercept), w1 feeds a
logistic-link detection component g, w2 are log-linear effort covariates,
and ``off`` is a fixed log-effort offset (coefficient pinned to 1).
Covariates are piecewise constant per cell.

The point-pattern log likelihood uses a Riemann approximation of the
intensity integral with per-cell weights alpha (cell areas by default):

    ll = sum_points log eta(point) - sum_cells alpha_i * eta_i

Cells with zero weight or zero effort (offset -inf) drop out of the sum;
an observed point in such a cell contradicts the model and raises.
As eta is constant on a cell, points enter as per-cell counts N_i: their
ll is the count likelihood on the same cells less a constant. Two derived
data resolutions share the same eta:

    counts:   N_i ~ Poisson(alpha_i eta_i)
    presence: O_i ~ Bernoulli(1 - exp(-alpha_i eta_i))

``loglik(model, theta, data)`` is the one evaluation: the data's kind
picks the likelihood, and it returns the log likelihood, its gradient
and the observed information. ``fit_joint`` sums the same three over
components that share coefficients by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DataInconsistencyError,
    GridMismatchError,
    MissingDataError,
)
from .geometry import Grid, Raster, cells_of

_RCOND = 1e-12
_MAX_COUNT = 2.0**53  # past it a float no longer holds every integer


@dataclass
class CovariateBlock:
    """Named covariate rasters sharing one grid."""

    names: list[str]
    rasters: list[Raster]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.rasters):
            raise ValueError("names and rasters must align")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate covariate names in block: {self.names}")
        if not self.rasters:
            raise ValueError("empty covariate block; use None instead")
        g = self.rasters[0].grid
        for r in self.rasters[1:]:
            if r.grid != g:
                raise GridMismatchError("covariates in one block on different grids")

    @property
    def grid(self) -> Grid:
        return self.rasters[0].grid

    def matrix(self) -> np.ndarray:
        return np.column_stack([r.flat for r in self.rasters])


@dataclass
class IntensityModel:
    """Model structure: which components exist and their covariates."""

    grid: Grid
    env: CovariateBlock | None = None
    detection: CovariateBlock | None = None
    effort: CovariateBlock | None = None
    log_effort_offset: Raster | None = None
    intercept: bool = True

    def __post_init__(self) -> None:
        for blk in (self.env, self.detection, self.effort):
            if blk is not None and blk.grid != self.grid:
                raise GridMismatchError("covariate block grid differs from model grid")
        if self.env is not None and self.intercept and "intercept" in self.env.names:
            raise ValueError("covariate name 'intercept' is reserved")
        if self.log_effort_offset is not None and self.log_effort_offset.grid != self.grid:
            raise GridMismatchError("offset grid differs from model grid")

    def parameter_names(self) -> list[str]:
        """Qualified coefficient names, concatenation order of theta."""
        names = []
        if self.intercept:
            names.append("env:intercept")
        if self.env is not None:
            names += [f"env:{n}" for n in self.env.names]
        if self.detection is not None:
            names += [f"det:{n}" for n in self.detection.names]
        if self.effort is not None:
            names += [f"eff:{n}" for n in self.effort.names]
        return names

    @property
    def n_parameters(self) -> int:
        return len(self.parameter_names())


@dataclass
class LikelihoodData:
    """Observed data in one of three resolutions on a grid.

    kind "points": exact locations; "counts": per-cell totals;
    "presence": per-cell detected-or-not. ``weights`` are the Riemann
    integration weights alpha (default: cell area everywhere).
    """

    kind: str
    grid: Grid
    weights: np.ndarray
    points: np.ndarray | None = None
    counts: np.ndarray | None = None
    presence: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("points", "counts", "presence"):
            raise ValueError(f"unknown data kind {self.kind!r}")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape != (self.grid.ncells,):
            raise ValueError(f"weights must have {self.grid.ncells} entries")
        if np.any(~np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        self.weights = w

    @classmethod
    def from_points(cls, grid: Grid, points: np.ndarray, weights: np.ndarray | None = None):
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return cls(kind="points", grid=grid, weights=_default_weights(grid, weights), points=pts)

    @classmethod
    def from_counts(cls, grid: Grid, counts, weights: np.ndarray | None = None):
        c = _cell_values(grid, counts, "counts")
        if np.any(c < 0):
            raise ValueError("negative counts")
        if np.any(c != np.floor(c)):
            raise ValueError("counts must be integers")
        if np.any(c > _MAX_COUNT):
            raise ValueError(f"counts must be at most 2**53, got {c.max():g}")
        return cls(kind="counts", grid=grid, weights=_default_weights(grid, weights), counts=c)

    @classmethod
    def from_presence(cls, grid: Grid, presence, weights: np.ndarray | None = None):
        o = _cell_values(grid, presence, "presence")
        if not np.all((o == 0) | (o == 1)):
            raise ValueError("presence must be 0/1")
        return cls(kind="presence", grid=grid, weights=_default_weights(grid, weights), presence=o.astype(bool))


def _cell_values(grid: Grid, values, what: str) -> np.ndarray:
    """Per-cell values from a raster on ``grid`` or an array of ``grid.ncells`` entries."""
    if isinstance(values, Raster):
        if values.grid != grid:
            raise GridMismatchError(f"{what} raster on {values.grid} is not on the data grid {grid}")
        values = values.values
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.shape != (grid.ncells,):
        raise ValueError(f"{what} must have {grid.ncells} entries")
    return v


def _default_weights(grid: Grid, weights: np.ndarray | None) -> np.ndarray:
    if weights is None:
        return np.full(grid.ncells, grid.cell_area)
    return np.asarray(weights, dtype=float).reshape(-1)


@dataclass
class FitResult:
    """Maximum-likelihood estimate and curvature summary."""

    names: list[str]
    theta: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    covariance: np.ndarray | None = None
    singular_information: bool = False
    gradient_max_norm: float = float("nan")

    @property
    def coefficients(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.theta)}

    def stderr(self) -> dict[str, float]:
        if self.covariance is None:
            return {n: float("nan") for n in self.names}
        sd = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return {n: float(s) for n, s in zip(self.names, sd)}


def _env_block(model: IntensityModel) -> np.ndarray:
    """Environment design columns: the intercept, then the env covariates."""
    n = model.grid.ncells
    cols = [np.ones(n)] if model.intercept else []
    if model.env is not None:
        cols += [r.flat for r in model.env.rasters]
    return np.column_stack(cols) if cols else np.zeros((n, 0))


def _design_blocks(model: IntensityModel):
    """Full-grid design blocks ``(A, W1, W2, off)`` of log eta."""
    n = model.grid.ncells
    W1 = model.detection.matrix() if model.detection is not None else np.zeros((n, 0))
    W2 = model.effort.matrix() if model.effort is not None else np.zeros((n, 0))
    off = (
        model.log_effort_offset.flat.astype(float)
        if model.log_effort_offset is not None
        else np.zeros(n)
    )
    return _env_block(model), W1, W2, off


def _split(theta: np.ndarray, p_env: int, p_det: int):
    """theta as (beta, gamma1, gamma2): env, detection, effort coefficients."""
    return theta[:p_env], theta[p_env : p_env + p_det], theta[p_env + p_det :]


def _log_eta(blocks, theta: np.ndarray):
    """log eta on the rows of ``blocks`` plus the detection linear predictor."""
    A, W1, W2, off = blocks
    b, g1, g2 = _split(theta, A.shape[1], W1.shape[1])
    le = off.copy()
    if b.size:
        le += A @ b
    t = None
    if g1.size:
        t = W1 @ g1
        le += -np.logaddexp(0.0, -t)  # log logistic(t)
    if g2.size:
        le += W2 @ g2
    return le, t


def _assemble(blocks, t, c: np.ndarray, d: np.ndarray):
    """Gradient and observed information from per-row log-eta derivatives.

    ``c`` is d ll / d log eta and ``d`` is d c / d log eta on each row of
    ``blocks``. With U = d log eta / d theta, the gradient is c'U and the
    information -U' diag(d) U; the logistic detection block adds
    sum c g (1 - g) W1'W1, its own curvature of log eta.
    """
    A, W1, W2, _ = blocks
    p_env, p_det = A.shape[1], W1.shape[1]
    parts = [A]
    if p_det:
        q = np.exp(-np.logaddexp(0.0, t))  # 1 - g(t)
        parts.append(q[:, None] * W1)
    parts.append(W2)
    U = np.column_stack(parts)
    grad = c @ U
    info = -(U.T * d) @ U
    if p_det:
        det = slice(p_env, p_env + p_det)
        info[det, det] += (W1.T * (c * q * (1.0 - q))) @ W1
    return grad, info


class _Design:
    """Design rows of one model on the active cells of one dataset; points binned to counts."""

    def __init__(self, model: IntensityModel, data: LikelihoodData):
        if model.grid != data.grid:
            raise GridMismatchError("model and data grids differ")
        self.kind = data.kind
        blocks = _design_blocks(model)
        A, W1, W2, off = blocks
        if np.any(off == np.inf):
            raise ValueError("log-effort offset contains +inf")

        cov_ok = (
            np.isfinite(A).all(axis=1)
            & np.isfinite(W1).all(axis=1)
            & np.isfinite(W2).all(axis=1)
            & ~np.isnan(off)
        )
        # excluded: zero weight, zero effort (offset -inf), or missing covariates
        active = (data.weights > 0) & cov_ok & (off > -np.inf)
        self.cells = tuple(blk[active] for blk in blocks)
        self.w_act = data.weights[active]

        if data.kind == "presence":
            bad = data.presence & ~active
            if np.any(bad):
                raise DataInconsistencyError(
                    f"{int(bad.sum())} cells are occupied but have zero effort/weight"
                )
            self.O_act = data.presence[active]
            self.has_events = bool(self.O_act.any())
            return
        if data.kind == "points":
            pts = data.points
            idx = cells_of(model.grid, pts[:, 0], pts[:, 1])
            bad_cov = ~cov_ok[idx]
            if np.any(bad_cov):
                i = int(np.argmax(bad_cov))
                raise MissingDataError(
                    f"point {tuple(pts[i].tolist())} falls in a cell with missing covariates"
                )
            inactive = ~active[idx]
            if np.any(inactive):
                i = int(np.argmax(inactive))
                raise DataInconsistencyError(
                    f"observed point {tuple(pts[i].tolist())} lies in a cell with zero "
                    "effort or zero integration weight"
                )
            N = np.bincount(idx, minlength=model.grid.ncells)[active]
            self.const = 0.0
        else:
            bad = (data.counts > 0) & ~active
            if np.any(bad):
                raise DataInconsistencyError(
                    f"{int(bad.sum())} cells have positive counts but zero effort/weight"
                )
            N = data.counts[active]
            # sum N log alpha - sum log N!, which points' likelihood lacks
            vals, n_each = np.unique(N, return_counts=True)
            log_n_factorial = sum(int(k) * math.lgamma(v + 1.0) for v, k in zip(vals, n_each))
            self.const = float(N @ np.log(self.w_act)) - log_n_factorial
        # only the active cells holding points or counts, so memory follows the data
        self.nz = np.flatnonzero(N)
        self.N_nz = N[self.nz].astype(float)
        self.has_events = bool(self.nz.size)

    def loglik_grad(self, theta: np.ndarray):
        """Log likelihood, gradient and observed information at theta.

        Counts (binned points too) and presence supply only c = d ll / d log eta
        and d = d c / d log eta per row; ``_assemble`` makes the rest.
        """
        le, t = _log_eta(self.cells, theta)
        with np.errstate(over="ignore"):
            mu = self.w_act * np.exp(le)
        if not np.all(np.isfinite(mu)):
            p = len(theta)
            return -np.inf, np.full(p, np.nan), np.full((p, p), np.nan)

        if self.kind != "presence":
            ll = float(self.N_nz @ le[self.nz] - mu.sum()) + self.const
            c, d = -mu, -mu  # two arrays: c becomes N - mu
            c[self.nz] += self.N_nz
        else:
            O = self.O_act
            with np.errstate(over="ignore"):
                r = np.where(O, mu / np.expm1(np.where(O, mu, 1.0)), 0.0)
            occ = np.log(-np.expm1(-mu[O])) if np.any(O) else np.zeros(0)
            ll = float(occ.sum() - mu[~O].sum())
            c = np.where(O, r, -mu)
            d = np.where(O, r * (1.0 - mu - r), -mu)
        grad, info = _assemble(self.cells, t, c, d)
        return ll, grad, info


def eta(model: IntensityModel, theta: np.ndarray) -> Raster:
    """Cellwise modeled intensity exp(log eta) as a raster.

    Zero-effort cells evaluate to 0; cells with missing covariates to NaN.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n_parameters,):
        raise ValueError(f"theta must have {model.n_parameters} entries, got {theta.shape}")
    le, _ = _log_eta(_design_blocks(model), theta)
    with np.errstate(over="ignore"):
        vals = np.exp(le)
    grid = model.grid
    return Raster(grid, vals.reshape(grid.ny, grid.nx))


def loglik(model: IntensityModel, theta: np.ndarray, data: LikelihoodData):
    """Log likelihood, gradient and observed information of the data at theta.

    The data's kind (points, counts or presence) picks the likelihood.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n_parameters,):
        raise ValueError(f"theta must have {model.n_parameters} entries, got {theta.shape}")
    return _Design(model, data).loglik_grad(theta)


def renamed_names(model: IntensityModel, rename: dict[str, str] | None = None) -> list[str]:
    """The model's coefficient names, each replaced by its alias in ``rename``."""
    rename = rename or {}
    return [rename.get(n, n) for n in model.parameter_names()]


@dataclass
class JointComponent:
    """One (model, data) pair of a joint fit.

    Coefficients are shared across components by qualified name: two
    components using the same name in the same block namespace estimate
    one common coefficient. Rename (e.g. intercepts) to keep them apart.
    """

    model: IntensityModel
    data: LikelihoodData
    rename: dict[str, str] = field(default_factory=dict)


def _joint_designs(components: Sequence[JointComponent]):
    """Shared coefficient names, each component's index map into them, and its design."""
    if not components:
        raise ValueError("no components")
    names: list[str] = []
    maps = []
    for comp in components:
        local = renamed_names(comp.model, comp.rename)
        if len(set(local)) != len(local):
            raise ValueError(f"duplicate parameter names within a component: {local}")
        idx = []
        for nm in local:
            if nm not in names:
                names.append(nm)
            idx.append(names.index(nm))
        maps.append(np.asarray(idx, dtype=int))
    return names, maps, [_Design(c.model, c.data) for c in components]


def _joint_evaluate(designs: Sequence[_Design], maps, theta: np.ndarray):
    """Summed (ll, grad, info) of the components over the shared theta.

    A component whose likelihood is not finite makes the sum ``-inf``,
    with no gradient or information.
    """
    p = len(theta)
    ll, grad, info = 0.0, np.zeros(p), np.zeros((p, p))
    for d, m in zip(designs, maps):
        li, gi, ii = d.loglik_grad(theta[m])
        if not np.isfinite(li):
            return -np.inf, None, None
        ll += li
        grad[m] += gi
        info[np.ix_(m, m)] += ii
    return ll, grad, info


def _covariance_from_info(info: np.ndarray) -> tuple[np.ndarray, bool]:
    """Invert the observed information; flag rank deficiency.

    Eigenvalues at or below rcond * max are treated as zero, so the
    returned matrix is always symmetric positive semidefinite.
    """
    if info.size == 0:
        return np.zeros((0, 0)), False
    w, V = np.linalg.eigh(info)
    wmax = float(np.max(w)) if len(w) else 0.0
    cut = max(wmax, 0.0) * _RCOND
    good = w > cut
    singular = not bool(np.all(good)) or wmax <= 0.0
    inv_w = np.where(good, 1.0 / np.where(good, w, 1.0), 0.0)
    cov = (V * inv_w) @ V.T
    return 0.5 * (cov + cov.T), singular


def fit_joint(
    components: Sequence[JointComponent],
    gtol: float = 1e-8,
    maxiter: int = 500,
    start: np.ndarray | None = None,
) -> FitResult:
    """Damped Newton maximum likelihood over shared coefficients.

    Starts from zero (unless ``start`` is given). Each step solves
    ``(info + lam * diag|info|) s = grad`` by Cholesky, with the analytic
    observed information ``info``; ``lam`` grows tenfold when that matrix
    is not positive definite or the step lowers the log likelihood beyond
    rounding, and shrinks tenfold after an accepted step. Stops when the
    gradient max-norm falls below ``gtol`` or after ``maxiter`` steps. The
    coefficient covariance is the inverse observed information at the
    estimate. A start where the likelihood is not finite is returned
    unfitted, with a NaN gradient norm and no covariance. Data with no
    point, count or presence in any component, or with presence on every
    active cell of every component, have no maximum likelihood estimate
    and raise DataInconsistencyError.
    """
    names, maps, designs = _joint_designs(components)
    if not any(d.has_events for d in designs):
        raise DataInconsistencyError("the data hold no events, so the fit has no maximum")
    if all(d.kind == "presence" and d.O_act.all() for d in designs):
        raise DataInconsistencyError("the presence data hold no absences, so the fit has no maximum")
    p = len(names)
    theta = np.zeros(p) if start is None else np.asarray(start, dtype=float).copy()
    if theta.shape != (p,):
        raise ValueError(f"start must have {p} entries")
    ll, grad, info = _joint_evaluate(designs, maps, theta)
    if not np.isfinite(ll):
        return FitResult(names=names, theta=theta, loglik=ll, converged=False, iterations=0)
    gmax = float(np.max(np.abs(grad))) if p else 0.0
    lam = 1e-3
    steps = 0
    while gmax >= gtol and steps < maxiter:
        steps += 1
        scale = np.abs(np.diag(info))
        scale[scale == 0.0] = 1.0  # a coefficient the data leave flat still gets damped
        try:
            L = np.linalg.cholesky(info + lam * np.diag(scale))
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        step = np.linalg.solve(L.T, np.linalg.solve(L, grad))
        ll_new, grad_new, info_new = _joint_evaluate(designs, maps, theta + step)
        # a loss within 1e-12 of |ll| is rounding in the sums, not a worse fit
        if not ll_new >= ll - 1e-12 * (1.0 + abs(ll)):
            lam *= 10.0
            continue
        theta, ll, grad, info = theta + step, ll_new, grad_new, info_new
        gmax = float(np.max(np.abs(grad)))
        lam /= 10.0

    cov, singular = _covariance_from_info(info)
    return FitResult(
        names=names,
        theta=theta,
        loglik=float(ll),
        converged=gmax < gtol,
        iterations=steps,
        covariance=cov,
        singular_information=singular,
        gradient_max_norm=gmax,
    )


def fit_mle(
    model: IntensityModel,
    data: LikelihoodData,
    gtol: float = 1e-8,
    maxiter: int = 500,
    start: np.ndarray | None = None,
) -> FitResult:
    """Single-component maximum likelihood; see fit_joint."""
    return fit_joint([JointComponent(model, data)], gtol=gtol, maxiter=maxiter, start=start)


def _env_log_intensity(
    model: IntensityModel,
    thetas: np.ndarray,
    fix_detection: float | Sequence[float] = 0.0,
    fix_effort: float | Sequence[float] = 0.0,
    env: np.ndarray | None = None,
) -> np.ndarray:
    """Environment-driven log intensity, one row of cells per row of ``thetas``.

    ``env`` is the model's environment block (``_env_block``) when the
    caller holds it already. The rows are one product of their env
    coefficients with the block, less the pinned detection term, plus the
    pinned effort term; their last bits depend on the row count and BLAS.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != model.n_parameters:
        raise ValueError(f"theta must have {model.n_parameters} entries")
    A = _env_block(model) if env is None else env
    p_det = len(model.detection.names) if model.detection is not None else 0
    # coefficient rows, one column per row of thetas
    b, g1, g2 = _split(thetas.T, A.shape[1], p_det)
    L = b.T @ A.T
    if len(g1):
        c1 = np.broadcast_to(np.asarray(fix_detection, dtype=float), (len(g1),))
        L -= np.logaddexp(0.0, -(c1 @ g1))[:, None]
    if len(g2):
        c2 = np.broadcast_to(np.asarray(fix_effort, dtype=float), (len(g2),))
        L += (c2 @ g2)[:, None]
    return L


def predict_intensity(
    model: IntensityModel,
    theta: np.ndarray,
    fix_detection: float | Sequence[float] = 0.0,
    fix_effort: float | Sequence[float] = 0.0,
) -> Raster:
    """Environment-driven intensity with nuisance components pinned.

    Detection and effort covariates are held at the given constants
    (scalar broadcast or one value per covariate) and the effort offset
    is dropped, so spatial variation comes from the environment block
    alone. This is the estimate of the animal's own intensity surface.
    Cells that overflow are inf, as in ``eta``.
    """
    theta = np.asarray(theta, dtype=float)[None]
    grid = model.grid
    with np.errstate(over="ignore"):
        le = _env_log_intensity(model, theta, fix_detection, fix_effort)[0]
        return Raster(grid, np.exp(le).reshape(grid.ny, grid.nx))
