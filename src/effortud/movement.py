"""Movement simulation on a bounded region.

Positions follow discretized Langevin dynamics: the drift is
``(sigma^2 / 2) * grad log pi`` where ``pi`` is the potential density and
``sigma^2`` the Brownian motion variance, so in the small-step limit the
stationary density of the process equals ``pi`` restricted to the region.
Each update is an Euler-Maruyama step of unit time

    p' = p + drift(p) + sigma * Z,   Z ~ N(0, I_2)

followed by coordinate-wise reflection back into the rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DegenerateSpecError, check_positive
from .geometry import Grid, Point, Raster, StudyRegion

_REJECTION_CAP = 10**6
_MAX_CHUNK = 1 << 16  # proposals in one rejection round


@dataclass(frozen=True)
class BivariateNormalPotential:
    """Symmetric bivariate normal potential density."""

    center: tuple[float, float]
    variance: float

    def __post_init__(self) -> None:
        check_positive(self.variance, "variance")
        object.__setattr__(self, "center", tuple(self.center))  # hashable: specs key dicts

    def log_density(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        cx, cy = self.center
        return -((np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2) / (2.0 * self.variance) - np.log(
            2.0 * np.pi * self.variance
        )

    def grad_log_density(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cx, cy = self.center
        return (cx - np.asarray(x)) / self.variance, (cy - np.asarray(y)) / self.variance


@dataclass(frozen=True)
class HalfNormalYPotential:
    """Normal in y, flat in x; intersected with the region this yields a
    half-normal profile when the y-center sits on the boundary."""

    center_y: float
    variance: float

    def __post_init__(self) -> None:
        check_positive(self.variance, "variance")

    def log_density(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = -((np.asarray(y) - self.center_y) ** 2) / (2.0 * self.variance)
        return out + np.zeros_like(np.asarray(x, dtype=float))

    def grad_log_density(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gy = (self.center_y - np.asarray(y)) / self.variance
        return np.zeros_like(gy), gy


@dataclass(frozen=True)
class CustomPotential:
    """User-supplied log density and its gradient (both vectorized over coordinate arrays)."""

    log_density_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

    def log_density(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.log_density_fn(x, y), dtype=float)

    def grad_log_density(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gx, gy = self.grad_fn(x, y)
        return np.asarray(gx, dtype=float), np.asarray(gy, dtype=float)


Potential = BivariateNormalPotential | HalfNormalYPotential | CustomPotential


@dataclass(frozen=True)
class MovementSpec:
    """One entity's dynamics: potential plus Brownian motion variance."""

    potential: Potential
    bm_variance: float

    def __post_init__(self) -> None:
        check_positive(self.bm_variance, "bm_variance")


@dataclass
class Trajectory:
    """A sequence of positions at fixed time spacing."""

    positions: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        p = np.asarray(self.positions, dtype=float)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"positions must be (n, 2), got {p.shape}")
        check_positive(self.dt, "dt")
        self.positions = p

    def __len__(self) -> int:
        return len(self.positions)


def common_dt(dts: Iterable[float], what: str) -> float:
    """The one time step shared by ``what``; ValueError if they differ."""
    distinct = set(dts)
    if len(distinct) != 1:
        raise ValueError(f"{what} must share dt, got {sorted(distinct)}")
    return distinct.pop()


def drift(spec: MovementSpec, p: np.ndarray | tuple[float, float]) -> np.ndarray:
    """Langevin drift (bm_variance / 2) * grad log pi at a point or each row of an (n, 2) array."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    out[..., 0], out[..., 1] = spec.potential.grad_log_density(p[..., 0], p[..., 1])
    out *= 0.5 * spec.bm_variance
    return out


def reflect_into(coords: np.ndarray, lo: float | tuple, hi: float | tuple) -> np.ndarray:
    """Fold coordinates into [lo, hi] by repeated boundary reflection.

    ``lo`` and ``hi`` broadcast against ``coords``: per-axis bounds fold
    each column of an (n, 2) array into its own interval.
    """
    w = np.subtract(hi, lo)
    t = np.mod(coords - lo, 2.0 * w)
    return lo + np.where(t > w, 2.0 * w - t, t)


def step_positions(
    spec: MovementSpec,
    positions: np.ndarray,
    region: StudyRegion,
    noise: np.ndarray,
) -> np.ndarray:
    """Advance an (n, 2) array of positions one unit-time Euler-Maruyama step.

    ``noise`` must be (n, 2) standard normal draws; scaling by
    sqrt(bm_variance) happens here.
    """
    moved = positions + drift(spec, positions) + np.sqrt(spec.bm_variance) * noise
    return reflect_into(moved, (region.xmin, region.ymin), (region.xmax, region.ymax))


def simulate_trajectory(
    spec: MovementSpec,
    start: Point | tuple[float, float],
    n_steps: int,
    region: StudyRegion,
    rng: np.random.Generator,
) -> Trajectory:
    """Simulate ``n_steps`` updates from ``start`` (n_steps + 1 positions).

    Noise for the whole trajectory is drawn up front in one generator
    call, so a given (seed, n_steps) pair is reproducible.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if not region.contains(start[0], start[1]):
        raise ValueError(f"start {tuple(start)} outside region")
    noise = rng.standard_normal((n_steps, 1, 2))
    out = np.empty((n_steps + 1, 2))
    out[0] = (start[0], start[1])
    pos = out[0:1]
    for i in range(n_steps):
        pos = step_positions(spec, pos, region, noise[i])
        out[i + 1] = pos[0]
    return Trajectory(positions=out, dt=1.0)


def _rejection_sample(propose: Callable[[int], np.ndarray], region: StudyRegion, n: int) -> np.ndarray:
    """The first ``n`` proposed (m, 2) rows inside ``region``, as an (n, 2) array.

    Each round proposes what is still needed divided by the call's
    acceptance rate so far (add-one smoothed), at most ``_MAX_CHUNK`` and
    never past ``_REJECTION_CAP`` proposals in all. The accepted rows, taken in
    proposal order, are independent draws from the truncated density
    whatever the round sizes.
    """
    out = np.empty((n, 2))
    got = attempts = 0
    while got < n:
        if attempts >= _REJECTION_CAP:
            raise DegenerateSpecError(f"rejection sampling failed after {_REJECTION_CAP} attempts")
        need = n - got
        m = min(-(-need * (attempts + 1) // (got + 1)), _MAX_CHUNK, _REJECTION_CAP - attempts)
        cand = propose(m)
        ok = cand[region.contains(cand[:, 0], cand[:, 1])][:need]
        out[got : got + len(ok)] = ok
        got += len(ok)
        attempts += m
    return out


def sample_initial(
    potential: Potential,
    region: StudyRegion,
    rng: np.random.Generator,
    n: int = 1,
) -> np.ndarray:
    """Draw ``n`` points from the potential density truncated to the region.

    Returns an (n, 2) array. Each built-in potential is sampled exactly,
    by rejection from its own proposal; one call proposes at most
    ``_REJECTION_CAP`` points and raises DegenerateSpecError when that is not enough. A
    custom potential has no proposal and is rejected with ValueError, as
    in ``analytic_ud``.
    """
    if isinstance(potential, BivariateNormalPotential):
        sd = np.sqrt(potential.variance)
        cx, cy = potential.center

        def propose(m: int) -> np.ndarray:
            return rng.normal((cx, cy), sd, size=(m, 2))

        return _rejection_sample(propose, region, n)

    if isinstance(potential, HalfNormalYPotential):
        sd = np.sqrt(potential.variance)

        def propose(m: int) -> np.ndarray:
            xs = rng.uniform(region.xmin, region.xmax, size=m)
            ys = rng.normal(potential.center_y, sd, size=m)
            return np.array((xs, ys)).T  # (m, 2) with contiguous columns for the region test

        # x is drawn inside the region, so only y can fall outside
        return _rejection_sample(propose, region, n)

    raise ValueError("sample_initial requires a built-in potential kind")


def analytic_ud(potential: Potential, grid: Grid) -> Raster:
    """Stationary density of the reflected process on ``grid``.

    The potential density is evaluated at cell centers and normalized so
    that sum(value * cell_area) = 1. Custom potentials carry no
    normalization guarantee and are rejected.
    """
    if isinstance(potential, CustomPotential):
        raise ValueError("analytic_ud requires a built-in potential kind")
    X, Y = grid.center_arrays()
    logd = potential.log_density(X, Y)
    d = np.exp(logd - np.max(logd))
    total = d.sum() * grid.cell_area
    return Raster(grid, d / total)
