"""Search-effort fields on a grid.

Effort is accumulated from observer tracks. For every recorded track
position, each grid cell whose center lies within the detection range
receives a contribution for that time step:

    indicator mode:  1
    detection mode:  the detection probability at the center's distance
                     (linear decay from 1 at distance 0 to 0 at the range)

summed over steps and observers, then multiplied by the step duration.

When several observers cover the same cell simultaneously, summing
their contributions counts the overlap twice. The overlap-corrected
field instead accumulates, per time step,

    1 - prod_over_observers(1 - p_obs)

which is the probability that at least one observer would have detected
an animal at that cell center during the step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .encounters import detection_kernel
from .errors import GridMismatchError, OutOfDomainError
from .geometry import Grid, Raster, cells_of, cells_xy
from .movement import Trajectory, common_dt

_POSITION_CHUNK = 65536
# each effort mode weighs a cell center by a detection kernel of its distance
_EFFORT_KERNELS = {"indicator": "uniform", "detection": "linear-decay"}


@dataclass
class EffortField(Raster):
    """Per-cell accumulated effort with a units tag."""

    units: str = "step-time"

    def copy(self) -> "EffortField":
        return EffortField(self.grid, self.values.copy(), self.units)


def _stencil(
    grid: Grid,
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float,
    mode: str,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(flat cell index, weight)`` chunks of the positions' fields of view.

    Every weight is positive. A cell appears once per position covering
    it, so callers reduce the chunks with ``np.bincount``.
    """
    if mode not in _EFFORT_KERNELS:
        raise ValueError(f"unknown effort mode {mode!r}")
    kernel = _EFFORT_KERNELS[mode]
    ix, iy = cells_xy(grid, xs, ys)
    # offset of the position from its cell center, in cell units
    fx = (xs - grid.region.xmin) / grid.dx - ix - 0.5
    fy = (ys - grid.region.ymin) / grid.dy - iy - 0.5
    nx, ny = grid.nx, grid.ny
    iw = int(np.floor(radius / grid.dx + 0.5))
    jw = int(np.floor(radius / grid.dy + 0.5))
    di = np.arange(-iw, iw + 1)
    r2 = radius * radius
    step = max(1, _POSITION_CHUNK // len(di))
    for dj in range(-jw, jw + 1):
        offy = (dj - fy) * grid.dy
        d2y = offy * offy
        row = iy + dj
        keep = (d2y <= r2) & (row >= 0) & (row < ny)
        if not np.any(keep):
            continue
        kix = ix[keep]
        kfx = fx[keep]
        krow = row[keep]
        kd2y = d2y[keep]
        for s in range(0, len(kix), step):
            e = s + step
            offx = (di[None, :] - kfx[s:e, None]) * grid.dx
            d2 = kd2y[s:e, None] + offx * offx
            w = detection_kernel(np.sqrt(d2), radius, kernel)
            tx = kix[s:e, None] + di[None, :]
            valid = (tx >= 0) & (tx < nx) & (w > 0)
            yield (krow[s:e, None] * nx + tx)[valid], w[valid]


def path_integral_effort(
    tracks: Sequence[Trajectory] | Trajectory,
    grid: Grid,
    detection_range: float,
    mode: str = "indicator",
) -> EffortField:
    """Accumulate per-cell effort over all positions of all tracks.

    ``mode`` is "indicator" (unit weight for cell centers within the
    range) or "detection" (linear-decay probability weight).
    """
    if isinstance(tracks, Trajectory):
        tracks = [tracks]
    if detection_range <= 0:
        raise ValueError(f"detection_range must be positive, got {detection_range}")
    if not tracks:
        return EffortField(grid, np.zeros((grid.ny, grid.nx)))
    dt = common_dt((t.dt for t in tracks), "tracks")
    acc = np.zeros(grid.ncells)
    xs = np.concatenate([t.positions[:, 0] for t in tracks])
    ys = np.concatenate([t.positions[:, 1] for t in tracks])
    for flat, w in _stencil(grid, xs, ys, detection_range, mode):
        acc += np.bincount(flat, weights=w, minlength=acc.size)
    return EffortField(grid, (acc * dt).reshape(grid.ny, grid.nx))


def overlap_corrected_effort(
    tracks: Sequence[Trajectory],
    grid: Grid,
    detection_range: float,
    mode: str = "detection",
) -> EffortField:
    """Joint coverage effort for tracks recorded simultaneously.

    The given tracks must be step-aligned (observers of one trip). Per
    step, a cell receives 1 - prod(1 - p) over the observers covering
    it, so simultaneous overlapping coverage is not double counted.
    """
    if detection_range <= 0:
        raise ValueError(f"detection_range must be positive, got {detection_range}")
    if not tracks:
        return EffortField(grid, np.zeros((grid.ny, grid.nx)))
    dt = common_dt((t.dt for t in tracks), "tracks")
    n_steps = max(len(t) for t in tracks)
    acc = np.zeros(grid.ncells)
    for s in range(n_steps):
        xs = np.array([t.positions[s, 0] for t in tracks if len(t) > s])
        ys = np.array([t.positions[s, 1] for t in tracks if len(t) > s])
        # log(1 - p) per cell, summed over the observers covering it
        step_acc = np.zeros(grid.ncells)
        for flat, w in _stencil(grid, xs, ys, detection_range, mode):
            with np.errstate(divide="ignore"):
                logmiss = np.log1p(-w)
            step_acc += np.bincount(flat, weights=logmiss, minlength=step_acc.size)
        touched = np.nonzero(step_acc)[0]
        acc[touched] += -np.expm1(step_acc[touched])
    return EffortField(grid, (acc * dt).reshape(grid.ny, grid.nx), units="step-time")


def trip_grouped_effort(
    tracks_by_trip: dict[int, list[Trajectory]] | Iterable[list[Trajectory]],
    grid: Grid,
    detection_range: float,
    mode: str = "detection",
    overlap: bool = False,
) -> EffortField:
    """Total effort over many trips; overlap correction applies per trip."""
    groups = tracks_by_trip.values() if isinstance(tracks_by_trip, dict) else tracks_by_trip
    total = np.zeros((grid.ny, grid.nx))
    for tracks in groups:
        if overlap:
            f = overlap_corrected_effort(tracks, grid, detection_range, mode)
        else:
            f = path_integral_effort(tracks, grid, detection_range, mode)
        total += f.values
    return EffortField(grid, total, units="step-time")


def floored_log_offset(effort: Raster, floor: float) -> Raster:
    """Log-effort offset: effort floored at ``floor``, then logged.

    With a floor of 0, cells without effort become -inf and drop out of
    the fitted intensity integral.
    """
    with np.errstate(divide="ignore"):
        return Raster(effort.grid, np.log(np.maximum(effort.values, floor)))


def bin_track_effort(track: Trajectory, grid: Grid, units: str = "boat-hours") -> EffortField:
    """Presence-count effort: (positions falling in cell) * dt."""
    idx = cells_of(grid, track.positions[:, 0], track.positions[:, 1])
    counts = np.bincount(idx, minlength=grid.ncells).astype(float)
    return EffortField(grid, (counts * track.dt).reshape(grid.ny, grid.nx), units=units)


def regularize_track(
    times: np.ndarray,
    positions: np.ndarray,
    interval: float,
    dt_hours: float | None = None,
    entity: str = "",
) -> Trajectory:
    """Resample an irregular track to fixed intervals by linear interpolation.

    ``times`` are numeric (e.g. seconds), strictly increasing; fixes are
    taken at times[0] + k * interval for k = 0 .. floor(span / interval).
    The output dt is ``dt_hours`` when given (effort in boat-hours),
    otherwise the raw interval.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if times.ndim != 1 or len(times) != len(positions):
        raise ValueError("times and positions must have matching length")
    if len(times) < 2:
        raise ValueError("need at least two fixes to interpolate")
    if np.any(np.diff(times) <= 0):
        raise ValueError("timestamps must be strictly increasing")
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    span = times[-1] - times[0]
    n = int(np.floor(span / interval + 1e-9)) + 1
    grid_t = times[0] + interval * np.arange(n)
    xs = np.interp(grid_t, times, positions[:, 0])
    ys = np.interp(grid_t, times, positions[:, 1])
    return Trajectory(
        positions=np.column_stack((xs, ys)),
        dt=float(dt_hours) if dt_hours is not None else float(interval),
        entity=entity,
    )


@dataclass(frozen=True)
class DailyEffortCDF:
    """Piecewise-linear cumulative fraction of a day's effort by hour."""

    tau_hours: tuple[float, ...]
    fraction: tuple[float, ...]

    def __post_init__(self) -> None:
        t = np.asarray(self.tau_hours, dtype=float)
        f = np.asarray(self.fraction, dtype=float)
        if len(t) < 2 or len(t) != len(f):
            raise ValueError("need matching tau/fraction knots, at least two")
        if np.any(np.diff(t) <= 0):
            raise ValueError("tau knots must be strictly increasing")
        if t[0] != 0.0 or f[0] != 0.0:
            raise ValueError("first knot must be (0, 0)")
        if np.any(np.diff(f) < 0) or np.any(f < 0) or np.any(f > 1):
            raise ValueError("fractions must be nondecreasing within [0, 1]")
        if f[-1] != 1.0:
            raise ValueError("last fraction must be 1")

    @property
    def day_length(self) -> float:
        return float(self.tau_hours[-1])


def daily_fraction(cdf: DailyEffortCDF, tau):
    """Fraction of a day's effort expended by hour ``tau``."""
    t = np.asarray(tau, dtype=float)
    if np.any(t < 0) or np.any(t > cdf.day_length):
        raise OutOfDomainError(f"tau outside [0, {cdf.day_length}]")
    out = np.interp(t, cdf.tau_hours, cdf.fraction)
    if np.isscalar(tau):
        return float(out)
    return out


def read_daily_cdf_json(path: str | Path) -> DailyEffortCDF:
    with open(path) as fh:
        knots = json.load(fh)
    try:
        taus = tuple(float(k["tau_hours"]) for k in knots)
        fracs = tuple(float(k["fraction"]) for k in knots)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{path}: expected a list of tau_hours/fraction knots") from exc
    return DailyEffortCDF(taus, fracs)


def write_daily_cdf_json(cdf: DailyEffortCDF, path: str | Path) -> None:
    knots = [
        {"tau_hours": t, "fraction": f} for t, f in zip(cdf.tau_hours, cdf.fraction)
    ]
    with open(path, "w") as fh:
        json.dump(knots, fh, indent=2)
        fh.write("\n")


def scale_effort(field: EffortField, factor: float) -> EffortField:
    """Scale a field, e.g. by the summed daily fractions at sighting times."""
    if factor < 0:
        raise ValueError(f"scale factor must be nonnegative, got {factor}")
    return EffortField(field.grid, field.values * factor, units=field.units)


def combine_effort(fields: Sequence[EffortField]) -> EffortField:
    """Cellwise sum of fields sharing one grid and one units tag."""
    if not fields:
        raise ValueError("no fields to combine")
    grid = fields[0].grid
    units = fields[0].units
    total = np.zeros_like(fields[0].values)
    for f in fields:
        if f.grid != grid:
            raise GridMismatchError("effort fields on different grids")
        if f.units != units:
            raise ValueError(f"mixed effort units: {units!r} vs {f.units!r}")
        total += f.values
    return EffortField(grid, total, units=units)


@dataclass
class EffortEnsemble:
    """Monte Carlo draws of an effort field plus summaries."""

    members: list[EffortField]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        g = self.members[0].grid
        u = self.members[0].units
        for m in self.members[1:]:
            if m.grid != g:
                raise GridMismatchError("ensemble members on different grids")
            if m.units != u:
                raise ValueError("ensemble members with mixed units")

    @property
    def n_members(self) -> int:
        return len(self.members)

    def mean_field(self) -> EffortField:
        stack = np.stack([m.values for m in self.members])
        return EffortField(self.members[0].grid, stack.mean(axis=0), self.members[0].units)

    def sd_field(self) -> EffortField:
        # population sd so a single-member ensemble is all zeros
        stack = np.stack([m.values for m in self.members])
        return EffortField(self.members[0].grid, stack.std(axis=0, ddof=0), self.members[0].units)


def mc_effort_ensemble(
    sampler: Callable[[np.random.Generator], EffortField],
    n_draws: int,
    rng: np.random.Generator,
) -> EffortEnsemble:
    """Draw ``n_draws`` effort fields from ``sampler``.

    The sampler is called sequentially with the same generator, so a
    fixed seed gives a reproducible ensemble; a sampler that ignores the
    generator yields identical members.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be positive, got {n_draws}")
    return EffortEnsemble([sampler(rng) for _ in range(n_draws)])
