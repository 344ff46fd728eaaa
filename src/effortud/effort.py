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
an animal at that cell center during the step. Its output bytes depend
on one accumulation order: per step, log(1 - p) is summed over the
observers one stencil row at a time, rows in order; then the steps'
1 - prod terms are added to the field in step order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .encounters import detection_kernel
from .errors import GridMismatchError
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


def _half_widths(grid: Grid, radius: float) -> tuple[int, int]:
    """Stencil half-widths in columns and rows for a detection radius."""
    return int(np.floor(radius / grid.dx + 0.5)), int(np.floor(radius / grid.dy + 0.5))


def _stencil(
    grid: Grid,
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float,
    mode: str,
    base: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(key, weight)`` chunks of the positions' fields of view.

    A key is the flat cell index plus the position's ``base`` (0 when not
    given). Chunks come one stencil row after another, rows in order, and
    a row's chunks hold at most ``_POSITION_CHUNK`` entries. Every weight
    is positive. A cell appears once per position covering it, so
    callers reduce the chunks with ``np.bincount``.
    """
    if mode not in _EFFORT_KERNELS:
        raise ValueError(f"unknown effort mode {mode!r}")
    kernel = _EFFORT_KERNELS[mode]
    ix, iy = cells_xy(grid, xs, ys)
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    # offset of the position from its cell center, in cell units
    fx = (xs - grid.region.xmin) / dx - ix - 0.5
    fy = (ys - grid.region.ymin) / dy - iy - 0.5
    origin = iy * nx + ix if base is None else base + iy * nx + ix
    iw, jw = _half_widths(grid, radius)
    di = np.arange(-iw, iw + 1)
    r2 = radius * radius
    step = max(1, _POSITION_CHUNK // len(di))
    # the rows' reach tests run a group of rows at a time, one chunk in size
    djs = np.arange(-jw, jw + 1)
    group = max(1, _POSITION_CHUNK // max(len(xs), 1))
    for g in range(0, len(djs), group):
        offy = (djs[g : g + group, None] - fy) * dy
        d2ys = offy * offy
        rows = iy + djs[g : g + group, None]
        # a negative index reads as a huge unsigned one
        keeps = (d2ys <= r2) & (rows.view(np.uint64) < ny)
        for dj, keep, d2y in zip(djs[g : g + group].tolist(), keeps, d2ys):
            if not keep.any():
                continue
            kix = ix[keep]
            kfx = fx[keep]
            korigin = origin[keep]
            kd2y = d2y[keep]
            # columns a cell or more past the row's widest chord have weight 0
            h = min(iw, int(np.sqrt(max(r2 - kd2y.min(), 0.0)) / dx + 1.5))
            dr = di[iw - h : iw + h + 1]
            shift = dj * nx + dr
            for s in range(0, len(kix), step):
                e = s + step
                offx = (dr[None, :] - kfx[s:e, None]) * dx
                d2 = kd2y[s:e, None] + offx * offx
                w = detection_kernel(np.sqrt(d2), radius, kernel)
                tx = kix[s:e, None] + dr[None, :]
                valid = np.flatnonzero((tx.view(np.uint64) < nx) & (w > 0))
                keys = (korigin[s:e, None] + shift[None, :]).ravel()
                yield keys.take(valid), w.ravel().take(valid)


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

    The steps run in blocks with one stencil pass each. Within a step,
    log(1 - p) is summed per stencil row (observers in track order), and
    each row's sum is added to the step's total, rows in order; the
    steps' 1 - prod terms then enter the field in step order. That is
    the order of a loop over single steps, so the output bytes are the
    same as one step at a time.
    """
    if detection_range <= 0:
        raise ValueError(f"detection_range must be positive, got {detection_range}")
    if not tracks:
        return EffortField(grid, np.zeros((grid.ny, grid.nx)))
    dt = common_dt((t.dt for t in tracks), "tracks")
    lengths = np.array([len(t) for t in tracks])
    n_steps = int(lengths.max())
    if n_steps == 0:
        return EffortField(grid, np.zeros((grid.ny, grid.nx)))
    # positions step-major, observer-minor
    alive = np.arange(n_steps)[:, None] < lengths[None, :]
    stacked = np.zeros((n_steps, len(tracks), 2))
    for o, t in enumerate(tracks):
        stacked[: len(t), o] = t.positions
    xs, ys = stacked[alive].T
    step_of = np.nonzero(alive)[0]
    first = np.concatenate(([0], np.cumsum(alive.sum(axis=1))))
    # keys cover only the grid rows that the trip's fields of view reach
    iw, jw = _half_widths(grid, detection_range)
    iy = cells_xy(grid, xs, ys)[1]
    lo_cell = max(int(iy.min()) - jw, 0) * grid.nx
    hi_cell = min(int(iy.max()) + jw + 1, grid.ny) * grid.nx
    span = hi_cell - lo_cell
    # a block's (step, cell) keys, and one stencil row's entries over the
    # block, fit in a chunk; so a row's chunk never ends inside a step
    # unless that step alone fills it, as it would one step at a time
    entries_per_step = len(tracks) * (2 * iw + 1)
    per_block = max(1, min(_POSITION_CHUNK // span, _POSITION_CHUNK // entries_per_step))
    scratch = np.zeros(min(per_block, n_steps) * span)
    acc = np.zeros(grid.ncells)
    with np.errstate(divide="ignore"):
        for b0 in range(0, n_steps, per_block):
            b1 = min(b0 + per_block, n_steps)
            lo, hi = first[b0], first[b1]
            # log(1 - p) per (step, cell), summed one stencil row at a time
            block = np.zeros((b1 - b0) * span)
            base = (step_of[lo:hi] - b0) * span - lo_cell
            for key, w in _stencil(grid, xs[lo:hi], ys[lo:hi], detection_range, mode, base):
                np.add.at(scratch, key, np.log1p(-w))
                row_sum = scratch[key]
                scratch[key] = 0.0
                block[key] += row_sum
            # prod(1 - p) - 1, the step's coverage negated
            np.expm1(block, out=block)
            for minus_cover in block.reshape(b1 - b0, span):
                acc[lo_cell:hi_cell] -= minus_cover
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
