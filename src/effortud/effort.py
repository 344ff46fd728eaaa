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

Over many trips, summed effort is one pass over every trip's tracks, so
all trips must share one dt; only the overlap correction runs per trip.
Every field is a plain ``Raster``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .encounters import detection_kernel
from .errors import check_positive
from .geometry import Grid, Raster, cells_xy, constant_raster
from .movement import Trajectory, common_dt

_POSITION_CHUNK = 65536
# each effort mode weighs a cell center by a detection kernel of its distance
_EFFORT_KERNELS = {"indicator": "uniform", "detection": "linear-decay"}


def _half_widths(grid: Grid, radius: float) -> tuple[int, int]:
    """Stencil half-widths in columns and rows for a detection radius."""
    return int(np.floor(radius / grid.dx + 0.5)), int(np.floor(radius / grid.dy + 0.5))


def _stencil(
    grid: Grid,
    xs: np.ndarray,
    ys: np.ndarray,
    radius: float,
    mode: str,
    base: np.ndarray | int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(key, weight)`` chunks of the positions' fields of view.

    A key is the flat cell index plus the position's ``base``. The
    positions run in groups that fill at most ``_POSITION_CHUNK`` entries
    per stencil row, so memory does not grow with the number of
    positions. A group yields one chunk per stencil row, rows in order.
    Every weight is positive. A cell appears once per position covering
    it, so callers reduce the chunks with ``np.bincount``.
    """
    if mode not in _EFFORT_KERNELS:
        raise ValueError(f"unknown effort mode {mode!r}")
    kernel = _EFFORT_KERNELS[mode]
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    iw, jw = _half_widths(grid, radius)
    di = np.arange(-iw, iw + 1)
    djs = np.arange(-jw, jw + 1)
    r2 = radius * radius
    step = max(1, _POSITION_CHUNK // len(di))
    bases = np.broadcast_to(base, np.shape(xs))
    for p in range(0, len(xs), step):
        gx, gy = xs[p : p + step], ys[p : p + step]
        ix, iy = cells_xy(grid, gx, gy)
        # offset of the position from its cell center, in cell units
        fx = (gx - grid.region.xmin) / dx - ix - 0.5
        fy = (gy - grid.region.ymin) / dy - iy - 0.5
        origin = bases[p : p + step] + iy * nx + ix
        d2ys = (djs[:, None] - fy) * dy
        d2ys *= d2ys
        # a negative index reads as a huge unsigned one
        keeps = (d2ys <= r2) & ((iy + djs[:, None]).view(np.uint64) < ny)
        for dj, keep, d2y in zip(djs.tolist(), keeps, d2ys):
            if not keep.any():
                continue
            kd2y = d2y[keep]
            # columns a cell or more past the row's widest chord have weight 0
            h = min(iw, int(np.sqrt(max(r2 - kd2y.min(), 0.0)) / dx + 1.5))
            dr = di[iw - h : iw + h + 1]
            # distances and keys are built in place: a chunk's arrays bound the memory
            d = dr[None, :] - fx[keep][:, None]
            d *= dx
            d *= d
            d += kd2y[:, None]
            w = detection_kernel(np.sqrt(d, out=d), radius, kernel)
            tx = ix[keep][:, None] + dr[None, :]
            valid = np.flatnonzero((tx.view(np.uint64) < nx) & (w > 0))
            keys = np.add(origin[keep][:, None], (dj * nx + dr)[None, :], out=tx).ravel()
            yield keys.take(valid), w.ravel().take(valid)


def path_integral_effort(
    tracks: Sequence[Trajectory],
    grid: Grid,
    detection_range: float,
    mode: str = "indicator",
) -> Raster:
    """Accumulate per-cell effort over all positions of all tracks.

    ``mode`` is "indicator" (unit weight for cell centers within the
    range) or "detection" (linear-decay probability weight).
    """
    check_positive(detection_range, "detection_range")
    if not tracks:
        return constant_raster(grid, 0.0)
    dt = common_dt((t.dt for t in tracks), "tracks")
    acc = np.zeros(grid.ncells)
    xs = np.concatenate([t.positions[:, 0] for t in tracks])
    ys = np.concatenate([t.positions[:, 1] for t in tracks])
    for flat, w in _stencil(grid, xs, ys, detection_range, mode):
        acc += np.bincount(flat, weights=w, minlength=acc.size)
        del flat, w  # freed before the next chunk is built
    return Raster(grid, acc * dt)


def overlap_corrected_effort(
    tracks: Sequence[Trajectory],
    grid: Grid,
    detection_range: float,
    mode: str = "detection",
) -> Raster:
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
    check_positive(detection_range, "detection_range")
    lengths = np.array([len(t) for t in tracks], dtype=int)
    n_steps = int(lengths.max(initial=0))
    if n_steps == 0:
        return constant_raster(grid, 0.0)
    dt = common_dt((t.dt for t in tracks), "tracks")
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
    return Raster(grid, acc * dt)


def trip_grouped_effort(
    tracks_by_trip: dict[int, list[Trajectory]],
    grid: Grid,
    detection_range: float,
    mode: str = "detection",
    overlap: bool = False,
) -> Raster:
    """Total effort over many trips.

    Summed effort is one pass over every trip's tracks, which must share
    dt; the overlap correction applies per trip.
    """
    if not overlap:
        tracks = [t for trip in tracks_by_trip.values() for t in trip]
        return path_integral_effort(tracks, grid, detection_range, mode)
    total = np.zeros((grid.ny, grid.nx))
    for trip in tracks_by_trip.values():
        total += overlap_corrected_effort(trip, grid, detection_range, mode).values
    return Raster(grid, total)


def floored_log_offset(effort: Raster, floor: float) -> Raster:
    """Log-effort offset: effort floored at ``floor``, then logged.

    With a floor of 0, cells without effort become -inf and drop out of
    the fitted intensity integral.
    """
    with np.errstate(divide="ignore"):
        return Raster(effort.grid, np.log(np.maximum(effort.values, floor)))
