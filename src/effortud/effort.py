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

Both fields come from one stencil (``_stencil_rows``) on a zero-padded
frame around the grid, cropped to the grid, and their bytes depend on
its order: positions in groups, one chunk per stencil row and group,
rows in order. Summed effort runs its positions in cell order (a stable
sort by row-major cell index); each chunk's weights and ``np.bincount``
are computed on the stage threads (``pool.ordered_map``) and added to
the field on the calling thread in that order, so the bytes do not
depend on the thread count. The overlap correction runs its chunks
inline, adding every entry's log(1 - p), zero weights included, to its
step's cell in stencil order (``np.add.at``), then the steps'
1 - prod terms in order.

Summed effort over many trips is one pass over all their tracks (one dt);
the overlap correction runs per trip. Fields are plain ``Raster``s.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .encounters import detection_kernel
from .errors import check_positive
from .geometry import Grid, Raster, cells_xy, constant_raster
from .movement import Trajectory, common_dt
from .pool import ordered_map

_POSITION_CHUNK = 65536
# each effort mode weighs a cell center by a detection kernel of its distance
_EFFORT_KERNELS = {"indicator": "uniform", "detection": "linear-decay"}


def _frame(grid: Grid, radius: float) -> tuple[int, int, int, int]:
    """Stencil half-width ``iw`` in columns, and the padded frame's margins and width:
    ``mi = min(iw, nx - 1)`` columns and ``mj = min(jw, ny - 1)`` rows each side hold
    every stencil entry that can reach the grid, in at most 9 grids."""
    iw = int(np.floor(radius / grid.dx + 0.5))
    mi = min(iw, grid.nx - 1)
    return iw, mi, min(int(np.floor(radius / grid.dy + 0.5)), grid.ny - 1), grid.nx + 2 * mi


def _stencil_rows(
    grid: Grid, xs: np.ndarray, ys: np.ndarray, radius: float, mode: str, base: np.ndarray | int = 0
) -> Iterator[Callable[[], tuple[int, np.ndarray, np.ndarray]]]:
    """Yield one task per chunk of the positions' fields of view; a task returns ``(lo, key, weight)``.

    ``lo + key`` is a cell's row-major index in the padded frame
    (``_frame``) plus the position's ``base``; keys start at 0, so a
    chunk's ``np.bincount`` spans only the chunk. The positions run in
    groups of at most ``_POSITION_CHUNK`` entries per full stencil row; a
    group yields one chunk per stencil row its positions reach, rows in
    order, each position's columns in turn, trimmed to the row's widest
    chord. Zero weights and entries off the grid add nothing to the bytes.
    A group's set-up runs as the tasks are drawn; the tasks only read it,
    so they may run on other threads.
    """
    if mode not in _EFFORT_KERNELS:
        raise ValueError(f"unknown effort mode {mode!r}")
    kernel = _EFFORT_KERNELS[mode]
    dx, dy = grid.dx, grid.dy
    iw, mi, mj, width = _frame(grid, radius)
    djs = np.arange(-mj, mj + 1)
    r2 = radius * radius
    step = max(1, _POSITION_CHUNK // (2 * iw + 1))
    bases = np.broadcast_to(base, np.shape(xs))
    for p in range(0, len(xs), step):
        gx, gy = xs[p : p + step], ys[p : p + step]
        ix, iy = cells_xy(grid, gx, gy)
        # offset of the position from its cell center, in cell units
        fx = (gx - grid.region.xmin) / dx - ix - 0.5
        fy = (gy - grid.region.ymin) / dy - iy - 0.5
        origin = bases[p : p + step] + iy * width + ix
        first = int(origin.min())
        origin -= first
        d2ys = (djs[:, None] - fy) * dy
        d2ys *= d2ys
        # squared column offsets, once per group: each row takes its chord
        d2xs = (np.arange(-mi, mi + 1) - fx[:, None]) * dx
        d2xs *= d2xs
        full = (origin[:, None] + np.arange(2 * mi + 1)).ravel()
        for dj, d2y in zip(djs.tolist(), d2ys):
            if (near := d2y.min()) > r2:
                continue
            # columns a cell or more past the row's widest chord have weight 0
            h = min(mi, int(np.sqrt(r2 - near) / dx + 1.5))
            key = full if h == mi else None
            lo = first + (mj + dj) * width + mi - h
            yield partial(_stencil_row, lo, d2xs[:, mi - h : mi + h + 1], d2y, origin, key, radius, kernel)


def _stencil_row(lo, d2xs, d2y, origin, key, radius, kernel) -> tuple[int, np.ndarray, np.ndarray]:
    """One stencil row's chunk: the row's chord of the squared column offsets
    plus its squared row offset, then ``sqrt`` and the kernel; ``key`` is
    the group's full-width keys, or None to build the chord's."""
    d = np.add(d2xs, d2y[:, None])
    w = detection_kernel(np.sqrt(d, out=d), radius, kernel)
    if key is None:
        key = (origin[:, None] + np.arange(d2xs.shape[1])).ravel()
    return lo, key, w.ravel()


def _binned_row(task) -> tuple[int, np.ndarray]:
    lo, key, w = task()
    return lo, np.bincount(key, weights=w)


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
    _, mi, mj, width = _frame(grid, detection_range)
    acc = np.zeros((grid.ny + 2 * mj) * width)
    xy = np.concatenate([t.positions for t in tracks])
    ix, iy = cells_xy(grid, *xy.T)
    # in cell order, each chunk's bincount spans a few frame rows
    xs, ys = xy[np.argsort(iy * grid.nx + ix, kind="stable")].T
    del xy, ix, iy
    # each chunk's bincount may run on another thread; the sums stay in order
    for lo, chunk in ordered_map(_binned_row, _stencil_rows(grid, xs, ys, detection_range, mode)):
        acc[lo : lo + chunk.size] += chunk
    return Raster(grid, acc.reshape(-1, width)[mj : mj + grid.ny, mi : mi + grid.nx] * dt)


def overlap_corrected_effort(
    tracks: Sequence[Trajectory],
    grid: Grid,
    detection_range: float,
    mode: str = "detection",
) -> Raster:
    """Joint coverage effort for tracks recorded simultaneously.

    The given tracks must be step-aligned (observers of one trip). Per
    step, a cell receives 1 - prod(1 - p) over the observers covering
    it, so simultaneous overlapping coverage is not double counted. The
    steps run in blocks, one stencil pass each; a step's entries keep the
    stencil order they have one step at a time (module docstring).
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
    iw, mi, mj, width = _frame(grid, detection_range)
    iy = cells_xy(grid, xs, ys)[1]
    # a step's keys span the frame rows the trip's fields of view reach
    top, bottom = int(iy.min()), int(iy.max()) + 2 * mj + 1
    span = (bottom - top) * width
    # the grid rows among them, cropped from each step's span
    g0, g1 = max(top - mj, 0), min(bottom - mj, grid.ny)
    rows = slice(g0 + mj - top, g1 + mj - top)
    # a block's (step, cell) keys, and one stencil row's entries over the
    # block, fit in a chunk; so a step never splits across position groups
    # unless that step alone fills one, as it would one step at a time
    entries_per_step = len(tracks) * (2 * iw + 1)
    per_block = max(1, min(_POSITION_CHUNK // span, _POSITION_CHUNK // entries_per_step))
    acc = np.zeros((grid.ny, grid.nx))
    with np.errstate(divide="ignore"):
        for b0 in range(0, n_steps, per_block):
            b1 = min(b0 + per_block, n_steps)
            lo, hi = first[b0], first[b1]
            # log(1 - p) summed per (step, cell)
            block = np.zeros((b1 - b0) * span)
            base = (step_of[lo:hi] - b0) * span - top * width
            for row in _stencil_rows(grid, xs[lo:hi], ys[lo:hi], detection_range, mode, base):
                k0, key, w = row()
                # a zero weight adds log1p(-0) = -0.0, which leaves every sum's bits
                np.add.at(block, key + k0, np.log1p(np.negative(w, out=w), out=w))
            # prod(1 - p) - 1, the step's coverage negated
            np.expm1(block, out=block)
            for minus_cover in block.reshape(b1 - b0, -1, width)[:, rows, mi : mi + grid.nx]:
                acc[g0:g1] -= minus_cover
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
