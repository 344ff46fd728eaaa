"""Search-effort fields on a grid.

Effort is accumulated from observer tracks. For every recorded track
position, each grid cell whose center lies within the detection range
receives a contribution for that time step:

    indicator mode:  1
    detection mode:  the detection probability at the center's distance
                     (linear decay from 1 at distance 0 to 0 at the range)

summed over steps and observers, so effort counts recorded steps.

When several observers cover the same cell simultaneously, summing
their contributions counts the overlap twice. The overlap-corrected
field instead accumulates, per time step,

    1 - prod_over_observers(1 - p_obs)

which is the probability that at least one observer would have detected
an animal at that cell center during the step.

Both fields sum the same stencil entries on a zero-padded frame around
the grid, cropped to the grid, and their bytes depend on each cell's
order of entries: positions in groups of at most ``_POSITION_CHUNK``
entries per full stencil row; per group, one stencil row at a time;
per row, positions, then columns.

Summed effort (``_stencil_rows``) runs its positions in cell order (a
stable sort by row-major cell index) and each stencil row column-major.
A group's squared column offsets and keys are (columns, positions)
tables, built once, whose rows run from the stencil's right column to
its left: a row's chord is a slice of them, so no key is built per
entry, and in cell order each cell still takes its entries in position
order. A stage-thread task (``pool.ordered_map``) runs several of a
group's rows (about eight chunks of work, at most half the group): it
computes each row's weights and ``np.bincount``, and the calling thread
adds the rows to the field in stencil order, so the bytes do not depend
on the thread count.

The overlap correction sorts each step's observers by position group,
then cell row from the top, ties in observer order: a cell then takes
its entries in position order, so each position's whole stencil is
added at once (position-major). It runs blocks of steps whose (step,
cell) sums fit in half a position chunk, and in each block pieces of
positions, from per-trip tables of squared row and column offsets; a
piece adds every entry's log(1 - p), zero weights included, to its
step's cell (``np.add.at``), then the steps' 1 - prod terms in order.

Summed effort over many trips is one pass over all their tracks; the
overlap correction runs per trip. Fields are plain ``Raster``s.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .encounters import detection_kernel
from .errors import check_positive
from .geometry import Grid, Raster, cells_xy, constant_raster
from .movement import Trajectory
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


def _kernel(mode: str) -> str:
    if mode not in _EFFORT_KERNELS:
        raise ValueError(f"unknown effort mode {mode!r}")
    return _EFFORT_KERNELS[mode]


def _positions(grid: Grid, xs: np.ndarray, ys: np.ndarray, width: int) -> list[np.ndarray]:
    """``[iy, origin, fx, fy]``: each position's cell row, frame origin ``iy * width + ix``
    and offset from its cell center in cell units."""
    ix, iy = cells_xy(grid, xs, ys)
    fx = (xs - grid.region.xmin) / grid.dx - ix - 0.5
    fy = (ys - grid.region.ymin) / grid.dy - iy - 0.5
    return [iy, iy * width + ix, fx, fy]


def _stencil_rows(
    grid: Grid, at: Sequence[np.ndarray], radius: float, mode: str
) -> Iterator[Callable[[], Iterator[tuple[int, np.ndarray, np.ndarray]]]]:
    """Yield summed-effort tasks; a task yields ``(lo, key, weight)`` chunks, one stencil
    row each, column-major (module docstring).

    ``at`` is the positions' ``_positions``, in cell order; ``lo + key``
    is a cell's row-major index in the padded frame (``_frame``), and keys
    start at most a stencil half-width above 0, so a chunk's
    ``np.bincount`` spans little more than the chunk. Rows that put every
    position of a group off the grid or out of range are skipped, and a
    row's columns are trimmed to its widest chord. A task runs as many of
    a group's rows as hold eight chunks of stencil entries and binned
    values together, at most half the group's rows and at least one:
    one-row tasks queue on the interpreter lock, which ``np.bincount``
    holds, and tasks drawn ahead into later groups keep those groups'
    tables alive.

    Zero weights and entries off the grid add nothing to the bytes. A
    group's set-up runs as the tasks are drawn; the tasks only read it, so
    they may run on other threads.
    """
    kernel = _kernel(mode)
    iw, mi, mj, width = _frame(grid, radius)
    r2 = radius * radius
    step = max(1, _POSITION_CHUNK // (2 * iw + 1))
    for p in range(0, len(at[0]), step):
        iy, origin, fx, fy = (a[p : p + step] for a in at)
        first = int(origin.min())
        origin = origin - first
        # a row off the grid for every position lands only in the cropped margin
        djs = np.arange(max(-mj, -int(iy.max())), min(mj, grid.ny - 1 - int(iy.min())) + 1)
        d2ys = (djs[:, None] - fy) * grid.dy
        d2ys *= d2ys
        near = d2ys.min(axis=1)
        if not (reach := np.flatnonzero(near <= r2)).size:
            continue
        # columns a cell or more past a row's widest chord have weight 0
        hs = np.minimum(mi, (np.sqrt(np.maximum(r2 - near, 0.0)) / grid.dx + 1.5).astype(int))
        # squared column offsets and keys, once per group: row k is column mi - k
        d2xs = (np.arange(mi, -mi - 1, -1)[:, None] - fx) * grid.dx
        d2xs *= d2xs
        keys = origin + np.arange(2 * mi, -1, -1)[:, None]
        # per row: the stencil entries, and at most the keys' span of binned values
        per_row = len(origin) * (2 * mi + 1) + int(origin.max()) + 2 * mi + 1
        rows = max(1, min(8 * _POSITION_CHUNK // per_row, len(reach) // 2))
        for r0 in range(reach[0], reach[-1] + 1, rows):
            run = [(first + (mj + int(djs[r])) * width, int(hs[r]), d2ys[r])
                   for r in range(r0, min(r0 + rows, reach[-1] + 1))]
            yield partial(_column_rows, run, d2xs, keys, radius, kernel)


def _column_rows(run, d2xs, keys, radius, kernel):
    """Column-major rows: per ``(lo, h, d2y)``, the chord's rows of the group's tables plus
    the row's squared row offsets, ``sqrt`` and the kernel, in place."""
    mi = len(keys) // 2
    for lo, h, d2y in run:
        chord = slice(mi - h, mi + h + 1)
        d = np.add(d2xs[chord], d2y)
        w = detection_kernel(np.sqrt(d, out=d), radius, kernel, out=d)
        yield lo, keys[chord].ravel(), w.ravel()


def _binned(task) -> list[tuple[int, np.ndarray]]:
    return [(lo, np.bincount(key, weights=w)) for lo, key, w in task()]


def path_integral_effort(
    tracks: Sequence[Trajectory],
    grid: Grid,
    detection_range: float,
    mode: str,
) -> Raster:
    """Accumulate per-cell effort over all positions of all tracks.

    ``mode`` is "indicator" (unit weight for cell centers within the
    range) or "detection" (linear-decay probability weight).
    """
    check_positive(detection_range, "detection_range")
    if not tracks:
        return constant_raster(grid, 0.0)
    _, mi, mj, width = _frame(grid, detection_range)
    acc = np.zeros((grid.ny + 2 * mj) * width)
    at = _positions(grid, *np.concatenate([t.positions for t in tracks]).T, width)
    # in cell order, each chunk's bincount spans a few frame rows
    order = np.argsort(at[1], kind="stable")
    at = [a[order] for a in at]
    # runs of rows binned on the stage threads, each row summed in order
    for run in ordered_map(_binned, _stencil_rows(grid, at, detection_range, mode)):
        for lo, chunk in run:
            acc[lo : lo + chunk.size] += chunk
    # a copy: a view would keep the padded frame alive
    return Raster(grid, acc.reshape(-1, width)[mj : mj + grid.ny, mi : mi + grid.nx].copy())


def overlap_corrected_effort(
    tracks: Sequence[Trajectory],
    grid: Grid,
    detection_range: float,
    mode: str,
) -> Raster:
    """Joint coverage effort for tracks recorded simultaneously.

    The given tracks must be step-aligned (observers of one trip). Per
    step, a cell receives 1 - prod(1 - p) over the observers covering
    it, so simultaneous overlapping coverage is not double counted. The
    steps run in blocks, their positions in pieces, each position's
    whole stencil at once; a step's cells keep the summation order they
    have one step at a time (module docstring).
    """
    check_positive(detection_range, "detection_range")
    kernel = _kernel(mode)
    lengths = np.array([len(t) for t in tracks], dtype=int)
    n_steps = int(lengths.max(initial=0))
    if n_steps == 0:
        return constant_raster(grid, 0.0)
    alive = np.arange(n_steps)[:, None] < lengths[None, :]
    stacked = np.zeros((n_steps, len(tracks), 2))
    for o, t in enumerate(tracks):
        stacked[: len(t), o] = t.positions
    steps = np.nonzero(alive)[0]
    first = np.concatenate(([0], np.cumsum(alive.sum(axis=1))))
    iw, mi, mj, width = _frame(grid, detection_range)
    # positions step-major, observer-minor, set up once per trip
    iy, origin, fx, fy = _positions(grid, *stacked[alive].T, width)
    # per step: position group, then cell row from the top; a cell then
    # takes its entries in the order of one step at a time
    group = max(1, _POSITION_CHUNK // (2 * iw + 1))
    order = np.lexsort((-iy, (np.arange(len(steps)) - first[steps]) // group, steps))
    iy, origin, fx, fy = iy[order], origin[order], fx[order], fy[order]
    # a step's keys span the frame rows the trip's fields of view reach
    top, bottom = int(iy.min()), int(iy.max()) + 2 * mj + 1
    span = (bottom - top) * width
    origin += steps * span - top * width
    # the grid rows among them, cropped from each step's span
    g0, g1 = max(top - mj, 0), min(bottom - mj, grid.ny)
    rows = slice(g0 + mj - top, g1 + mj - top)
    # each position's squared row and column offsets over the stencil, and its keys' offsets
    d2ys = (np.arange(-mj, mj + 1) - fy[:, None]) * grid.dy
    d2ys *= d2ys
    d2xs = (np.arange(-mi, mi + 1) - fx[:, None]) * grid.dx
    d2xs *= d2xs
    stencil = (np.arange(0, (2 * mj + 1) * width, width)[:, None] + np.arange(2 * mi + 1)).ravel()
    half = _POSITION_CHUNK // 2
    per_block, piece = max(1, half // span), max(1, half // stencil.size)
    acc = np.zeros((grid.ny, grid.nx))
    with np.errstate(divide="ignore"):
        for b0 in range(0, n_steps, per_block):
            b1 = min(b0 + per_block, n_steps)
            # log(1 - p) summed per (step, cell)
            block = np.zeros((b1 - b0) * span)
            for p in range(first[b0], first[b1], piece):
                q = min(p + piece, first[b1])
                d = np.add(d2ys[p:q, :, None], d2xs[p:q, None, :])
                w = detection_kernel(np.sqrt(d, out=d), detection_range, kernel, out=d)
                # a zero weight adds log1p(-0) = -0.0, which leaves every sum's bits
                np.log1p(np.negative(w, out=w), out=w)
                np.add.at(block, ((origin[p:q, None] - b0 * span) + stencil).ravel(), w.ravel())
            # prod(1 - p) - 1, the step's coverage negated
            np.expm1(block, out=block)
            for minus_cover in block.reshape(b1 - b0, -1, width)[:, rows, mi : mi + grid.nx]:
                acc[g0:g1] -= minus_cover
    return Raster(grid, acc)


def trip_grouped_effort(
    tracks_by_trip: dict[int, list[Trajectory]],
    grid: Grid,
    detection_range: float,
    mode: str,
    overlap: bool = False,
) -> Raster:
    """Total effort over many trips.

    Summed effort is one pass over every trip's tracks; the overlap
    correction applies per trip.
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
