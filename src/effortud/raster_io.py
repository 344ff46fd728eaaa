"""Raster file formats: cell-center CSV and ESRI ASCII grid.

Both writers print floats with 17 significant digits so finite values
survive a write/read cycle bit-exact.

CSV layout: header ``x,y,value``, one row per cell center, x varying
fastest, rows from the south edge upward. The reader reconstructs the
grid from the center coordinates; it refuses a row it cannot parse (or
the csv module cannot split, such as one with an over-long field), a
center that is not finite or listed twice and spacing that is not
uniform, naming the file and line. The reconstructed region is exact
only up to rounding of the centers (a single column or row has no
spacing at all), so callers that know the intended grid should compare
centers against it with ``same_cell_centers``; ``model_io.read_raster``
does.

ASCII grid layout follows the ESRI convention: six header lines
(ncols, nrows, xllcorner, yllcorner, cellsize, NODATA_value) and data
rows written from the north edge downward. ``cellsize`` is a single
number, so writing requires cells square up to rounding: the grid read
back must have the same cell centers. The reader refuses ncols or nrows
that are not positive integers.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .geometry import Grid, Raster, StudyRegion

_FMT = "%.17g"
_NODATA = -9999.0  # written for missing (NaN) cells


def _fmt(v: float) -> str:
    return _FMT % v


def write_raster_csv(raster: Raster, path: str | Path) -> None:
    """Write the CSV layout, one grid row per ``%`` on a template of that row.

    The bytes are those of ``csv.writer``: no field needs quoting, and
    lines end in ``\r\n``.
    """
    grid = raster.grid
    template = "".join(f"{_fmt(x)},%s,{_FMT}\r\n" for x in grid.x_centers())
    fields: list = [None] * (2 * grid.nx)
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\r\n")
        for y, row in zip(grid.y_centers(), raster.values.tolist()):
            fields[0::2] = [_fmt(y)] * grid.nx
            fields[1::2] = row
            fh.write(template % tuple(fields))


def _center_tolerance(centers: np.ndarray, width: float) -> float:
    """How far a cell center read from a file may lie from where it belongs.

    1e-9 of a cell width, or 4 ulps of the largest coordinate when that is
    more: far from the origin, rounding alone moves centers that far.
    """
    return max(1e-9 * width, 4.0 * float(np.spacing(np.max(np.abs(centers)))))


def same_cell_centers(got: Grid, grid: Grid) -> bool:
    """Whether ``got`` has the shape of ``grid`` and its cell centers up to rounding."""
    return (got.nx, got.ny) == (grid.nx, grid.ny) and all(
        np.allclose(a, b, rtol=0.0, atol=_center_tolerance(b, width))
        for a, b, width in (
            (got.x_centers(), grid.x_centers(), grid.dx),
            (got.y_centers(), grid.y_centers(), grid.dy),
        )
    )


def _axis(u: np.ndarray, path, name: str) -> tuple[np.ndarray, float]:
    """Sorted distinct centers of one axis and their spacing.

    The spacing must be uniform: every center lies within
    ``_center_tolerance`` of its evenly spaced place.
    """
    c = np.unique(u)
    if len(c) == 1:
        return c, 2.0 * c[0] if c[0] > 0 else 1.0
    d = c[1] - c[0]
    even = c[0] + np.arange(len(c)) * ((c[-1] - c[0]) / (len(c) - 1))
    bad = np.abs(c - even) > _center_tolerance(c, d)
    if np.any(bad):
        raise ValueError(
            f"{path}: {name} centers are not evenly spaced "
            f"({name} = {float(c[int(np.argmax(bad))])!r} is off a spacing of {float(d)!r})"
        )
    return c, float(d)


def read_raster_csv(path: str | Path) -> Raster:
    xs: list[float] = []
    ys: list[float] = []
    vs: list[float] = []
    lines: list[int] = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            header = next(r, None)
            if header is None or [h.strip().lower() for h in header[:3]] != ["x", "y", "value"]:
                raise ValueError(f"{path}: expected header x,y,value, got {header}")
            for row in r:
                if not row:
                    continue
                try:
                    xs.append(float(row[0]))
                    ys.append(float(row[1]))
                    vs.append(float(row[2]))
                except (IndexError, ValueError) as exc:
                    raise ValueError(
                        f"{path}, line {r.line_num}: expected x,y,value numbers, got {row}"
                    ) from exc
                lines.append(r.line_num)
        except csv.Error as exc:  # a line the csv module cannot split, such as an over-long field
            raise ValueError(f"{path}, line {r.line_num}: {exc}") from exc
    if not vs:
        raise ValueError(f"{path}: no data rows")
    centers = np.array([xs, ys])
    if not np.isfinite(centers).all():
        i = int(np.argmin(np.isfinite(centers).all(axis=0)))
        raise ValueError(f"{path}, line {lines[i]}: cell center ({xs[i]!r}, {ys[i]!r}) is not finite")
    ux, dx = _axis(centers[0], path, "x")
    uy, dy = _axis(centers[1], path, "y")
    nx, ny = len(ux), len(uy)
    if nx * ny != len(vs):
        raise ValueError(f"{path}: {len(vs)} rows do not fill a {nx}x{ny} grid")
    ix = np.searchsorted(ux, xs)
    iy = np.searchsorted(uy, ys)
    flat = iy * nx + ix
    seen = np.zeros(nx * ny, dtype=bool)
    seen[flat] = True
    if not np.all(seen):
        # as many rows as cells, so some cell center is listed twice
        _, first = np.unique(flat, return_index=True)
        dup = np.setdiff1d(np.arange(len(flat)), first)[0]
        raise ValueError(
            f"{path}, line {lines[dup]}: cell center ({xs[dup]!r}, {ys[dup]!r}) listed twice"
        )
    region = StudyRegion(
        xmin=float(ux[0] - dx / 2.0),
        xmax=float(ux[-1] + dx / 2.0),
        ymin=float(uy[0] - dy / 2.0),
        ymax=float(uy[-1] + dy / 2.0),
    )
    values = np.empty((ny, nx))
    values[iy, ix] = vs
    return Raster(Grid(region, nx, ny), values)


def write_ascii_grid(raster: Raster, path: str | Path) -> None:
    grid = raster.grid
    r = grid.region
    # CELLSIZE is one number: dx or dy, whichever reads back onto this grid's
    # cell centers (far from the origin, rounding of the region makes them differ)
    for cell in (grid.dx, grid.dy):
        back = StudyRegion(r.xmin, r.xmin + grid.nx * cell, r.ymin, r.ymin + grid.ny * cell)
        if same_cell_centers(Grid(back, grid.nx, grid.ny), grid):
            break
    else:
        raise ValueError(
            f"ASCII grid needs square cells; dx={grid.dx!r} dy={grid.dy!r}"
        )
    if np.any(raster.values == _NODATA):
        raise ValueError(f"a cell holds the NODATA value {_NODATA!r}, which reads back as missing")
    vals = np.where(np.isnan(raster.values), _NODATA, raster.values)
    with open(path, "w") as fh:
        fh.write(f"NCOLS {grid.nx}\n")
        fh.write(f"NROWS {grid.ny}\n")
        fh.write(f"XLLCORNER {_fmt(grid.region.xmin)}\n")
        fh.write(f"YLLCORNER {_fmt(grid.region.ymin)}\n")
        fh.write(f"CELLSIZE {_fmt(cell)}\n")
        fh.write(f"NODATA_VALUE {_fmt(_NODATA)}\n")
        for iy in range(grid.ny - 1, -1, -1):
            fh.write(" ".join(_fmt(v) for v in vals[iy]))
            fh.write("\n")


def read_ascii_grid(path: str | Path) -> Raster:
    header: dict[str, float] = {}
    data_rows: list[list[float]] = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            key = parts[0].lower()
            if len(parts) == 2 and key in (
                "ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value",
            ):
                header[key] = float(parts[1])
            else:
                data_rows.append([float(tok) for tok in parts])
    for need in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if need not in header:
            raise ValueError(f"{path}: missing ASCII grid header field {need}")
    for need in ("ncols", "nrows"):
        if not (header[need].is_integer() and header[need] >= 1):
            raise ValueError(f"{path}: {need} must be a positive integer, got {header[need]!r}")
    nx = int(header["ncols"])
    ny = int(header["nrows"])
    cell = header["cellsize"]
    vals = np.asarray(data_rows, dtype=float).reshape(ny, nx)
    nodata = header.get("nodata_value")
    if nodata is not None:
        vals = np.where(vals == nodata, np.nan, vals)
    region = StudyRegion(
        xmin=header["xllcorner"],
        xmax=header["xllcorner"] + nx * cell,
        ymin=header["yllcorner"],
        ymax=header["yllcorner"] + ny * cell,
    )
    # rows are stored north to south
    return Raster(Grid(region, nx, ny), vals[::-1].copy())
