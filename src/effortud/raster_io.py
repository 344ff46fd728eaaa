"""Raster file formats: cell-center CSV and ESRI ASCII grid.

Both writers print floats with 17 significant digits so finite values
survive a write/read cycle bit-exact.

CSV layout: header ``x,y,value``, one row per cell center, x varying
fastest, rows from the south edge upward. The reader parses the rows in
bulk and reconstructs the grid from the center coordinates. It refuses
a row it cannot parse (or the csv module cannot split, such as one with
an over-long field), a center that is not finite or listed twice and
spacing that is not uniform; any refusal reads the file again line by
line, naming the file and line (only the file, for bytes that do not
decode). The region is exact only up to rounding of the centers (a
single column or row has no spacing at all), so callers that know the
grid compare centers with ``same_cell_centers``.

ASCII grid layout follows the ESRI convention: six header lines
(ncols, nrows, xllcorner, yllcorner, cellsize, NODATA_value) and data
rows written from the north edge downward. ``cellsize`` is a single
number, so writing requires cells square up to rounding: the grid read
back must have the same cell centers. The reader names the file of a
header that gives no region, ncols or nrows that are not positive
integers or bytes that do not decode, and the file and line of a token
that is not a number or a data row that does not hold ncols values.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .geometry import Grid, Raster, StudyRegion

_FMT = "%.17g"  # every float written to a file: finite ones read back bit-exact
_NODATA = -9999.0  # written for missing (NaN) cells
_HEADER = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def write_raster_csv(raster: Raster, path: str | Path) -> None:
    """Write the CSV layout, one grid row per ``%`` on a template of that row.

    The bytes are those of ``csv.writer``: no field needs quoting, and
    lines end in ``\r\n``.
    """
    grid = raster.grid
    template = "".join(f"{_FMT % x},%s,{_FMT}\r\n" for x in grid.x_centers())
    fields: list = [None] * (2 * grid.nx)
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\r\n")
        for y, row in zip(grid.y_centers(), raster.values.tolist()):
            fields[0::2] = [_FMT % y] * grid.nx
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
    try:
        return _csv_raster(path, bulk=True)
    except ValueError:  # every refusal comes from the per-line reader, which names the line
        return _csv_raster(path, bulk=False)


def _csv_raster(path, bulk: bool) -> Raster:
    """A CSV file's raster, its rows parsed by ``np.loadtxt`` when ``bulk`` and no line can hold
    a field past the csv module's limit (which loadtxt would read) or a byte 0x1c-0x1f (which
    loadtxt strips as blank around a number and ``float`` refuses), else line by line."""
    if bulk:
        with open(path, "rb") as fh:
            data = np.frombuffer(fh.read(), np.uint8)
        # a csv line ends at \n, \r or \r\n, and holds no more characters than bytes
        longest = np.diff(np.flatnonzero(data == 10), prepend=-1, append=data.size).max()
        bulk = longest <= csv.field_size_limit() and not ((data >= 0x1c) & (data <= 0x1f)).any()
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            header = next(r, None)
            if header is None or [h.strip().lower() for h in header[:3]] != ["x", "y", "value"]:
                raise ValueError(f"{path}: expected header x,y,value, got {header}")
            if bulk:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # no data rows, refused below
                    rows = np.loadtxt(fh, delimiter=",", comments=None, usecols=(0, 1, 2), ndmin=2)
                at = range(len(rows))  # no line numbers: a refusal reads again line by line
            else:
                rows, at = [], []
                for row in filter(None, r):  # a blank line holds no row
                    try:
                        x, y, v = map(float, row[:3])
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}, line {r.line_num}: expected x,y,value numbers, got {row}"
                        ) from exc
                    rows.append((x, y, v))
                    at.append(r.line_num)
        except csv.Error as exc:  # a line the csv module cannot split, such as an over-long field
            raise ValueError(f"{path}, line {r.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded in chunks, so the line is not known
            raise ValueError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    xs, ys, vs = np.reshape(rows, (-1, 3)).T
    if not vs.size:
        raise ValueError(f"{path}: no data rows")
    if not (finite := np.isfinite(xs) & np.isfinite(ys)).all():
        i = int(np.argmin(finite))
        raise ValueError(f"{path}, line {at[i]}: cell center {xs[i].item(), ys[i].item()} "
                         "is not finite")
    ux, dx = _axis(xs, path, "x")
    uy, dy = _axis(ys, path, "y")
    nx, ny = len(ux), len(uy)
    if nx * ny != len(vs):
        raise ValueError(f"{path}: {len(vs)} rows do not fill a {nx}x{ny} grid")
    ix, iy = np.searchsorted(ux, xs), np.searchsorted(uy, ys)
    flat = iy * nx + ix
    if np.bincount(flat).max() > 1:  # as many rows as cells, so some cell is listed twice
        _, first = np.unique(flat, return_index=True)
        dup = np.setdiff1d(np.arange(len(flat)), first)[0]
        raise ValueError(
            f"{path}, line {at[dup]}: cell center {xs[dup].item(), ys[dup].item()} listed twice"
        )
    region = StudyRegion(float(ux[0] - dx / 2.0), float(ux[-1] + dx / 2.0),
                         float(uy[0] - dy / 2.0), float(uy[-1] + dy / 2.0))
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
    row = " ".join([_FMT] * grid.nx) + "\n"
    with open(path, "w") as fh:
        fh.write(f"NCOLS {grid.nx}\nNROWS {grid.ny}\n")
        fh.write(f"XLLCORNER {_FMT}\nYLLCORNER {_FMT}\nCELLSIZE {_FMT}\nNODATA_VALUE {_FMT}\n"
                 % (r.xmin, r.ymin, cell, _NODATA))
        for values in vals[::-1].tolist():  # one % per row, north to south
            fh.write(row % tuple(values))


def read_ascii_grid(path: str | Path) -> Raster:
    header: dict[str, float] = {}
    data_rows: list[list[float]] = []
    lines: list[int] = []
    with open(path) as fh:
        try:
            for n, line in enumerate(fh, 1):
                parts = line.split()
                if not parts:
                    continue
                key = parts[0].lower()
                try:
                    if len(parts) == 2 and key in _HEADER:
                        header[key] = float(parts[1])
                    else:
                        data_rows.append([float(tok) for tok in parts])
                        lines.append(n)
                except ValueError as exc:
                    raise ValueError(f"{path}, line {n}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded in chunks, so the line is not known
            raise ValueError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    for need in _HEADER[:5]:
        if need not in header:
            raise ValueError(f"{path}: missing ASCII grid header field {need}")
    for need in ("ncols", "nrows"):
        if not (header[need].is_integer() and header[need] >= 1):
            raise ValueError(f"{path}: {need} must be a positive integer, got {header[need]!r}")
    nx, ny = int(header["ncols"]), int(header["nrows"])
    cell = header["cellsize"]
    for n, row in zip(lines, data_rows):
        if len(row) != nx:
            raise ValueError(f"{path}, line {n}: expected ncols = {nx} values, got {len(row)}")
    if len(data_rows) != ny:
        raise ValueError(f"{path}: expected nrows = {ny} data rows, got {len(data_rows)}")
    vals = np.array(data_rows)
    if (nodata := header.get("nodata_value")) is not None:
        vals = np.where(vals == nodata, np.nan, vals)
    try:
        region = StudyRegion(header["xllcorner"], header["xllcorner"] + nx * cell,
                             header["yllcorner"], header["yllcorner"] + ny * cell)
    except ValueError as exc:  # the header gives no region: a cell size of 0, say
        raise ValueError(f"{path}: {exc}") from exc
    # rows are stored north to south
    return Raster(Grid(region, nx, ny), vals[::-1].copy())
