"""Rectangular study regions, regular grids, and gridded rasters.

The spatial domain is a rectangle partitioned into nx * ny equal cells.
Cells are indexed by a single integer ``iy * nx + ix`` where ``ix`` counts
columns from the west edge and ``iy`` counts rows from the south edge.
Raster values are stored as a (ny, nx) array so that ``values.ravel()``
follows the same flat ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, OutOfDomainError, config_entry


class Point(NamedTuple):
    """A planar location in region coordinates."""

    x: float
    y: float


@dataclass(frozen=True)
class StudyRegion:
    """Axis-aligned rectangle [xmin, xmax] x [ymin, ymax]."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self) -> None:
        if not (0 < self.width < np.inf and 0 < self.height < np.inf):
            raise ValueError(
                f"degenerate or unbounded region: x [{self.xmin}, {self.xmax}], "
                f"y [{self.ymin}, {self.ymax}]"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x: float | np.ndarray, y: float | np.ndarray):
        """Closed-rectangle membership (boundary counts as inside), elementwise on arrays."""
        return (self.xmin <= x) & (x <= self.xmax) & (self.ymin <= y) & (y <= self.ymax)


@dataclass(frozen=True)
class Grid:
    """Regular partition of a region into nx columns and ny rows."""

    region: StudyRegion
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid must have at least one cell, got {self.nx}x{self.ny}")

    @property
    def dx(self) -> float:
        return self.region.width / self.nx

    @property
    def dy(self) -> float:
        return self.region.height / self.ny

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.region.area / (self.nx * self.ny)

    def x_centers(self) -> np.ndarray:
        return self.region.xmin + (np.arange(self.nx) + 0.5) * self.dx

    def y_centers(self) -> np.ndarray:
        return self.region.ymin + (np.arange(self.ny) + 0.5) * self.dy

    def center_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinates as (ny, nx) arrays (X, Y)."""
        return np.meshgrid(self.x_centers(), self.y_centers())


def build_grid(region: StudyRegion, nx: int, ny: int) -> Grid:
    """Construct a regular grid over ``region``."""
    return Grid(region=region, nx=nx, ny=ny)


def grid_from_doc(doc: dict) -> Grid:
    """The grid of a config document's "region" and "grid" sections.

    Missing entries default to [0, 100] x [0, 100] and 100 x 100 cells; a
    malformed section, or a cell count that is not an integer, raises ConfigError.
    """
    try:
        r = StudyRegion(
            config_entry(doc, "region.xmin", 0.0, float),
            config_entry(doc, "region.xmax", 100.0, float),
            config_entry(doc, "region.ymin", 0.0, float),
            config_entry(doc, "region.ymax", 100.0, float),
        )
        nx = config_entry(doc, "grid.nx", 100, int)
        return build_grid(r, nx, config_entry(doc, "grid.ny", 100, int))
    except ValueError as exc:
        raise ConfigError(f"bad region or grid: {exc}") from exc


def _axis_index(coord: np.ndarray, lo: float, step: float, n: int) -> np.ndarray:
    # ceil(t/step) - 1 sends interior boundary points to the lower-index cell;
    # clipping keeps the region's own edges in the first/last cell.
    idx = np.ceil((coord - lo) / step).astype(np.int64) - 1
    return np.clip(idx, 0, n - 1)


def cells_xy(grid: Grid, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column and row of the cell holding each point.

    Points outside the closed region raise OutOfDomainError, naming the
    first such point; a NaN or infinite coordinate is named as such.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    r = grid.region
    inside = r.contains(xs, ys)
    if not np.all(inside):
        i = int(np.argmin(inside))
        x, y = float(xs.flat[i]), float(ys.flat[i])
        where = "outside region" if np.isfinite([x, y]).all() else "has a non-finite coordinate"
        raise OutOfDomainError(f"point ({x}, {y}) {where}")
    return _axis_index(xs, r.xmin, grid.dx, grid.nx), _axis_index(ys, r.ymin, grid.dy, grid.ny)


def cells_of(grid: Grid, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Flat index of the cell holding each point.

    Interior cell edges belong to the lower-index cell, so the cells
    partition the region with no point claimed twice; the region's own
    edges stay in its first and last cells. Points outside the closed
    region raise OutOfDomainError.
    """
    ix, iy = cells_xy(grid, xs, ys)
    return iy * grid.nx + ix


@dataclass
class Raster:
    """Per-cell values on a grid; NaN marks a missing cell."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape == (self.grid.ncells,):
            v = v.reshape(self.grid.ny, self.grid.nx)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        self.values = v

    @property
    def flat(self) -> np.ndarray:
        """Flat view in cell-index order."""
        return self.values.reshape(-1)

    def copy(self) -> "Raster":
        return Raster(self.grid, self.values.copy())


def constant_raster(grid: Grid, value: float) -> Raster:
    return Raster(grid, np.full((grid.ny, grid.nx), float(value)))


def raster_from_function(grid: Grid, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Raster:
    """Evaluate ``fn(X, Y)`` at all cell centers."""
    X, Y = grid.center_arrays()
    return Raster(grid, np.asarray(fn(X, Y), dtype=float))
