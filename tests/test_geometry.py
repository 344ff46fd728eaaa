"""Grid construction, point-to-cell mapping, and raster file formats."""

import csv
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effortud import raster_io
from effortud.errors import OutOfDomainError
from effortud.geometry import (
    Grid,
    Raster,
    StudyRegion,
    build_grid,
    cells_of,
    constant_raster,
    raster_from_function,
)
from effortud.raster_io import (
    read_ascii_grid,
    read_raster_csv,
    write_ascii_grid,
    write_raster_csv,
)

UNIT_SQUARE = StudyRegion(0.0, 1.0, 0.0, 1.0)
BIG_SQUARE = StudyRegion(0.0, 100.0, 0.0, 100.0)


class TestBuildGrid:
    def test_study_grid(self):
        g = build_grid(BIG_SQUARE, 100, 100)
        assert g.ncells == 10000
        assert g.cell_area == pytest.approx(1.0)

    def test_single_cell(self):
        g = build_grid(UNIT_SQUARE, 1, 1)
        assert g.ncells == 1
        assert g.cell_area == pytest.approx(1.0)

    def test_two_cells(self):
        g = build_grid(StudyRegion(0, 2, 0, 1), 2, 1)
        assert g.ncells == 2
        assert g.cell_area == pytest.approx(1.0)

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            build_grid(UNIT_SQUARE, 0, 1)
        with pytest.raises(ValueError):
            build_grid(UNIT_SQUARE, 1, -3)

    def test_degenerate_region_rejected(self):
        with pytest.raises(ValueError):
            StudyRegion(0, 0, 0, 1)
        with pytest.raises(ValueError):
            StudyRegion(0, 1, 2, 1)
        for bad in (float("inf"), float("-inf"), float("nan")):
            for bounds in ([0, bad, 0, 1], [bad, 1, 0, 1], [0, 1, 0, bad], [0, 1, bad, 1]):
                with pytest.raises(ValueError):
                    StudyRegion(*bounds)
        with pytest.raises(ValueError):  # finite bounds, infinite width
            StudyRegion(-1e308, 1e308, 0, 1)

    def test_cell_areas_sum_to_region_area(self):
        g = build_grid(StudyRegion(-3.5, 12.25, 2.0, 9.75), 7, 13)
        assert g.cell_area * g.ncells == pytest.approx(g.region.area, rel=1e-12)


def _cell(grid, x, y):
    """The flat index of the one cell holding (x, y)."""
    return int(cells_of(grid, np.array([x]), np.array([y]))[0])


class TestCellOf:
    def setup_method(self):
        self.g = build_grid(BIG_SQUARE, 100, 100)

    def test_corner_cells(self):
        nx = self.g.nx
        i, j = _cell(self.g, 0.5, 0.5), _cell(self.g, 99.9, 99.9)
        assert (i % nx, i // nx) == (0, 0)
        assert (j % nx, j // nx) == (99, 99)

    def test_boundary_goes_to_lower_cell(self):
        # interior cell edges belong to the lower-index neighbor
        g2 = build_grid(BIG_SQUARE, 2, 2)
        assert _cell(g2, 50.0, 50.0) == 0
        assert _cell(self.g, 50.0, 50.0) == 4949

    def test_region_edges_stay_inside(self):
        assert _cell(self.g, 0.0, 0.0) == 0
        assert _cell(self.g, 100.0, 100.0) == 9999

    def test_outside_raises(self):
        with pytest.raises(OutOfDomainError):
            _cell(self.g, -0.01, 50.0)
        with pytest.raises(OutOfDomainError):
            _cell(self.g, 3.0, 100.5)

    def test_partition_property(self):
        # every uniform point lands in a cell whose center is nearby
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 100, size=10000)
        ys = rng.uniform(0, 100, size=10000)
        idx = cells_of(self.g, xs, ys)
        half_diag = 0.5 * np.hypot(self.g.dx, self.g.dy)
        X, Y = self.g.center_arrays()
        for i in range(0, 10000, 97):
            cx, cy = X.flat[idx[i]], Y.flat[idx[i]]
            assert np.hypot(cx - xs[i], cy - ys[i]) <= half_diag + 1e-12


class TestRegionContains:
    def test_elementwise_on_arrays(self):
        xs = np.array([0.0, 100.0, -1e-9, 50.0, np.nan])
        ys = np.array([50.0, 100.0, 50.0, 100.0 + 1e-9, 50.0])
        want = [True, True, False, False, False]
        assert BIG_SQUARE.contains(xs, ys).tolist() == want
        assert [bool(BIG_SQUARE.contains(x, y)) for x, y in zip(xs, ys)] == want

    def test_cells_of_refuses_what_contains_refuses(self):
        g = build_grid(BIG_SQUARE, 10, 10)
        with pytest.raises(OutOfDomainError):
            cells_of(g, np.array([50.0, np.nan]), np.array([50.0, 50.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_coordinate_named_as_such(self, bad, axis):
        # a NaN or infinite coordinate is refused with its own message, not
        # reported as a point outside the region
        g = build_grid(BIG_SQUARE, 10, 10)
        xs, ys = np.array([50.0, 80.0]), np.array([50.0, 80.0])
        (xs if axis == "x" else ys)[1] = bad
        with pytest.raises(OutOfDomainError, match="has a non-finite coordinate") as info:
            cells_of(g, xs, ys)
        assert "outside region" not in str(info.value)

    def test_first_bad_point_is_named(self):
        g = build_grid(BIG_SQUARE, 10, 10)
        with pytest.raises(OutOfDomainError, match=r"point \(101\.0, 5\.0\) outside region"):
            cells_of(g, np.array([101.0, np.nan]), np.array([5.0, 5.0]))


class TestRasterLookup:
    def test_raster_shape_checked(self):
        g = build_grid(UNIT_SQUARE, 3, 2)
        with pytest.raises(ValueError):
            Raster(g, np.zeros((2, 2)))
        # flat input of the right length is accepted and reshaped
        r = Raster(g, np.arange(6.0))
        assert r.values.shape == (2, 3)


class TestRasterFromFunction:
    def test_coordinates_passed_as_centers(self):
        g = build_grid(StudyRegion(0, 4, 0, 2), 4, 2)
        r = raster_from_function(g, lambda X, Y: X + 10 * Y)
        assert r.values[0, 0] == pytest.approx(0.5 + 10 * 0.5)
        assert r.values[1, 3] == pytest.approx(3.5 + 10 * 1.5)


def csv_writer_reference(raster, path):
    """The raster CSV as ``csv.writer`` writes it, one call per cell."""
    grid = raster.grid
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "value"])
        for iy, y in enumerate(grid.y_centers()):
            for ix, x in enumerate(grid.x_centers()):
                w.writerow(["%.17g" % x, "%.17g" % y, "%.17g" % raster.values[iy, ix]])


def ascii_writer_reference(raster, path):
    """The ASCII grid with one ``%.17g`` call per value, joined row by row; cells must be square."""
    grid = raster.grid
    vals = np.where(np.isnan(raster.values), -9999.0, raster.values)
    with open(path, "w") as fh:
        fh.write(f"NCOLS {grid.nx}\nNROWS {grid.ny}\n")
        for key, v in (("XLLCORNER", grid.region.xmin), ("YLLCORNER", grid.region.ymin),
                       ("CELLSIZE", grid.dx), ("NODATA_VALUE", -9999.0)):
            fh.write(f"{key} {'%.17g' % v}\n")
        for iy in range(grid.ny - 1, -1, -1):
            fh.write(" ".join("%.17g" % v for v in vals[iy]) + "\n")


class TestRasterFiles:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 6), (6, 1), (5, 4)])
    def test_csv_bytes_match_csv_writer(self, tmp_path, nx, ny):
        g = build_grid(StudyRegion(-2.5, 7.25, 1e5, 1e5 + 3.0), nx, ny)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.0, -1.5e300, 1.0 / 3.0]
        rng = np.random.default_rng(nx * 10 + ny)
        for k in range(len(special)):
            # every special value lands in some cell, also on a 1 x 1 grid
            values = rng.normal(size=(ny, nx)) * 1e3
            n = min(g.ncells, len(special))
            values.flat[:n] = np.roll(special, -k)[:n]
            raster = Raster(g, values)
            write_raster_csv(raster, tmp_path / "got.csv")
            csv_writer_reference(raster, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 6), (6, 1), (5, 4)])
    def test_ascii_bytes_match_the_per_value_join(self, tmp_path, nx, ny):
        g = build_grid(StudyRegion(-2.5, -2.5 + 0.75 * nx, 1e5, 1e5 + 0.75 * ny), nx, ny)
        special = [np.nan, -0.0, 5e-324, 1e308, np.inf, 0.0, -1.5e300, 1.0 / 3.0]
        rng = np.random.default_rng(nx * 10 + ny)
        for k in range(len(special)):
            values = rng.normal(size=(ny, nx)) * 1e3
            n = min(g.ncells, len(special))
            values.flat[:n] = np.roll(special, -k)[:n]
            raster = Raster(g, values)
            write_ascii_grid(raster, tmp_path / "got.asc")
            ascii_writer_reference(raster, tmp_path / "want.asc")
            assert (tmp_path / "got.asc").read_bytes() == (tmp_path / "want.asc").read_bytes()

    def _random_raster(self):
        g = build_grid(StudyRegion(-2.0, 6.0, 1.0, 9.0), 8, 8)
        rng = np.random.default_rng(12)
        return Raster(g, rng.normal(size=(8, 8)) * 1e3)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        r = self._random_raster()
        p = tmp_path / "r.csv"
        write_raster_csv(r, p)
        back = read_raster_csv(p)
        assert back.grid == r.grid
        assert np.array_equal(back.values, r.values)

    def test_ascii_round_trip_bit_exact(self, tmp_path):
        r = self._random_raster()
        p = tmp_path / "r.asc"
        write_ascii_grid(r, p)
        back = read_ascii_grid(p)
        assert back.grid.nx == r.grid.nx and back.grid.ny == r.grid.ny
        assert back.grid.region.xmin == pytest.approx(r.grid.region.xmin)
        assert np.array_equal(back.values, r.values)

    def test_ascii_nodata_becomes_nan(self, tmp_path):
        g = build_grid(UNIT_SQUARE, 2, 2)
        r = Raster(g, np.array([[1.0, np.nan], [2.0, 3.0]]))
        p = tmp_path / "r.asc"
        write_ascii_grid(r, p)
        back = read_ascii_grid(p)
        assert np.isnan(back.values[0, 1])
        assert back.values[1, 0] == 2.0

    def test_ascii_requires_square_cells(self, tmp_path):
        g = build_grid(StudyRegion(0, 4, 0, 2), 4, 2)  # dx 1, dy 1 -> fine
        write_ascii_grid(constant_raster(g, 1.0), tmp_path / "ok.asc")
        g2 = build_grid(StudyRegion(0, 4, 0, 2), 4, 4)  # dx 1, dy 0.5
        with pytest.raises(ValueError):
            write_ascii_grid(constant_raster(g2, 1.0), tmp_path / "bad.asc")

    def test_ascii_accepts_cells_square_up_to_rounding(self, tmp_path):
        # dy is 0.010000000000218279 here: the region's float rounding, not a second size
        g = build_grid(StudyRegion(0.0, 0.01, 2048.0, 2048.01), 1, 1)
        write_ascii_grid(constant_raster(g, 1.0), tmp_path / "r.asc")
        back = read_ascii_grid(tmp_path / "r.asc")
        assert np.allclose(back.grid.y_centers(), g.y_centers(), rtol=0.0, atol=1e-9 * g.dy)

    def test_csv_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_raster_csv(p)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1 2\n3 abc\n", "r.asc, line 8: could not convert string to float: 'abc'"),
            ("1 2\n3\n", "r.asc, line 8: expected ncols = 2 values, got 1"),
            ("1 2\n3 4 5\n", "r.asc, line 8: expected ncols = 2 values, got 3"),
            ("1 2\n", "r.asc: expected nrows = 2 data rows, got 1"),
            ("1 2\n3 4\n5 6\n", "r.asc: expected nrows = 2 data rows, got 3"),
        ],
        ids=["not-a-number", "short-row", "long-row", "too-few-rows", "too-many-rows"],
    )
    def test_ascii_bad_data_named_with_its_line(self, tmp_path, rows, message):
        p = tmp_path / "r.asc"
        header = "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\nNODATA_VALUE -9999\n"
        p.write_text(header + rows)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_ascii_grid(p)

    def test_ascii_bad_header_value_named_with_its_line(self, tmp_path):
        p = tmp_path / "r.asc"
        p.write_text("NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER west\nCELLSIZE 1\n1 2\n")
        with pytest.raises(ValueError, match="r.asc, line 4: could not convert string to float"):
            read_ascii_grid(p)

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_csv_over_long_field_named_with_its_line(self, tmp_path, where):
        # past the csv module's field limit (131072 characters) a line cannot be split
        long = "1" * 200_000
        p = tmp_path / "long.csv"
        if where == "header":
            p.write_text(f"x,y,{long}\n")
        else:
            p.write_text(f"x,y,value\n5,5,1\n15,5,{long}\n")
        line = 1 if where == "header" else 3
        with pytest.raises(ValueError, match=f"long.csv, line {line}: field larger than field limit"):
            read_raster_csv(p)

    @pytest.mark.parametrize("cellsize, xll", [("0", "0"), ("-1", "0"), ("nan", "0"), ("inf", "0"),
                                               ("1", "nan")])
    def test_ascii_header_without_a_region_named(self, tmp_path, cellsize, xll):
        p = tmp_path / "r.asc"
        p.write_text(f"NCOLS 2\nNROWS 1\nXLLCORNER {xll}\nYLLCORNER 0\nCELLSIZE {cellsize}\n1 2\n")
        with pytest.raises(ValueError, match="r.asc: degenerate or unbounded region"):
            read_ascii_grid(p)


# tokens a raster CSV field may be mutated to: numbers Python's float() and
# np.loadtxt may read apart, blanks, quotes, comments and over-long fields
_CSV_TOKENS = [
    "1_0", " 2.5", "2.5 ", "+1", ".5", "1.", "-0", "5e-324", "1e308", "1e500", "-1e500", "nan",
    "NaN", "inf", "-Infinity", "0x10", "\uff11", "1\x0b", "1\x1c", "\xa02", "1\x00", "", "   ",
    "abc", '"1"', '"1,5"', "1 2", "1e", "#1", "5", "15", "0" * 200_000, "1" * 200_000,
]


@st.composite
def mutated_raster_csvs(draw):
    """A 3 x 2 raster CSV after up to four mutations, with \\n, \\r\\n or \\r line ends.

    A field (the header's too) becomes an odd token, a row gains or loses a
    field, is repeated or deleted, or a blank or whitespace line is added.
    """
    cells = [(x, y) for y in (5.0, 15.0) for x in (5.0, 15.0, 25.0)]
    values = np.random.default_rng(draw(st.integers(0, 9))).normal(size=len(cells))
    rows = [["x", "y", "value"]] + [[repr(x), repr(y), repr(float(v))]
                                    for (x, y), v in zip(cells, values)]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["token", "token", "extra", "drop", "blank", "space", "repeat",
                                   "delete"]))
        if op == "token" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(st.sampled_from(_CSV_TOKENS))
        elif op == "extra":
            rows[i].append(draw(st.sampled_from(_CSV_TOKENS)))
        elif op == "drop" and rows[i]:
            rows[i].pop()
        elif op in ("blank", "space"):
            rows.insert(i, [] if op == "blank" else ["   "])
        elif op == "repeat":
            rows.insert(i, list(rows[i]))
        elif op == "delete" and len(rows) > 1:
            del rows[i]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(",".join(r) for r in rows) + draw(st.sampled_from([end, ""]))


def _csv_outcome(read, path):
    try:
        r = read(path)
    except ValueError as exc:
        return str(exc)
    return r.grid, r.values.tobytes()


def _per_line_read(path):
    return raster_io._csv_raster(path, bulk=False)


@settings(max_examples=300, deadline=None)
@given(mutated_raster_csvs())
@example("x,y,value\n5,5,1\n15,5," + "1" * 200_000 + "\n")  # loadtxt reads inf, csv refuses
@example("x,y,value\n5,5,1\n\n15,5,1\n5,15,1\n15,15,inf")  # a blank line; no line end
@example("x,y,value\n5,5,1\x1c\n15,5,1\n5,15,1\n15,15,1\n")  # loadtxt strips \x1c, float refuses
def test_bulk_csv_read_matches_the_per_line_reader(tmp_path_factory, text):
    # the bulk read returns the per-line reader's bytes, or its very message
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    path.write_bytes(text.encode())
    assert _csv_outcome(read_raster_csv, path) == _csv_outcome(_per_line_read, path)
