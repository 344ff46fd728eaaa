"""Effort accumulation and overlap correction."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effortud import effort
from effortud.effort import (
    overlap_corrected_effort,
    path_integral_effort,
    trip_grouped_effort,
)
from effortud.encounters import detection_kernel, miss_probability
from effortud.errors import OutOfDomainError
from effortud.geometry import StudyRegion, build_grid, cells_xy
from effortud.movement import Trajectory

REGION = StudyRegion(0.0, 100.0, 0.0, 100.0)


def static_track(x, y, n_steps):
    return Trajectory(positions=np.tile([float(x), float(y)], (n_steps, 1)))


def brute_force_weight(grid, x, y, radius, mode):
    """Field-of-view weight of one position at every cell center."""
    X, Y = grid.center_arrays()
    d = np.hypot(X - x, Y - y)
    if mode == "indicator":
        return (d <= radius).astype(float)
    return np.clip(1.0 - d / radius, 0.0, 1.0)


def brute_force_effort(tracks, grid, radius, mode):
    """Independent per-step recount over every cell center."""
    acc = np.zeros((grid.ny, grid.nx))
    for t in tracks:
        for x, y in t.positions:
            acc += brute_force_weight(grid, x, y, radius, mode)
    return acc


def brute_force_overlap(tracks, grid, radius, mode):
    """Independent per-step 1 - prod(1 - p) over the observers at each cell center."""
    acc = np.zeros((grid.ny, grid.nx))
    for s in range(max(len(t) for t in tracks)):
        miss = np.ones((grid.ny, grid.nx))
        for t in tracks:
            if len(t) > s:
                miss *= 1.0 - brute_force_weight(grid, *t.positions[s], radius, mode)
        acc += 1.0 - miss
    return acc


def _coordinate(lo, hi, n):
    """A coordinate in [lo, hi]: on a cell edge (region boundary included) or anywhere."""
    edge = st.integers(0, n).map(lambda k: lo + (hi - lo) * k / n)
    anywhere = st.floats(0.0, 1.0).map(lambda f: lo + (hi - lo) * f)
    return st.one_of(edge, anywhere).map(lambda v: min(max(v, lo), hi))


@st.composite
def small_grids(draw):
    """Off-origin region, non-square cells, several radii."""
    x0 = draw(st.floats(-50.0, 50.0))
    y0 = draw(st.floats(-50.0, 50.0))
    region = StudyRegion(x0, x0 + draw(st.floats(0.5, 40.0)), y0, y0 + draw(st.floats(0.5, 40.0)))
    g = build_grid(region, draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    cells = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 3.0)))
    return g, cells * draw(st.sampled_from([g.dx, g.dy]))


@st.composite
def effort_cases(draw):
    """A small grid with ragged step-aligned tracks."""
    g, radius = draw(small_grids())
    region = g.region
    xs = _coordinate(region.xmin, region.xmax, g.nx)
    ys = _coordinate(region.ymin, region.ymax, g.ny)
    n_obs = draw(st.integers(1, 3))
    tracks = [
        Trajectory(positions=draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=5)))
        for _ in range(n_obs)
    ]
    mode = draw(st.sampled_from(["indicator", "detection"]))
    return g, tracks, radius, mode


def _decided_cells(tracks, grid, radius, mode):
    """Cells not within rounding of an indicator window's rim, where either side may win."""
    if mode == "detection":
        return np.ones((grid.ny, grid.nx), dtype=bool)
    X, Y = grid.center_arrays()
    rim = np.zeros((grid.ny, grid.nx), dtype=bool)
    for t in tracks:
        for x, y in t.positions:
            rim |= np.abs(np.hypot(X - x, Y - y) - radius) <= 1e-9 * (1.0 + radius)
    return ~rim


def compacting_stencil(grid, xs, ys, radius, mode, base=0, miss=False):
    """The stencil before the padded frame: compacted ``(flat cell + base, weight)`` chunks.

    Positions run in groups of ``effort._POSITION_CHUNK // (2 iw + 1)``; a
    group yields one chunk per stencil row that one of its positions
    reaches on the grid, keeping only the in-grid entries of positive
    weight, in position then column order. The reference summation order.
    ``miss`` yields those entries' miss probabilities in place of weights.
    """
    kernel = {"indicator": "uniform", "detection": "linear-decay"}[mode]
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    iw, jw = int(np.floor(radius / dx + 0.5)), int(np.floor(radius / dy + 0.5))
    di = np.arange(-iw, iw + 1)
    djs = np.arange(-jw, jw + 1)
    r2 = radius * radius
    step = max(1, effort._POSITION_CHUNK // len(di))
    bases = np.broadcast_to(base, np.shape(xs))
    for p in range(0, len(xs), step):
        gx, gy = xs[p : p + step], ys[p : p + step]
        ix, iy = cells_xy(grid, gx, gy)
        fx = (gx - grid.region.xmin) / dx - ix - 0.5
        fy = (gy - grid.region.ymin) / dy - iy - 0.5
        origin = bases[p : p + step] + iy * nx + ix
        d2ys = (djs[:, None] - fy) * dy
        d2ys *= d2ys
        keeps = (d2ys <= r2) & ((iy + djs[:, None]).view(np.uint64) < ny)
        for dj, keep, d2y in zip(djs.tolist(), keeps, d2ys):
            if not keep.any():
                continue
            kd2y = d2y[keep]
            h = min(iw, int(np.sqrt(max(r2 - kd2y.min(), 0.0)) / dx + 1.5))
            dr = di[iw - h : iw + h + 1]
            d = dr[None, :] - fx[keep][:, None]
            d *= dx
            d *= d
            d += kd2y[:, None]
            dist = np.sqrt(d, out=d)
            w = detection_kernel(dist, radius, kernel)
            tx = ix[keep][:, None] + dr[None, :]
            valid = np.flatnonzero((tx.view(np.uint64) < nx) & (w > 0))
            keys = np.add(origin[keep][:, None], (dj * nx + dr)[None, :], out=tx).ravel()
            if miss:
                w = miss_probability(dist, radius, kernel)
            yield keys.take(valid), w.ravel().take(valid)


def compacting_path_integral(tracks, grid, radius, mode, cell_order=True):
    """Summed effort as one full-grid ``bincount`` per compacted chunk: the reference order.

    The positions run in cell order (a stable sort by row-major cell
    index); ``cell_order=False`` keeps the track order it replaced.
    """
    acc = np.zeros(grid.ncells)
    xs = np.concatenate([t.positions[:, 0] for t in tracks])
    ys = np.concatenate([t.positions[:, 1] for t in tracks])
    if cell_order:
        ix, iy = cells_xy(grid, xs, ys)
        order = np.argsort(iy * grid.nx + ix, kind="stable")
        xs, ys = xs[order], ys[order]
    for flat, w in compacting_stencil(grid, xs, ys, radius, mode):
        acc += np.bincount(flat, weights=w, minlength=acc.size)
    return acc.reshape(grid.ny, grid.nx)


def per_step_overlap(tracks, grid, radius, mode, row_sums=False):
    """The overlap correction one synchronized step at a time: the reference summation order.

    Each step adds its compacted entries' log miss probabilities to its
    cells with ``np.add.at``, in stencil order. ``row_sums`` replays the
    form before that: each chunk's log1p(-p) summed on its own by
    ``np.bincount``, then added.
    """
    n_steps = max(len(t) for t in tracks)
    acc = np.zeros(grid.ncells)
    for s in range(n_steps):
        xs = np.array([t.positions[s, 0] for t in tracks if len(t) > s])
        ys = np.array([t.positions[s, 1] for t in tracks if len(t) > s])
        # log(1 - p), the log miss probability, per cell, summed over the observers covering it
        step_acc = np.zeros(grid.ncells)
        for flat, w in compacting_stencil(grid, xs, ys, radius, mode, miss=not row_sums):
            with np.errstate(divide="ignore"):
                if row_sums:
                    step_acc += np.bincount(flat, weights=np.log1p(-w), minlength=step_acc.size)
                else:
                    np.add.at(step_acc, flat, np.log(w))
        touched = np.nonzero(step_acc)[0]
        acc[touched] += -np.expm1(step_acc[touched])
    return acc.reshape(grid.ny, grid.nx)


def assert_overlap_matches_per_step(got, tracks, grid, radius, mode):
    """Bytes equal to the per-step reference; within 1e-12 of the row-sum order it replaced."""
    assert got.tobytes() == per_step_overlap(tracks, grid, radius, mode).tobytes()
    old = per_step_overlap(tracks, grid, radius, mode, row_sums=True)
    assert np.allclose(got, old, rtol=1e-12, atol=0.0)


@st.composite
def ragged_track_sets(draw):
    """Ragged tracks on a small grid, with positions on cell edges and region corners.

    Radii up to 15 cells make stencils far wider than the grid, whose
    margins the frame caps; a smaller chunk size splits the positions into
    more groups, sized by the full stencil width.
    """
    g, radius = draw(small_grids())
    radius *= draw(st.sampled_from([1.0, 5.0]))
    r = g.region
    corner = st.sampled_from([(x, y) for x in (r.xmin, r.xmax) for y in (r.ymin, r.ymax)])
    inside = st.tuples(_coordinate(r.xmin, r.xmax, g.nx), _coordinate(r.ymin, r.ymax, g.ny))
    points = st.lists(st.one_of(corner, inside), min_size=1, max_size=12)
    tracks = [Trajectory(positions=draw(points)) for _ in range(draw(st.integers(1, 4)))]
    mode = draw(st.sampled_from(["indicator", "detection"]))
    chunk = draw(st.sampled_from([effort._POSITION_CHUNK, 1000, 64]))
    return g, tracks, radius, mode, chunk


@st.composite
def synchronized_trips(draw):
    """One trip's ragged step-aligned tracks, some observers sharing a cell row each step.

    Half the cases use the 100 x 100 grid with 7 to 20 steps. Tracks 0 and 1
    start in the bottom and top rows, so the trip's fields of view reach
    every row and its steps run in blocks of 6. The other half use small
    off-origin grids. Other tracks may follow track 0 on its cell row, on
    its very position, or under a cell off it, on its row or the next:
    three or more observers then cover the same cells with distinct
    weights, from one stencil row and from another, so a change in the
    order of a cell's sum shows. A smaller chunk size splits blocks and
    stencil rows further.
    """
    big = draw(st.booleans())
    if big:
        g = build_grid(REGION, 100, 100)
        radius = draw(st.sampled_from([2.5, 10.0, 10.5, 25.0]))
        n_steps = draw(st.integers(7, 20))
    else:
        g, radius = draw(small_grids())
        n_steps = draw(st.integers(1, 8))
    n_obs = draw(st.integers(2 if big else 1, 6))
    lengths = [n_steps] + [draw(st.integers(1, n_steps)) for _ in range(n_obs - 1)]
    xs = _coordinate(g.region.xmin, g.region.xmax, g.nx)
    ys = _coordinate(g.region.ymin, g.region.ymax, g.ny)
    paths = [draw(st.lists(st.tuples(xs, ys), min_size=n, max_size=n)) for n in lengths]
    if big:
        paths[0][0] = (paths[0][0][0], 0.5)
        paths[1][0] = (paths[1][0][0], 99.5)
    r = g.region
    for path in paths[1:]:
        follow = draw(st.sampled_from(["free", "row", "same", "near"]))
        ox = draw(st.floats(-1.0, 1.0)) * g.dx
        oy = draw(st.sampled_from([0.0, 0.5, -0.5])) * g.dy
        for s in range(len(path)):
            x0, y0 = paths[0][s]
            if follow == "row":
                path[s] = (path[s][0], y0)
            elif follow == "same":
                path[s] = (x0, y0)
            elif follow == "near":
                path[s] = (min(max(x0 + ox, r.xmin), r.xmax), min(max(y0 + oy, r.ymin), r.ymax))
    tracks = [Trajectory(positions=path) for path in paths]
    mode = draw(st.sampled_from(["indicator", "detection"]))
    chunk = draw(st.sampled_from([effort._POSITION_CHUNK, 1000, 64]))
    return g, tracks, radius, mode, chunk


class TestPathIntegralEffort:
    def test_contained_static_observer(self):
        g = build_grid(REGION, 100, 100)
        tr = static_track(50.5, 50.5, 10)  # exactly at a cell center
        f = path_integral_effort([tr], g, 0.4, mode="indicator")
        assert f.values[50, 50] == pytest.approx(10.0)
        assert f.values.sum() == pytest.approx(10.0)

    def test_additivity_of_disjoint_observers(self):
        g = build_grid(REGION, 100, 100)
        a = static_track(20.0, 20.0, 10)
        b = static_track(80.0, 80.0, 10)
        fa = path_integral_effort([a], g, 10.0, mode="detection")
        fb = path_integral_effort([b], g, 10.0, mode="detection")
        fab = path_integral_effort([a, b], g, 10.0, mode="detection")
        assert np.allclose(fab.values, fa.values + fb.values, rtol=1e-12)

    @pytest.mark.parametrize("mode", ["indicator", "detection"])
    def test_against_brute_force(self, mode):
        g = build_grid(REGION, 40, 40)
        rng = np.random.default_rng(19)
        tracks = [
            Trajectory(positions=rng.uniform(5, 95, size=(30, 2)))
            for _ in range(2)
        ]
        fast = path_integral_effort(tracks, g, 10.0, mode=mode)
        slow = brute_force_effort(tracks, g, 10.0, mode)
        assert np.allclose(fast.values, slow, rtol=1e-10, atol=1e-12)

    def test_empty_tracks(self):
        g = build_grid(REGION, 10, 10)
        f = path_integral_effort([], g, 10.0, "indicator")
        assert np.all(f.values == 0.0)

    def test_bad_range(self):
        g = build_grid(REGION, 10, 10)
        with pytest.raises(ValueError):
            path_integral_effort([static_track(5, 5, 1)], g, 0.0, "indicator")

    @pytest.mark.parametrize("kernel", [path_integral_effort, overlap_corrected_effort])
    @pytest.mark.parametrize("radius", [-1.0, float("nan"), float("inf")])
    def test_non_finite_or_negative_range(self, kernel, radius):
        g = build_grid(REGION, 10, 10)
        with pytest.raises(ValueError, match="detection_range must be finite and positive"):
            kernel([static_track(5, 5, 1)], g, radius, "detection")

    def test_position_outside_region(self):
        g = build_grid(REGION, 10, 10)
        tr = Trajectory(positions=np.array([[50.0, 101.0]]))
        with pytest.raises(OutOfDomainError):
            path_integral_effort([tr], g, 10.0, "indicator")


class TestOverlapCorrectedEffort:
    def test_two_half_probability_observers(self):
        # each observer sits 5 units west of the probed center: p = 0.5
        g = build_grid(REGION, 100, 100)
        t1 = static_track(45.5, 50.5, 1)
        t2 = static_track(45.5, 50.5, 1)
        f = overlap_corrected_effort([t1, t2], g, 10.0, "detection")
        assert f.values[50, 50] == pytest.approx(1.0 - 0.5 * 0.5, rel=1e-12)

    def test_single_observer_equals_plain_detection(self):
        g = build_grid(REGION, 50, 50)
        rng = np.random.default_rng(23)
        tr = Trajectory(positions=rng.uniform(10, 90, size=(25, 2)))
        plain = path_integral_effort([tr], g, 10.0, mode="detection")
        corr = overlap_corrected_effort([tr], g, 10.0, "detection")
        assert np.allclose(corr.values, plain.values, rtol=1e-9, atol=1e-12)

    def test_twenty_colocated_observers(self):
        # p = 0.1 per observer at 9 units: joint coverage 1 - 0.9^20
        g = build_grid(REGION, 100, 100)
        tracks = [static_track(41.5, 50.5, 1) for _ in range(20)]
        f = overlap_corrected_effort(tracks, g, 10.0, "detection")
        assert f.values[50, 50] == pytest.approx(0.8784233454094307, rel=1e-10)

    def test_never_exceeds_plain_sum(self):
        g = build_grid(REGION, 40, 40)
        rng = np.random.default_rng(29)
        tracks = [
            Trajectory(positions=rng.uniform(20, 80, size=(15, 2)))
            for _ in range(4)
        ]
        plain = path_integral_effort(tracks, g, 15.0, mode="detection")
        corr = overlap_corrected_effort(tracks, g, 15.0, "detection")
        assert np.all(corr.values <= plain.values + 1e-9)

    def test_equality_when_coverage_disjoint(self):
        g = build_grid(REGION, 100, 100)
        tracks = [static_track(20.0, 20.0, 3), static_track(80.0, 80.0, 3)]
        plain = path_integral_effort(tracks, g, 10.0, mode="detection")
        corr = overlap_corrected_effort(tracks, g, 10.0, "detection")
        assert np.allclose(corr.values, plain.values, rtol=1e-9, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(effort_cases())
def test_path_integral_matches_brute_force(case):
    g, tracks, radius, mode = case
    fast = path_integral_effort(tracks, g, radius, mode=mode).values
    slow = brute_force_effort(tracks, g, radius, mode)
    keep = _decided_cells(tracks, g, radius, mode)
    assert np.allclose(fast[keep], slow[keep], rtol=1e-10, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(effort_cases())
def test_overlap_matches_brute_force(case):
    g, tracks, radius, mode = case
    fast = overlap_corrected_effort(tracks, g, radius, mode=mode).values
    slow = brute_force_overlap(tracks, g, radius, mode)
    keep = _decided_cells(tracks, g, radius, mode)
    assert np.allclose(fast[keep], slow[keep], rtol=1e-10, atol=1e-12)


def clustered_trip(n_steps, chunk):
    """Four observers a cell or so apart across cell rows, each step somewhere else."""
    g = build_grid(StudyRegion(0.0, 12.0, 0.0, 12.0), 12, 12)
    where = np.random.default_rng(n_steps).uniform(4.0, 8.0, size=(n_steps, 1, 2))
    paths = where + [[0.1, 0.2], [0.7, 0.3], [-0.2, 1.4], [0.4, -0.9]]
    tracks = [Trajectory(positions=paths[:, o]) for o in range(4)]
    return g, tracks, 4.0, "detection", chunk


def crowded_trip(n_steps, n_obs):
    """Many observers with a range of 25 cells: one step's observers outgrow a
    piece of half a position chunk of stencil entries, so pieces end inside steps."""
    g = build_grid(REGION, 100, 100)
    paths = np.random.default_rng(n_obs).uniform(20.0, 80.0, size=(n_steps, n_obs, 2))
    tracks = [Trajectory(positions=paths[:, o]) for o in range(n_obs)]
    return g, tracks, 25.0, "detection", effort._POSITION_CHUNK


def climbing_groups(n_steps):
    """Six observers a step, two to a position group (range 3 and a 14-entry chunk),
    on cell rows 5, 5, 6, 6, 7, 7: a group's entries come before those of a later
    group on a higher row, and all six cover the middle cells with distinct weights."""
    g = build_grid(StudyRegion(0.0, 12.0, 0.0, 12.0), 12, 12)
    rise = [[0.0, 5.3], [0.3, 5.6], [0.1, 6.4], [-0.2, 6.2], [0.2, 7.3], [-0.1, 7.6]]
    jitter = np.random.default_rng(n_steps).uniform(-0.2, 0.2, size=(n_steps, 6, 2))
    paths = [6.0, 0.0] + np.array(rise) + jitter
    tracks = [Trajectory(positions=paths[:, o]) for o in range(6)]
    return g, tracks, 3.0, "detection", 14


@settings(max_examples=120, deadline=None)
@given(synchronized_trips())
@example(clustered_trip(1, effort._POSITION_CHUNK))
@example(clustered_trip(6, 64))
@example(crowded_trip(3, 16))
@example(climbing_groups(4))
def test_overlap_bytes_match_the_per_step_loop(case):
    g, tracks, radius, mode, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(effort, "_POSITION_CHUNK", chunk)
        got = overlap_corrected_effort(tracks, g, radius, mode=mode).values
        assert_overlap_matches_per_step(got, tracks, g, radius, mode)


@settings(max_examples=80, deadline=None)
@given(synchronized_trips(), st.data())
def test_overlap_effort_is_at_most_summed_effort(case, data):
    # per step 1 - prod(1 - p) <= sum(p), with equality for one observer;
    # summed effort does not depend on the order of the tracks
    g, tracks, radius, _, chunk = case
    order = data.draw(st.permutations(range(len(tracks))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(effort, "_POSITION_CHUNK", chunk)
        for mode in ("indicator", "detection"):
            summed = path_integral_effort(tracks, g, radius, mode).values
            overlap = overlap_corrected_effort(tracks, g, radius, mode).values
            assert (overlap >= 0.0).all()
            assert (overlap <= summed * (1.0 + 1e-12)).all()
            one = tracks[:1]
            assert np.allclose(overlap_corrected_effort(one, g, radius, mode).values,
                               path_integral_effort(one, g, radius, mode).values,
                               rtol=1e-12, atol=0.0)
            permuted = path_integral_effort([tracks[o] for o in order], g, radius, mode).values
            assert np.allclose(permuted, summed, rtol=1e-12, atol=0.0)


def one_cell_crowd():
    """A dozen positions in one cell at distinct sub-cell offsets, over two tracks.

    A range of 3 cells puts 9 positions in a group of a 64-entry chunk, so a
    group boundary falls inside the crowd; the cell sort keeps list order.
    """
    g = build_grid(StudyRegion(0.0, 12.0, 0.0, 12.0), 12, 12)
    where = np.array([5.0, 6.0]) + np.random.default_rng(5).uniform(0.05, 0.95, size=(12, 2))
    tracks = [Trajectory(positions=where[:7]), Trajectory(positions=where[7:])]
    return g, tracks, 3.0, "detection", 64


def row_run():
    """Positions along one grid row, two or three a cell, one track each way along it.

    The cell sort interleaves the tracks, and with a 64-entry chunk group
    boundaries fall inside the run.
    """
    g = build_grid(StudyRegion(0.0, 12.0, 0.0, 12.0), 12, 12)
    xs = np.linspace(0.3, 11.6, 17)
    east = Trajectory(positions=np.column_stack([xs, np.full(17, 6.4)]))
    west = Trajectory(positions=np.column_stack([xs[::-1] + 0.2, np.full(17, 6.7)]))
    return g, [east, west], 3.0, "detection", 64


@settings(max_examples=150, deadline=None)
@given(ragged_track_sets())
@example(one_cell_crowd())
@example(row_run())
def test_path_integral_bytes_match_the_compacting_loop(case):
    # zero weights and entries on the padded frame's margins add nothing:
    # every byte equals the compacting stencil's full-grid bincount over the
    # same cell-ordered positions, and the track order differs by rounding
    g, tracks, radius, mode, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(effort, "_POSITION_CHUNK", chunk)
        got = path_integral_effort(tracks, g, radius, mode=mode).values
        want = compacting_path_integral(tracks, g, radius, mode)
        old = compacting_path_integral(tracks, g, radius, mode, cell_order=False)
    assert got.tobytes() == want.tobytes()
    assert np.allclose(got, old, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", ["indicator", "detection"])
def test_range_far_wider_than_the_grid(mode):
    # a range of 500 cells over a 3 x 2 grid: the frame's margins stop at
    # the grid's own size, so the frame holds at most 9 grids
    g = build_grid(StudyRegion(0.0, 3.0, 0.0, 2.0), 3, 2)
    radius = 500.0
    _, mi, mj, width = effort._frame(g, radius)
    assert (mi, mj) == (2, 1)
    assert width * (g.ny + 2 * mj) <= 9 * g.ncells
    rng = np.random.default_rng(41)
    corners = [[0.0, 0.0], [3.0, 2.0]]
    tracks = [
        Trajectory(positions=np.vstack([corners, rng.uniform((0, 0), (3, 2), (n, 2))]))
        for n in (6, 2, 4)
    ]
    fast = path_integral_effort(tracks, g, radius, mode=mode).values
    assert np.allclose(fast, brute_force_effort(tracks, g, radius, mode), rtol=1e-12, atol=0.0)
    fast = overlap_corrected_effort(tracks, g, radius, mode=mode).values
    assert np.allclose(fast, brute_force_overlap(tracks, g, radius, mode), rtol=1e-12, atol=0.0)


def test_overlap_bytes_when_chunks_end_inside_a_step(monkeypatch):
    # grids one or two rows high hold several steps per block; a 64-entry
    # chunk then holds fewer positions than a block, and a row's chunk may
    # end between two observers of one step unless blocks shrink to fit
    monkeypatch.setattr(effort, "_POSITION_CHUNK", 64)
    rng = np.random.default_rng(7)
    for _ in range(400):
        nx, ny = int(rng.integers(3, 10)), int(rng.integers(1, 3))
        g = build_grid(StudyRegion(0.0, nx, 0.0, ny), nx, ny)
        n_steps = int(rng.integers(2, 9))
        tracks = [
            Trajectory(positions=rng.uniform((0, 0), (nx, ny), size=(n_steps, 2)))
            for _ in range(int(rng.integers(2, 7)))
        ]
        radius = rng.uniform(1.5, 3.5)
        got = overlap_corrected_effort(tracks, g, radius, mode="detection").values
        assert_overlap_matches_per_step(got, tracks, g, radius, "detection")


@st.composite
def trip_sets(draw):
    """Several trips' ragged step-aligned tracks on one grid, and a chunk size.

    Trips are often one step long, and a trip may keep its observers on one
    cell row, so trips' keys span different frame rows. A 64-entry chunk
    puts every slot in a block of its own, and a step of more than one
    observer past a block's position budget; at the default chunk a block
    holds several slots and may end between trips. A trip may have no tracks.
    """
    big = draw(st.booleans())
    if big:
        g = build_grid(REGION, 100, 100)
        radius = draw(st.sampled_from([2.5, 10.0, 25.0]))
    else:
        g, radius = draw(small_grids())
    xs = _coordinate(g.region.xmin, g.region.xmax, g.nx)
    ys = _coordinate(g.region.ymin, g.region.ymax, g.ny)
    trips = []
    for _ in range(draw(st.integers(1, 6))):
        n_steps = draw(st.sampled_from([1, 1, 2, 5]))
        lengths = [n_steps] + [draw(st.integers(1, n_steps)) for _ in range(draw(st.integers(0, 5)))]
        row = draw(st.one_of(st.none(), ys))
        paths = [draw(st.lists(st.tuples(xs, ys if row is None else st.just(row)),
                               min_size=n, max_size=n)) for n in lengths]
        trips.append([Trajectory(positions=path) for path in paths] if draw(st.integers(0, 9)) else [])
    mode = draw(st.sampled_from(["indicator", "detection"]))
    chunk = draw(st.sampled_from([effort._POSITION_CHUNK, 64]))
    return g, trips, radius, mode, chunk


def one_step_trips(n_trips, chunk):
    """Pairs of observers, one step a trip, each trip on its own cell rows."""
    g = build_grid(StudyRegion(0.0, 12.0, 0.0, 12.0), 12, 12)
    where = np.random.default_rng(n_trips).uniform(0.0, 12.0, size=(n_trips, 2, 1, 2))
    return g, [[Trajectory(positions=p) for p in trip] for trip in where], 2.5, "detection", chunk


def crowded_trips():
    """Twenty observers a step at range 10 on the 100 x 100 grid: a block holds three
    steps at the default chunk, so blocks end inside trips of two to four steps and
    between them."""
    g = build_grid(REGION, 100, 100)
    rng = np.random.default_rng(3)
    trips = [[Trajectory(positions=p) for p in rng.uniform(5.0, 95.0, size=(20, n, 2))]
             for n in (2, 4, 3, 2, 1, 4)]
    return g, trips, 10.0, "detection", effort._POSITION_CHUNK


@settings(max_examples=120, deadline=None)
@given(trip_sets())
@example(crowded_trips())
@example(one_step_trips(30, effort._POSITION_CHUNK))
@example(one_step_trips(5, 64))
@example((*crowded_trip(3, 16)[:1], [crowded_trip(3, 16)[1], crowded_trip(2, 9)[1]],
          25.0, "detection", 64))
def test_trip_grouped_overlap_bytes_match_per_trip_calls(case):
    # one pass over every trip's steps gives the bytes of the one-trip fields
    # added in trip order
    g, trips, radius, mode, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(effort, "_POSITION_CHUNK", chunk)
        got = trip_grouped_effort(dict(enumerate(trips)), g, radius, mode, overlap=True).values
        want = np.zeros((g.ny, g.nx))
        for tracks in trips:
            want += overlap_corrected_effort(tracks, g, radius, mode).values
    assert got.tobytes() == want.tobytes()


class TestTripGroupedEffort:
    def test_sums_over_trips(self):
        g = build_grid(REGION, 30, 30)
        rng = np.random.default_rng(31)
        trips = {
            k: [
                Trajectory(positions=rng.uniform(10, 90, size=(n, 2)))
                for n in rng.integers(1, 15, size=k + 1)
            ]
            for k in range(4)
        }
        total = trip_grouped_effort(trips, g, 10.0, mode="detection")
        parts = [
            path_integral_effort(tracks, g, 10.0, mode="detection")
            for tracks in trips.values()
        ]
        assert np.allclose(total.values, sum(p.values for p in parts), rtol=1e-12)

    def test_summed_effort_is_one_pass(self, monkeypatch):
        g = build_grid(REGION, 10, 10)
        trips = {k: [static_track(10.0 * k, 50.0, k + 1)] for k in range(5)}
        calls = []
        kernel = effort.path_integral_effort

        def counted(tracks, *args, **kwargs):
            calls.append(len(tracks))
            return kernel(tracks, *args, **kwargs)

        monkeypatch.setattr(effort, "path_integral_effort", counted)
        trip_grouped_effort(trips, g, 10.0, mode="detection")
        assert calls == [5]

    def test_overlap_applied_within_trip(self):
        g = build_grid(REGION, 100, 100)
        trips = {0: [static_track(45.5, 50.5, 1), static_track(45.5, 50.5, 1)]}
        f = trip_grouped_effort(trips, g, 10.0, mode="detection", overlap=True)
        assert f.values[50, 50] == pytest.approx(0.75, rel=1e-12)
