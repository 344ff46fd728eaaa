"""Potential-driven movement: drift, stepping, sampling, analytic UD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from effortud.errors import DegenerateSpecError
from effortud.geometry import Point, StudyRegion, build_grid, cells_of
from effortud.movement import (
    _REJECTION_CAP,
    BivariateNormalPotential,
    CustomPotential,
    HalfNormalYPotential,
    MovementSpec,
    analytic_ud,
    drift,
    reflect_into,
    sample_initial,
    simulate_trajectory,
    step_positions,
)

REGION = StudyRegion(0.0, 100.0, 0.0, 100.0)
ANIMAL_POT = BivariateNormalPotential((50.0, 50.0), 100.0)
OBSERVER_POT = HalfNormalYPotential(100.0, 200.0)


def flat_potential():
    zeros = lambda a: np.zeros_like(np.asarray(a, dtype=float))  # noqa: E731
    return CustomPotential(
        lambda x, y: zeros(x), grad_fn=lambda x, y: (zeros(x), zeros(y))
    )


class TestPotentialLogDensity:
    def test_maximum_at_center(self):
        at_center = ANIMAL_POT.log_density(50, 50)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            if p != (50.0, 50.0):
                assert ANIMAL_POT.log_density(*p) < at_center

    def test_radial_symmetry(self):
        a = ANIMAL_POT.log_density(50, 60)
        b = ANIMAL_POT.log_density(60, 50)
        assert a == pytest.approx(b, abs=1e-12)

    def test_half_normal_ignores_x(self):
        a = OBSERVER_POT.log_density(10, 40)
        b = OBSERVER_POT.log_density(90, 40)
        assert a == b

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            BivariateNormalPotential((0, 0), 0.0)
        with pytest.raises(ValueError):
            HalfNormalYPotential(100.0, -1.0)


class TestDrift:
    def test_bivariate_normal_east_of_center(self):
        spec = MovementSpec(ANIMAL_POT, 2.0)
        v = drift(spec, Point(60, 50))
        assert v == pytest.approx([-0.1, 0.0], abs=1e-12)

    def test_zero_at_center(self):
        spec = MovementSpec(ANIMAL_POT, 2.0)
        assert drift(spec, Point(50, 50)) == pytest.approx([0.0, 0.0], abs=0)

    def test_half_normal_south_of_center(self):
        spec = MovementSpec(OBSERVER_POT, 2.0)
        v = drift(spec, Point(37.0, 80.0))
        assert v == pytest.approx([0.0, 0.1], abs=1e-12)

    def test_matches_finite_differences(self):
        # analytic gradient vs central differences of the log density
        rng = np.random.default_rng(42)
        h = 1e-5
        for pot in (ANIMAL_POT, OBSERVER_POT):
            spec = MovementSpec(pot, 2.0)
            for _ in range(100):
                x, y = rng.uniform(5, 95, size=2)
                gx = (
                    pot.log_density(x + h, y)
                    - pot.log_density(x - h, y)
                ) / (2 * h)
                gy = (
                    pot.log_density(x, y + h)
                    - pot.log_density(x, y - h)
                ) / (2 * h)
                expect = np.array([gx, gy])
                got = drift(spec, Point(x, y))
                assert got == pytest.approx(expect, rel=1e-6, abs=1e-9)


class TestStep:
    def test_mean_step_length_slow(self):
        # drift vanishes at the center, so steps are pure noise there
        spec = MovementSpec(ANIMAL_POT, 2.0)
        rng = np.random.default_rng(11)
        start = np.tile([50.0, 50.0], (100000, 1))
        out = step_positions(spec, start, REGION, rng.standard_normal((100000, 2)))
        d = np.hypot(out[:, 0] - 50.0, out[:, 1] - 50.0)
        assert d.mean() == pytest.approx(1.77, abs=0.05)

    def test_mean_step_length_fast(self):
        spec = MovementSpec(ANIMAL_POT, 8.0)
        rng = np.random.default_rng(12)
        start = np.tile([50.0, 50.0], (100000, 1))
        out = step_positions(spec, start, REGION, rng.standard_normal((100000, 2)))
        d = np.hypot(out[:, 0] - 50.0, out[:, 1] - 50.0)
        assert d.mean() == pytest.approx(3.54, abs=0.1)

    def test_mean_step_length_reflected(self):
        # sd-20 noise folded into the square shortens the average move to ~23
        spec = MovementSpec(flat_potential(), 400.0)
        rng = np.random.default_rng(21)
        tr = simulate_trajectory(spec, Point(50, 50), 20000, REGION, rng)
        d = np.hypot(np.diff(tr.positions[:, 0]), np.diff(tr.positions[:, 1]))
        assert d.mean() == pytest.approx(23.0, abs=1.5)

    def test_single_step_stays_inside(self):
        spec = MovementSpec(ANIMAL_POT, 400.0)
        rng = np.random.default_rng(9)
        p = Point(1.0, 99.0)
        for _ in range(200):
            p = simulate_trajectory(spec, p, 1, REGION, rng).positions[-1]
            assert REGION.contains(*p)


def _quartic(x, y):
    # products only (no power), so evaluation is bit-exact whatever the array shape
    u, v = x - 30.0, y - 60.0
    return -u * u / 50.0 - v * v * v * v / 1e4


def _quartic_gradient(x, y):
    u, v = x - 30.0, y - 60.0
    return -u / 25.0, -4.0 * v * v * v / 1e4


POTENTIAL_KINDS = {
    "bivariate-normal": lambda c: BivariateNormalPotential((c[0], c[1]), c[2]),
    "half-normal-y": lambda c: HalfNormalYPotential(c[1], c[2]),
    "custom-with-gradient": lambda c: CustomPotential(_quartic, grad_fn=_quartic_gradient),
}


@st.composite
def step_cases(draw):
    """A movement spec of one potential kind and interior rows of an off-origin region."""
    x0, y0 = draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))
    region = StudyRegion(x0, x0 + draw(st.floats(1.0, 200.0)), y0, y0 + draw(st.floats(1.0, 200.0)))
    coef = (draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)), draw(st.floats(1.0, 1e3)))
    kind = draw(st.sampled_from(sorted(POTENTIAL_KINDS)))
    spec = MovementSpec(POTENTIAL_KINDS[kind](coef), draw(st.floats(0.1, 500.0)))
    fx = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    rows = draw(st.lists(st.tuples(fx, fx), min_size=1, max_size=8))
    f = np.array(rows)
    P = np.column_stack((x0 + f[:, 0] * region.width, y0 + f[:, 1] * region.height))
    return spec, region, P


@settings(max_examples=200, deadline=None)
@given(step_cases())
def test_step_runs_the_tested_drift(case):
    spec, region, P = case
    # drift on an (n, 2) array is drift on each row
    D = drift(spec, P)
    for row, d in zip(P, D):
        assert np.array_equal(drift(spec, row), d)
        assert np.array_equal(drift(spec, Point(*row)), d)
    # with zero noise a unit step is the drift folded back into the region, axis by axis
    moved = P + D
    want = np.column_stack(
        (
            reflect_into(moved[:, 0], region.xmin, region.xmax),
            reflect_into(moved[:, 1], region.ymin, region.ymax),
        )
    )
    got = step_positions(spec, P, region, np.zeros_like(P))
    assert np.array_equal(got, want)


class TestSimulateTrajectory:
    def test_zero_steps(self):
        rng = np.random.default_rng(0)
        tr = simulate_trajectory(MovementSpec(ANIMAL_POT, 2.0), Point(10, 10), 0, REGION, rng)
        assert len(tr) == 1
        assert tr.positions[0] == pytest.approx([10.0, 10.0])

    def test_trip_length(self):
        rng = np.random.default_rng(0)
        tr = simulate_trajectory(MovementSpec(ANIMAL_POT, 2.0), Point(50, 50), 500, REGION, rng)
        assert len(tr) == 501

    def test_positions_inside_region(self):
        rng = np.random.default_rng(1)
        tr = simulate_trajectory(MovementSpec(ANIMAL_POT, 400.0), Point(50, 50), 2000, REGION, rng)
        assert np.all(tr.positions[:, 0] >= 0) and np.all(tr.positions[:, 0] <= 100)
        assert np.all(tr.positions[:, 1] >= 0) and np.all(tr.positions[:, 1] <= 100)

    def test_seed_reproducibility_bit_exact(self):
        spec = MovementSpec(ANIMAL_POT, 2.0)
        a = simulate_trajectory(spec, Point(50, 50), 300, REGION, np.random.default_rng(77))
        b = simulate_trajectory(spec, Point(50, 50), 300, REGION, np.random.default_rng(77))
        assert np.array_equal(a.positions, b.positions)

    def test_start_outside_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_trajectory(MovementSpec(ANIMAL_POT, 2.0), Point(-5, 50), 10, REGION, rng)


class TestSampleInitial:
    def test_bivariate_normal_mean(self):
        pts = sample_initial(ANIMAL_POT, REGION, np.random.default_rng(5), n=20000)
        assert pts.shape == (20000, 2)
        assert pts.mean(axis=0) == pytest.approx([50.0, 50.0], abs=0.2)

    def test_half_normal_marginals(self):
        pts = sample_initial(OBSERVER_POT, REGION, np.random.default_rng(6), n=20000)
        assert pts[:, 0].mean() == pytest.approx(50.0, abs=0.5)
        assert pts[:, 1].mean() > 85.0

    def test_half_normal_ks(self):
        """x is uniform on the region; y is the normal truncated to [ymin, ymax]."""
        pts = sample_initial(OBSERVER_POT, REGION, np.random.default_rng(12), n=20000)
        sd = np.sqrt(OBSERVER_POT.variance)
        cy = OBSERVER_POT.center_y
        y_law = stats.truncnorm((REGION.ymin - cy) / sd, (REGION.ymax - cy) / sd, loc=cy, scale=sd)
        assert stats.kstest(pts[:, 1], y_law.cdf).pvalue > 1e-3
        x_law = stats.uniform(REGION.xmin, REGION.xmax - REGION.xmin)
        assert stats.kstest(pts[:, 0], x_law.cdf).pvalue > 1e-3

    def test_samples_inside_region(self):
        pts = sample_initial(OBSERVER_POT, REGION, np.random.default_rng(7), n=500)
        assert np.all(REGION.contains(pts[:, 0], pts[:, 1]))

    def test_first_accepted_proposals_kept(self):
        """The result is the first n proposals inside the region, whatever the round sizes."""
        edge = BivariateNormalPotential((50.0, 95.0), 100.0)  # about a third falls outside
        got = sample_initial(edge, REGION, np.random.default_rng(9), n=500)
        proposals = np.random.default_rng(9).normal((50.0, 95.0), 10.0, size=(5000, 2))
        inside = proposals[REGION.contains(proposals[:, 0], proposals[:, 1])]
        assert got.tobytes() == inside[:500].tobytes()

    def test_mass_outside_region_is_degenerate(self):
        far = BivariateNormalPotential((500.0, 500.0), 1.0)
        with pytest.raises(DegenerateSpecError, match=f"after {_REJECTION_CAP} attempts"):
            sample_initial(far, REGION, np.random.default_rng(0), n=3)

    def test_custom_potential_rejected(self):
        with pytest.raises(ValueError):
            sample_initial(flat_potential(), REGION, np.random.default_rng(0))


class TestAnalyticUD:
    def test_normalization(self):
        g = build_grid(REGION, 100, 100)
        ud = analytic_ud(ANIMAL_POT, g)
        assert ud.values.sum() * g.cell_area == pytest.approx(1.0, abs=1e-9)

    def test_argmax_cell_contains_center(self):
        g = build_grid(REGION, 100, 100)
        ud = analytic_ud(ANIMAL_POT, g)
        best = int(np.argmax(ud.flat))
        X, Y = g.center_arrays()
        assert abs(X.flat[best] - 50.0) <= g.dx and abs(Y.flat[best] - 50.0) <= g.dy

    def test_radial_symmetry_on_aligned_grid(self):
        # 11x11 grid over [-5,105]^2 puts (50,60) and (40,50) at cell centers
        g = build_grid(StudyRegion(-5, 105, -5, 105), 11, 11)
        ud = analytic_ud(ANIMAL_POT, g)
        a, b = ud.flat[cells_of(g, np.array([50.0, 40.0]), np.array([60.0, 50.0]))]
        assert a == pytest.approx(b, rel=1e-12)

    def test_custom_potential_rejected(self):
        g = build_grid(REGION, 10, 10)
        with pytest.raises(ValueError):
            analytic_ud(flat_potential(), g)


def test_stationarity_100k_sanity():
    """Occupancy of a long trajectory tracks the analytic density."""
    spec = MovementSpec(ANIMAL_POT, 2.0)
    rng = np.random.default_rng(3)
    traj = simulate_trajectory(spec, Point(50, 50), 100000, REGION, rng)
    g = build_grid(REGION, 20, 20)
    idx = cells_of(g, traj.positions[:, 0], traj.positions[:, 1])
    occ = np.bincount(idx, minlength=g.ncells) / len(idx)
    expect = analytic_ud(ANIMAL_POT, g).flat * g.cell_area
    tv = 0.5 * np.abs(occ - expect).sum()
    assert tv < 0.05
