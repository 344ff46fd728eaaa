"""UD normalization, exceedance maps, and study metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effortud import analysis
from effortud.analysis import (
    QuadraticDesign,
    _count_above,
    _order_statistics,
    exceedance_map,
    mspe,
    normalize_ud,
    robust_interval,
    ud_center_bias,
)
from effortud.errors import (
    GridMismatchError,
    NonConcaveFitError,
    SingularCovarianceError,
)
from effortud.geometry import Raster, StudyRegion, build_grid, constant_raster, raster_from_function
from effortud.inference import (
    CovariateBlock,
    FitResult,
    IntensityModel,
    LikelihoodData,
    _env_log_intensity,
    fit_mle,
    predict_intensity,
)

REGION = StudyRegion(0.0, 100.0, 0.0, 100.0)


def make_fit(names, theta, covariance, singular=False):
    theta = np.asarray(theta, dtype=float)
    return FitResult(
        names=list(names),
        theta=theta,
        loglik=0.0,
        converged=True,
        iterations=1,
        covariance=covariance,
        singular_information=singular,
        gradient_max_norm=0.0,
    )


class TestNormalizeUd:
    def test_constant_surface(self):
        g = build_grid(REGION, 100, 100)
        ud = normalize_ud(constant_raster(g, 7.0))
        assert np.allclose(ud.values, 1e-4)

    def test_integrates_to_one(self):
        g = build_grid(REGION, 25, 25)
        rng = np.random.default_rng(9)
        ud = normalize_ud(Raster(g, rng.uniform(0.1, 5.0, size=(25, 25))))
        assert ud.values.sum() * g.cell_area == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        nx=st.integers(1, 40),
        ny=st.integers(1, 40),
        x0=st.floats(-1e4, 1e4),
        y0=st.floats(-1e4, 1e4),
        dx=st.floats(1e-3, 1e3),
        dy=st.floats(1e-3, 1e3),
        data=st.data(),
    )
    def test_mass_is_one_on_random_positive_surfaces(self, nx, ny, x0, y0, dx, dy, data):
        g = build_grid(StudyRegion(x0, x0 + nx * dx, y0, y0 + ny * dy), nx, ny)
        v = data.draw(arrays(float, (ny, nx), elements=st.floats(1e-6, 1e6)))
        ud = normalize_ud(Raster(g, v))
        assert abs(ud.values.sum() * g.cell_area - 1.0) <= 1e-12

    def test_scale_invariant(self):
        g = build_grid(REGION, 10, 10)
        rng = np.random.default_rng(14)
        v = rng.uniform(0.0, 2.0, size=(10, 10))
        a = normalize_ud(Raster(g, v))
        b = normalize_ud(Raster(g, 37.5 * v))
        assert np.allclose(a.values, b.values, rtol=1e-13)

    def test_all_zero_rejected(self):
        g = build_grid(REGION, 5, 5)
        with pytest.raises(ValueError):
            normalize_ud(constant_raster(g, 0.0))

    def test_negative_rejected(self):
        g = build_grid(REGION, 2, 2)
        with pytest.raises(ValueError):
            normalize_ud(Raster(g, np.array([[1.0, -0.5], [1.0, 1.0]])))

    def test_nonfinite_rejected(self):
        g = build_grid(REGION, 2, 2)
        with pytest.raises(ValueError):
            normalize_ud(Raster(g, np.array([[1.0, np.nan], [1.0, 1.0]])))


class TestMspe:
    def test_zero_for_identical(self):
        g = build_grid(REGION, 5, 5)
        rng = np.random.default_rng(8)
        r = Raster(g, rng.uniform(size=(5, 5)))
        assert mspe(r, r.copy()) == 0.0

    def test_constant_shift(self):
        g = build_grid(REGION, 5, 5)
        a = constant_raster(g, 1.0)
        b = constant_raster(g, 1.0 - 0.03)
        assert mspe(a, b) == pytest.approx(0.03**2, rel=1e-12)

    def test_nonnegative(self):
        g = build_grid(REGION, 7, 7)
        rng = np.random.default_rng(10)
        a = Raster(g, rng.normal(size=(7, 7)))
        b = Raster(g, rng.normal(size=(7, 7)))
        assert mspe(a, b) >= 0.0
        assert mspe(a, b) == pytest.approx(mspe(b, a), rel=1e-15)

    def test_grid_mismatch_rejected(self):
        a = constant_raster(build_grid(REGION, 2, 2), 1.0)
        b = constant_raster(build_grid(REGION, 3, 3), 1.0)
        with pytest.raises(GridMismatchError):
            mspe(a, b)

    def test_nonfinite_rejected(self):
        g = build_grid(REGION, 2, 2)
        a = Raster(g, np.array([[1.0, np.inf], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            mspe(a, constant_raster(g, 1.0))


class TestRobustInterval:
    def test_three_point_oracle(self):
        # median 2, MAD 1, half-width 2 * 1.48
        iv = robust_interval([1.0, 2.0, 3.0])
        assert iv.median == pytest.approx(2.0)
        assert iv.lo == pytest.approx(-0.96)
        assert iv.hi == pytest.approx(4.96)

    def test_constant_values_zero_width(self):
        iv = robust_interval([5.0] * 8)
        assert iv.median == iv.lo == iv.hi == 5.0

    def test_matches_normal_quantiles(self):
        rng = np.random.default_rng(123)
        iv = robust_interval(rng.normal(size=10_000))
        assert iv.lo == pytest.approx(-2.0, abs=0.1)
        assert iv.hi == pytest.approx(2.0, abs=0.1)

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ValueError):
            robust_interval([1.0])
        with pytest.raises(ValueError):
            robust_interval([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            robust_interval([1.0, np.nan, 2.0])


class TestQuadraticDesign:
    def test_covariates_scaled_to_unit_box(self):
        g = build_grid(StudyRegion(10, 30, -5, 5), 20, 10)
        blk = QuadraticDesign(g).block()
        assert blk.names == ["qx", "qy", "qx2", "qy2", "qxy"]
        u, v = blk.rasters[0].values, blk.rasters[1].values
        assert -1 < u.min() and u.max() < 1
        assert -1 < v.min() and v.max() < 1
        assert np.allclose(blk.rasters[2].values, u * u)
        assert np.allclose(blk.rasters[4].values, u * v)

    def test_center_recovery_axis_aligned(self):
        g = build_grid(REGION, 10, 10)
        d = QuadraticDesign(g)
        # maximum of b1 u + b3 u^2 sits at u = -b1 / (2 b3)
        fit = make_fit(
            ["env:intercept", "env:qx", "env:qy", "env:qx2", "env:qy2", "env:qxy"],
            [0.0, 0.8, -0.8, -2.0, -2.0, 0.0],
            None,
        )
        c = d.center_from(fit)
        assert c.x == pytest.approx(60.0, abs=1e-12)
        assert c.y == pytest.approx(40.0, abs=1e-12)

    def test_center_recovery_with_cross_term(self):
        g = build_grid(REGION, 10, 10)
        d = QuadraticDesign(g)
        b = {"qx": 0.4, "qy": -0.1, "qx2": -1.5, "qy2": -2.5, "qxy": 0.6}
        fit = make_fit([f"env:{k}" for k in b], list(b.values()), None)
        uv = np.linalg.solve(
            [[2 * b["qx2"], b["qxy"]], [b["qxy"], 2 * b["qy2"]]], [-b["qx"], -b["qy"]]
        )
        c = d.center_from(fit)
        assert c.x == pytest.approx(50.0 + 50.0 * uv[0], rel=1e-12)
        assert c.y == pytest.approx(50.0 + 50.0 * uv[1], rel=1e-12)

    def test_convex_surface_rejected(self):
        d = QuadraticDesign(build_grid(REGION, 5, 5))
        fit = make_fit(
            ["env:qx", "env:qy", "env:qx2", "env:qy2", "env:qxy"],
            [0.0, 0.0, 1.0, -1.0, 0.0],
            None,
        )
        with pytest.raises(NonConcaveFitError):
            d.center_from(fit)

    def test_saddle_surface_rejected(self):
        d = QuadraticDesign(build_grid(REGION, 5, 5))
        fit = make_fit(
            ["env:qx", "env:qy", "env:qx2", "env:qy2", "env:qxy"],
            [0.0, 0.0, -1.0, -1.0, 3.0],
            None,
        )
        with pytest.raises(NonConcaveFitError):
            d.center_from(fit)

    def test_missing_coefficients_rejected(self):
        d = QuadraticDesign(build_grid(REGION, 5, 5))
        fit = make_fit(["env:intercept"], [0.0], None)
        with pytest.raises(ValueError):
            d.center_from(fit)

    def test_fitted_center_matches_generator(self):
        """End to end: Poisson counts from a quadratic surface pin its peak."""
        g = build_grid(REGION, 25, 25)
        d = QuadraticDesign(g)
        m = IntensityModel(grid=g, env=d.block())
        true = np.array([np.log(0.5), 0.8, -0.8, -2.0, -2.0, 0.0])
        mu = predict_intensity(m, true).flat * g.cell_area
        rng = np.random.default_rng(77)
        counts = rng.poisson(mu).astype(float)
        fit = fit_mle(m, LikelihoodData.from_counts(g, counts))
        assert fit.converged
        c = d.center_from(fit)
        assert c.x == pytest.approx(60.0, abs=2.0)
        assert c.y == pytest.approx(40.0, abs=2.0)
        assert ud_center_bias(fit, d, 40.0) == pytest.approx(c.y - 40.0, abs=1e-12)


class TestUdCenterBias:
    def test_signed_displacement(self):
        g = build_grid(REGION, 10, 10)
        d = QuadraticDesign(g)
        fit = make_fit(
            ["env:qx", "env:qy", "env:qx2", "env:qy2", "env:qxy"],
            [0.0, 0.8, -2.0, -2.0, 0.0],
            None,
        )
        # fitted center y = 60; against a true center of 50 the bias is +10
        assert ud_center_bias(fit, d, 50.0) == pytest.approx(10.0, abs=1e-12)
        assert ud_center_bias(fit, d, 70.0) == pytest.approx(-10.0, abs=1e-12)


def linear_x_model(n=10):
    g = build_grid(REGION, n, n)
    env = CovariateBlock(["u"], [raster_from_function(g, lambda X, Y: (X - 50.0) / 50.0)])
    return IntensityModel(grid=g, env=env)


class TestExceedanceMap:
    def test_degenerate_flags_exact_fraction(self):
        m = linear_x_model(10)
        fit = make_fit(["env:intercept", "env:u"], [0.0, 1.0], np.zeros((2, 2)))
        emap = exceedance_map(m, fit, np.random.default_rng(0), percentile=70.0, n_samples=50)
        vals = emap.probabilities.values
        assert set(np.unique(vals)) == {0.0, 1.0}
        assert int(vals.sum()) == 30

    def test_degenerate_fixed_mode_matches_per_draw(self):
        m = linear_x_model(10)
        fit = make_fit(["env:intercept", "env:u"], [0.0, 1.0], np.zeros((2, 2)))
        a = exceedance_map(m, fit, np.random.default_rng(0), threshold_mode="per-draw")
        b = exceedance_map(m, fit, np.random.default_rng(0), threshold_mode="fixed")
        assert np.array_equal(a.probabilities.values, b.probabilities.values)

    def test_probabilities_in_unit_interval(self):
        m = linear_x_model(8)
        cov = np.array([[0.04, 0.01], [0.01, 0.09]])
        fit = make_fit(["env:intercept", "env:u"], [0.0, 1.0], cov)
        emap = exceedance_map(m, fit, np.random.default_rng(5), n_samples=200)
        v = emap.probabilities.values
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert emap.n_samples == 200

    def test_seed_reproducibility(self):
        # two competing slopes so the flagged region truly varies per draw
        g = build_grid(REGION, 10, 10)
        env = CovariateBlock(
            ["u", "v"],
            [
                raster_from_function(g, lambda X, Y: (X - 50.0) / 50.0),
                raster_from_function(g, lambda X, Y: (Y - 50.0) / 50.0),
            ],
        )
        m = IntensityModel(grid=g, env=env)
        cov = np.diag([0.1, 0.5, 0.5])
        fit = make_fit(["env:intercept", "env:u", "env:v"], [0.0, 0.5, 0.5], cov)
        a = exceedance_map(m, fit, np.random.default_rng(42), n_samples=100)
        b = exceedance_map(m, fit, np.random.default_rng(42), n_samples=100)
        c = exceedance_map(m, fit, np.random.default_rng(43), n_samples=100)
        assert np.array_equal(a.probabilities.values, b.probabilities.values)
        assert not np.array_equal(a.probabilities.values, c.probabilities.values)

    def test_cutoff_masks_cellwise(self):
        m = linear_x_model(10)
        cov = np.diag([0.02, 0.05])
        fit = make_fit(["env:intercept", "env:u"], [0.0, 1.0], cov)
        emap = exceedance_map(m, fit, np.random.default_rng(3), n_samples=300, cutoff=0.95)
        probs = emap.probabilities.values
        masked = emap.masked().values
        keep = probs >= 0.95
        assert np.array_equal(masked[keep], probs[keep])
        assert np.all(np.isnan(masked[~keep]))

    def test_no_cutoff_masked_is_probabilities(self):
        m = linear_x_model(6)
        fit = make_fit(["env:intercept", "env:u"], [0.0, 1.0], np.zeros((2, 2)))
        emap = exceedance_map(m, fit, np.random.default_rng(1), n_samples=20)
        assert np.array_equal(emap.masked().values, emap.probabilities.values)

    def test_symmetric_surface_gives_symmetric_map(self):
        # a pure qx2 surface is mirror symmetric for every coefficient draw
        g = build_grid(REGION, 10, 10)
        env = CovariateBlock(
            ["q"], [raster_from_function(g, lambda X, Y: ((X - 50.0) / 50.0) ** 2)]
        )
        m = IntensityModel(grid=g, env=env)
        fit = make_fit(["env:intercept", "env:q"], [0.0, -3.0], np.diag([0.1, 0.4]))
        emap = exceedance_map(m, fit, np.random.default_rng(11), n_samples=150)
        v = emap.probabilities.values
        assert np.array_equal(v, np.fliplr(v))

    def test_singular_covariance_rejected(self):
        m = linear_x_model(5)
        cov = np.array([[0.04, 0.0], [0.0, 0.0]])
        fit = make_fit(["env:intercept", "env:u"], [0.0, 1.0], cov, singular=True)
        with pytest.raises(SingularCovarianceError):
            exceedance_map(m, fit, np.random.default_rng(0))

    def test_missing_covariance_rejected(self):
        m = linear_x_model(5)
        fit = make_fit(["env:intercept", "env:u"], [0.0, 1.0], None)
        with pytest.raises(SingularCovarianceError):
            exceedance_map(m, fit, np.random.default_rng(0))

    def test_invalid_arguments_rejected(self):
        m = linear_x_model(5)
        fit = make_fit(["env:intercept", "env:u"], [0.0, 1.0], np.zeros((2, 2)))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            exceedance_map(m, fit, rng, percentile=0.0)
        with pytest.raises(ValueError):
            exceedance_map(m, fit, rng, percentile=100.0)
        with pytest.raises(ValueError):
            exceedance_map(m, fit, rng, n_samples=0)
        with pytest.raises(ValueError):
            exceedance_map(m, fit, rng, threshold_mode="upper")

    @pytest.mark.parametrize("cutoff", [np.nan, np.inf, -np.inf])
    def test_nonfinite_cutoff_rejected(self, cutoff):
        m = linear_x_model(5)
        fit = make_fit(["env:intercept", "env:u"], [0.0, 1.0], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="cutoff"):
            exceedance_map(m, fit, np.random.default_rng(0), cutoff=cutoff)

    @pytest.mark.parametrize("mode", ["per-draw", "fixed"])
    def test_surface_without_finite_cells_rejected(self, mode):
        g = build_grid(REGION, 4, 4)
        m = IntensityModel(grid=g, env=CovariateBlock(["z"], [constant_raster(g, np.nan)]))
        fit = make_fit(["env:intercept", "env:z"], [0.0, 1.0], np.diag([0.1, 0.1]))
        with pytest.raises(ValueError, match="no cell"):
            exceedance_map(m, fit, np.random.default_rng(0), n_samples=5, threshold_mode=mode)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["per-draw", "fixed"])
    def test_overflowing_cells_count_in_no_draw(self, mode):
        # exp(800) overflows on the right half: inf there, without a warning
        g = build_grid(REGION, 4, 4)
        right = raster_from_function(g, lambda X, Y: np.where(X < 50.0, 0.0, 1.0))
        m = IntensityModel(grid=g, env=CovariateBlock(["b"], [right]))
        fit = make_fit(["env:intercept", "env:b"], [0.0, 800.0], np.zeros((2, 2)))
        surface = predict_intensity(m, fit.theta).values
        assert (surface[:, :2] == 1.0).all() and np.isposinf(surface[:, 2:]).all()
        probs = exceedance_map(m, fit, np.random.default_rng(0), n_samples=5,
                               threshold_mode=mode).probabilities.values
        assert (probs[:, :2] == 0.0).all() and np.isnan(probs[:, 2:]).all()


# --- exceedance in blocks of draws against reference loops -------------------


def reference_log_intensity(model, thetas, fix_detection, fix_effort, per_draw=False):
    """Log surfaces of a block of draws, one row each, from one product of the env columns.

    ``per_draw`` replays the loop before blocks: one matrix-vector product per draw.
    """
    n = model.grid.ncells
    cols = [np.ones(n)] if model.intercept else []
    cols += [r.flat for r in model.env.rasters] if model.env is not None else []
    A = np.column_stack(cols)
    p_env = A.shape[1]
    p_det = len(model.detection.names) if model.detection is not None else 0
    B, G1, G2 = thetas[:, :p_env], thetas[:, p_env : p_env + p_det], thetas[:, p_env + p_det :]
    le = np.array([A @ b for b in B]) if per_draw else B @ A.T
    if p_det:
        c1 = np.broadcast_to(np.asarray(fix_detection, dtype=float), (p_det,))
        le = le - np.logaddexp(0.0, -(c1 @ G1.T))[:, None]
    if G2.shape[1]:
        c2 = np.broadcast_to(np.asarray(fix_effort, dtype=float), (G2.shape[1],))
        le = le + (c2 @ G2.T)[:, None]
    return le


def reference_intensity(model, thetas, fix_detection, fix_effort, per_draw=False):
    """``reference_log_intensity``, exponentiated."""
    with np.errstate(over="ignore"):
        return np.exp(reference_log_intensity(model, thetas, fix_detection, fix_effort, per_draw))


def reference_exceedance(model, fit, rng, percentile, n_samples, threshold_mode,
                         fix_detection=0.0, fix_effort=0.0, per_draw=False):
    """Per-draw ``np.quantile`` thresholds over blocks on ``exceedance_map``'s partition.

    A zero covariance gives one draw, theta_hat. ``per_draw`` evaluates
    every draw on its own, as the loop before blocks did.
    """
    q = percentile / 100.0
    cov = np.asarray(fit.covariance, dtype=float)
    if np.all(cov == 0.0):
        draws = fit.theta[None]
    else:
        draws = rng.multivariate_normal(fit.theta, cov, size=n_samples, method="svd")
    fixed_thr = None
    if threshold_mode == "fixed":
        base = reference_intensity(model, fit.theta[None], fix_detection, fix_effort)[0]
        fixed_thr = float(np.quantile(base[np.isfinite(base)], q))
    step = 1 if per_draw else max(1, analysis._VALUE_CHUNK // model.grid.ncells)
    above = np.zeros(model.grid.ncells)
    finite_any = np.zeros(model.grid.ncells, dtype=bool)
    for k in range(0, len(draws), step):
        block = reference_intensity(model, draws[k : k + step], fix_detection, fix_effort, per_draw)
        for vals in block:
            finite = np.isfinite(vals)
            finite_any |= finite
            thr = fixed_thr if fixed_thr is not None else float(np.quantile(vals[finite], q))
            above += finite & (vals > thr)
    probs = above / len(draws)
    probs[~finite_any] = np.nan
    return probs.reshape(model.grid.ny, model.grid.nx)


def assert_exceedance_matches_reference(got, model, fit, seed, *args, **kwargs):
    """Bytes equal to the blocked reference; within 1e-12 of the per-draw loop."""
    want = reference_exceedance(model, fit, np.random.default_rng(seed), *args, **kwargs)
    assert got.tobytes() == want.tobytes()
    old = reference_exceedance(model, fit, np.random.default_rng(seed), *args, **kwargs,
                               per_draw=True)
    assert np.allclose(got, old, rtol=1e-12, atol=0.0, equal_nan=True)


def _random_model(kind, seed=0):
    rng = np.random.default_rng(seed)
    g = build_grid(REGION, 13, 11)

    def block(names, nan_frac=0.0):
        rasters = []
        for _ in names:
            v = rng.normal(size=(g.ny, g.nx))
            v[rng.random(v.shape) < nan_frac] = np.nan
            rasters.append(Raster(g, v))
        return CovariateBlock(names, rasters)

    env = block(["a", "b"], nan_frac=0.1 if kind == "nan-cells" else 0.0)
    det = block(["vis"]) if kind in ("detection", "effort", "no-intercept") else None
    eff = block(["day", "sea"]) if kind in ("effort", "no-intercept") else None
    model = IntensityModel(grid=g, env=env, detection=det, effort=eff,
                           intercept=kind != "no-intercept")
    p = model.n_parameters
    theta = rng.normal(size=p)
    if kind == "overflow":
        theta[0] = 707.0  # some draws overflow some cells to inf
    B = rng.normal(size=(p, p))
    return model, make_fit(model.parameter_names(), theta, 0.05 * B @ B.T)


MODEL_KINDS = ["env", "nan-cells", "detection", "effort", "no-intercept", "overflow"]


@pytest.mark.parametrize("chunk", [1, 3 * 143 + 5, 1 << 19], ids=["one-draw", "three-draws", "default"])
@pytest.mark.parametrize("mode", ["per-draw", "fixed"])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_blocked_exceedance_matches_per_draw_loop(monkeypatch, kind, mode, chunk):
    monkeypatch.setattr(analysis, "_VALUE_CHUNK", chunk)
    model, fit = _random_model(kind, seed=MODEL_KINDS.index(kind))
    fix_det, fix_eff = (0.4, [0.3, -0.2]) if model.effort else (0.0, 0.0)
    blocks = []

    def recorded(model, thetas, *args):
        L = _env_log_intensity(model, thetas, *args)
        blocks.append((thetas, L.copy()))
        return L

    monkeypatch.setattr(analysis, "_env_log_intensity", recorded)
    for percentile in (70.0, 50.0, 97.5):
        got = exceedance_map(model, fit, np.random.default_rng(9), percentile=percentile,
                             n_samples=40, threshold_mode=mode, fix_detection=fix_det,
                             fix_effort=fix_eff)
        assert_exceedance_matches_reference(got.probabilities.values, model, fit, 9,
                                            percentile, 40, mode, fix_det, fix_eff)
        assert got.n_samples == 40
    # the counts rarely see one ulp: every block's log intensity keeps its bits too
    for thetas, L in blocks:
        assert L.tobytes() == reference_log_intensity(model, thetas, fix_det, fix_eff).tobytes()
        old = reference_log_intensity(model, thetas, fix_det, fix_eff, per_draw=True)
        assert np.allclose(L, old, rtol=1e-12, atol=0.0, equal_nan=True)


@pytest.mark.parametrize("mode", ["per-draw", "fixed"])
@pytest.mark.parametrize("kind", ["env", "overflow"])
def test_block_of_more_draws_than_a_byte_counts(kind, mode):
    # 600 draws at 13 x 11 are one block of the default size: no count may wrap at 255
    model, fit = _random_model(kind, seed=MODEL_KINDS.index(kind))
    got = exceedance_map(model, fit, np.random.default_rng(3), n_samples=600, threshold_mode=mode)
    assert_exceedance_matches_reference(got.probabilities.values, model, fit, 3, 70.0, 600, mode)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_block_rows_keep_single_draw_bits(kind):
    # a block's rows are one product over the block, and a single draw
    # (predict_intensity) a one-row block; both within 1e-12 of one
    # matrix-vector product per draw
    model, fit = _random_model(kind, seed=MODEL_KINDS.index(kind))
    fix_det, fix_eff = (0.4, [0.3, -0.2]) if model.effort else (0.0, 0.0)
    thetas = np.random.default_rng(1).multivariate_normal(fit.theta, fit.covariance, size=7)
    for rows in (thetas, fit.theta[None]):
        with np.errstate(over="ignore"):
            got = np.exp(_env_log_intensity(model, rows, fix_det, fix_eff))
        assert got.tobytes() == reference_intensity(model, rows, fix_det, fix_eff).tobytes()
        old = reference_intensity(model, rows, fix_det, fix_eff, per_draw=True)
        assert np.allclose(got, old, rtol=1e-12, atol=0.0, equal_nan=True)
    got = predict_intensity(model, fit.theta, fix_det, fix_eff)
    assert got.flat.tobytes() == reference_intensity(model, fit.theta[None], fix_det, fix_eff).tobytes()


@pytest.mark.parametrize("mode", ["per-draw", "fixed"])
def test_degenerate_covariance_on_tied_surface_matches_loop(mode):
    # rounding leaves a few distinct values, so the threshold sits inside ties
    g = build_grid(REGION, 20, 20)
    env = CovariateBlock(["r"], [raster_from_function(g, lambda X, Y: np.round((X + Y) / 100.0, 1))])
    model = IntensityModel(grid=g, env=env)
    fit = make_fit(["env:intercept", "env:r"], [0.0, 2.0], np.zeros((2, 2)))
    for percentile in (70.0, 50.0, 12.5):
        got = exceedance_map(model, fit, np.random.default_rng(0), percentile=percentile,
                             n_samples=9, threshold_mode=mode)
        assert_exceedance_matches_reference(got.probabilities.values, model, fit, 0,
                                            percentile, 9, mode)
        assert set(np.unique(got.probabilities.values)) <= {0.0, 1.0}


_FINITE_VALUES = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300]


@st.composite
def value_blocks(draw):
    """Blocks of draw values: ties, underflowed zeros, +-0.0, fixed NaN cells, stray inf/NaN."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 16))
    cell = st.sampled_from(_FINITE_VALUES) | st.integers(0, 8).map(lambda k: k / 4.0)
    V = draw(arrays(np.float64, (m, n), elements=cell))
    nan_cells = draw(arrays(np.bool_, n))
    V[:, nan_cells] = np.nan  # covariates missing in every draw
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        V[i, j] = draw(st.sampled_from([np.inf, np.nan]))
    if draw(st.booleans()):  # a row left with a single finite cell
        i = draw(st.integers(0, m - 1))
        keep = draw(st.integers(0, n - 1))
        V[i, np.arange(n) != keep] = np.nan
        V[i, keep] = draw(st.sampled_from(_FINITE_VALUES))
    return V


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    V=value_blocks(),
    percentile=st.sampled_from([70.0, 50.0, 25.0, 99.0, 1e-9, 99.99999999999999])
    | st.floats(0.5, 99.5),
    fixed_thr=st.none() | st.sampled_from([0.0, 1.0, 1e300]),
)
def test_count_above_matches_per_row_quantile_rule(V, percentile, fixed_thr):
    q = percentile / 100.0
    finite = np.isfinite(V)
    if fixed_thr is None and not finite.any(axis=1).all():
        with pytest.raises(ValueError):
            _count_above(V, q)
        return
    want = np.zeros(V.shape[1], dtype=np.int64)
    for row, fin in zip(V, finite):
        thr = fixed_thr if fixed_thr is not None else float(np.quantile(row[fin], q))
        want += fin & (row > thr)
    counts, finite_any = _count_above(V, q, fixed_thr)
    assert np.array_equal(counts, want)
    assert np.array_equal(finite_any, finite.any(axis=0))


class _PartitionSpy:
    """numpy for ``analysis``, with each one-row ``partition`` call recorded.

    A call on a view of ``P`` partitions a whole row (the fallback); any
    other one-row call partitions a band.
    """

    def __init__(self, P):
        self.P, self.ways = P, []

    def __getattr__(self, name):
        return getattr(np, name)

    def partition(self, a, kth, axis=-1):
        if a.ndim == 1:
            self.ways.append("whole" if np.shares_memory(a, self.P) else "band")
        return np.partition(a, kth, axis=axis)


def _rows_off_their_sample(rng, rows, n, shift):
    """Rows whose sampled cells (every ``_BAND_STRIDE``-th) lie ``shift`` above the rest."""
    P = rng.random((rows, n))
    P[:, :: analysis._BAND_STRIDE] += shift
    return P


@st.composite
def band_blocks(draw):
    """Finite blocks of rows for the sampled band: smooth, heavily tied, constant,
    sorted, shorter than the sample stride, or built so the band misses the ranks."""
    rows = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 5, 31, 32, 33, 64, 100, 1000, 4099]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["smooth", "ties", "constant", "sorted", "miss"]))
    if kind == "smooth":
        P = rng.random((rows, n))
    elif kind == "ties":
        P = rng.integers(0, draw(st.integers(1, 4)), (rows, n)) * draw(st.sampled_from([1.0, 1e300]))
    elif kind == "constant":
        P = np.full((rows, n), draw(st.sampled_from([0.0, 0.25, 5e-324, 1e300])))
    elif kind == "sorted":
        P = np.sort(rng.random((rows, n)), axis=1)[:, :: draw(st.sampled_from([1, -1]))]
    else:
        P = _rows_off_their_sample(rng, rows, n, draw(st.sampled_from([-2.0, 2.0])))
    lo = draw(st.sampled_from([0, 1, n // 2, (7 * (n - 1)) // 10, n - 2, n - 1]) | st.integers(0, n - 1))
    lo = min(max(lo, 0), n - 1)
    return np.ascontiguousarray(P), lo, min(lo + draw(st.integers(0, 1)), n - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(band_blocks())
def test_band_order_statistics_equal_partition(case):
    # order statistics are values: the band and the whole-row partition agree
    P, lo, hi = case
    got = _order_statistics(P, lo, hi)
    want = np.partition(P, [lo, hi], axis=1)[:, [lo, hi]]
    assert np.array_equal(got, want)


def test_band_and_fallback_both_run(monkeypatch):
    rng = np.random.default_rng(5)
    n = 4099
    smooth = rng.random((3, n))
    missed = _rows_off_their_sample(rng, 3, n, 2.0)
    lo = (7 * (n - 1)) // 10
    for P, way in ((smooth, "band"), (missed, "whole")):
        spy = _PartitionSpy(P)
        monkeypatch.setattr(analysis, "np", spy)
        got = _order_statistics(P, lo, lo + 1)
        monkeypatch.undo()
        assert spy.ways == [way] * 3
        assert np.array_equal(got, np.partition(P, [lo, lo + 1], axis=1)[:, [lo, lo + 1]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    case=band_blocks(),
    percentile=st.sampled_from([70.0, 50.0, 1e-9, 0.01, 99.99, 99.99999999999999])
    | st.floats(0.5, 99.5),
    data=st.data(),
)
def test_count_above_matches_quantile_rule_on_long_rows(case, percentile, data):
    # rows longer than the sample stride, with cells missing in every row
    # and a stray infinite cell sending its row to np.quantile
    V = case[0].copy()
    n = V.shape[1]
    V[:, data.draw(arrays(np.bool_, n))] = np.nan
    if data.draw(st.booleans()):
        V[data.draw(st.integers(0, len(V) - 1)), data.draw(st.integers(0, n - 1))] = np.inf
    finite = np.isfinite(V)
    if not finite.any(axis=1).all():
        return
    q = percentile / 100.0
    want = np.zeros(n, dtype=np.int64)
    for row, fin in zip(V, finite):
        want += fin & (row > np.quantile(row[fin], q))
    counts, finite_any = _count_above(V, q)
    assert np.array_equal(counts, want)
    assert np.array_equal(finite_any, finite.any(axis=0))
