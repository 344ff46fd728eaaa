"""Likelihoods, gradients, and maximum likelihood fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import gammaln

from effortud.analysis import QuadraticDesign
from effortud.errors import DataInconsistencyError, GridMismatchError, MissingDataError
from effortud.geometry import Raster, StudyRegion, build_grid, constant_raster, raster_from_function
from effortud.inference import (
    CovariateBlock,
    IntensityModel,
    LikelihoodData,
    fit_mle,
    loglik,
    predict_intensity,
    _Design,
    _design_blocks,
    _log_eta,
)

REGION = StudyRegion(0.0, 100.0, 0.0, 100.0)
LOG2_MINUS_2 = np.log(2.0) - 2.0  # single-cell, single-point oracle


def unit_cell_model(theta0=np.log(2.0)):
    """One cell of area 1 with an intercept-only model."""
    g = build_grid(StudyRegion(0, 1, 0, 1), 1, 1)
    return IntensityModel(grid=g), np.array([theta0]), g


def xy_block(grid, scale=50.0):
    return CovariateBlock(
        names=["u", "v"],
        rasters=[
            raster_from_function(grid, lambda X, Y: (X - 50.0) / scale),
            raster_from_function(grid, lambda X, Y: (Y - 50.0) / scale),
        ],
    )


def all_blocks_model(n=8):
    """Env, detection, effort and offset blocks on an n x n grid."""
    g = build_grid(REGION, n, n)
    det = CovariateBlock(["w1"], [raster_from_function(g, lambda X, Y: np.cos(X / 20.0))])
    eff = CovariateBlock(["e1"], [raster_from_function(g, lambda X, Y: Y / 100.0)])
    off = raster_from_function(g, lambda X, Y: 0.01 * X)
    return IntensityModel(grid=g, env=xy_block(g), detection=det, effort=eff, log_effort_offset=off)


def finite_diff_gradient(fn, theta, h=1e-6):
    out = np.zeros_like(theta)
    for k in range(len(theta)):
        e = np.zeros_like(theta)
        e[k] = h
        out[k] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return out


def eta(model, theta):
    """The modeled intensity exp(log eta) on every cell of the model's grid, row-major."""
    le, _ = _log_eta(_design_blocks(model), np.asarray(theta, dtype=float))
    return np.exp(le)


class TestEta:
    def test_identity(self):
        g = build_grid(REGION, 5, 5)
        m = IntensityModel(grid=g)
        assert np.all(eta(m, [0.0]) == 1.0)

    def test_intercept_log2(self):
        g = build_grid(REGION, 5, 5)
        m = IntensityModel(grid=g)
        assert np.allclose(eta(m, [np.log(2.0)]), 2.0)

    def test_offset_passthrough(self):
        g = build_grid(REGION, 5, 5)
        m = IntensityModel(grid=g, log_effort_offset=constant_raster(g, np.log(3.0)))
        assert np.allclose(eta(m, [0.0]), 3.0)

    def test_detection_block_logistic(self):
        g = build_grid(REGION, 4, 4)
        det = CovariateBlock(["w"], [constant_raster(g, 1.0)])
        m = IntensityModel(grid=g, detection=det)
        expect = 1.0 / (1.0 + np.exp(-0.3))
        assert np.allclose(eta(m, [0.0, 0.3]), expect)


class TestRiemannLoglik:
    def test_single_cell_oracle(self):
        m, theta, g = unit_cell_model()
        data = LikelihoodData.from_points(g, np.array([[0.5, 0.5]]))
        assert loglik(m, theta, data)[0] == pytest.approx(LOG2_MINUS_2, abs=1e-12)

    def test_void_term(self):
        g = build_grid(REGION, 10, 10)
        m = IntensityModel(grid=g)
        data = LikelihoodData.from_points(g, np.empty((0, 2)))
        c = 0.07
        ll = loglik(m, np.array([np.log(c)]), data)[0]
        assert ll == pytest.approx(-c * REGION.area, rel=1e-12)

    def test_homogeneous_maximum_at_closed_form(self):
        g = build_grid(REGION, 10, 10)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 100, size=(40, 2))
        m = IntensityModel(grid=g)
        data = LikelihoodData.from_points(g, pts)
        b_hat = np.log(40.0 / REGION.area)
        ll_hat = loglik(m, np.array([b_hat]), data)[0]
        for db in (-0.1, -0.01, 0.01, 0.1):
            assert loglik(m, np.array([b_hat + db]), data)[0] < ll_hat

    def test_point_in_zero_effort_cell_rejected(self):
        g = build_grid(REGION, 2, 2)
        off = Raster(g, np.array([[0.0, 0.0], [0.0, -np.inf]]))
        m = IntensityModel(grid=g, log_effort_offset=off)
        data = LikelihoodData.from_points(g, np.array([[75.0, 75.0]]))
        with pytest.raises(DataInconsistencyError):
            loglik(m, np.array([0.0]), data)

    def test_zero_effort_cells_excluded_from_integral(self):
        g = build_grid(REGION, 2, 2)
        off = Raster(g, np.array([[0.0, 0.0], [0.0, -np.inf]]))
        m = IntensityModel(grid=g, log_effort_offset=off)
        data = LikelihoodData.from_points(g, np.empty((0, 2)))
        ll = loglik(m, np.array([0.0]), data)[0]
        # only three active cells of area 2500 contribute
        assert ll == pytest.approx(-3 * 2500.0, rel=1e-12)

    def test_missing_covariate_under_point_rejected(self):
        g = build_grid(REGION, 2, 2)
        vals = np.array([[1.0, np.nan], [0.5, 0.0]])
        env = CovariateBlock(["z"], [Raster(g, vals)])
        m = IntensityModel(grid=g, env=env)
        data = LikelihoodData.from_points(g, np.array([[75.0, 25.0]]))
        with pytest.raises(MissingDataError):
            loglik(m, np.zeros(2), data)


class TestCountLoglik:
    def test_void_matches_riemann(self):
        g = build_grid(REGION, 10, 10)
        m = IntensityModel(grid=g)
        c = 0.07
        counts = LikelihoodData.from_counts(g, np.zeros(100))
        assert loglik(m, np.array([np.log(c)]), counts)[0] == pytest.approx(
            -c * REGION.area, rel=1e-12
        )

    def test_single_cell_oracle(self):
        m, theta, g = unit_cell_model()
        data = LikelihoodData.from_counts(g, np.array([1.0]))
        assert loglik(m, theta, data)[0] == pytest.approx(LOG2_MINUS_2, abs=1e-12)

    def test_poisson_recovery_within_three_se(self):
        g = build_grid(REGION, 20, 20)
        env = xy_block(g)
        true = np.array([np.log(0.03), 0.8, -0.5])
        m = IntensityModel(grid=g, env=env)
        mu = eta(m, true) * g.cell_area
        rng = np.random.default_rng(101)
        counts = rng.poisson(mu).astype(float)
        fit = fit_mle(m, LikelihoodData.from_counts(g, counts))
        assert fit.converged
        se = fit.stderr()
        for name, truth in zip(fit.names, true):
            assert abs(fit.coefficients[name] - truth) <= 3 * se[name]

    def test_negative_counts_rejected(self):
        g = build_grid(REGION, 2, 2)
        with pytest.raises(ValueError):
            LikelihoodData.from_counts(g, np.array([1.0, -1.0, 0.0, 2.0]))

    def test_raster_off_the_data_grid_rejected(self):
        g = build_grid(REGION, 2, 2)
        shifted = build_grid(StudyRegion(1.0, 101.0, 0.0, 100.0), 2, 2)
        cells = Raster(shifted, np.ones((2, 2)))
        with pytest.raises(GridMismatchError):
            LikelihoodData.from_counts(g, cells)
        with pytest.raises(GridMismatchError):
            LikelihoodData.from_presence(g, cells)
        assert LikelihoodData.from_counts(g, Raster(g, np.ones((2, 2)))).counts.sum() == 4.0

    def test_fractional_counts_rejected(self):
        g = build_grid(REGION, 2, 2)
        with pytest.raises(ValueError):
            LikelihoodData.from_counts(g, np.array([1.0, 0.5, 0.0, 2.0]))


class TestPresenceLoglik:
    def test_all_absent(self):
        g = build_grid(REGION, 10, 10)
        m = IntensityModel(grid=g)
        c = 0.002
        data = LikelihoodData.from_presence(g, np.zeros(100))
        assert loglik(m, np.array([np.log(c)]), data)[0] == pytest.approx(
            -c * REGION.area, rel=1e-12
        )

    def test_certain_presence_contributes_nothing(self):
        m, _, g = unit_cell_model()
        data = LikelihoodData.from_presence(g, np.array([1.0]))
        assert loglik(m, np.array([30.0]), data)[0] == pytest.approx(0.0, abs=1e-10)

    def test_presence_consistent_with_count_mle(self):
        # occupancy of Poisson draws carries the same signal, more noisily
        g = build_grid(REGION, 50, 50)
        env = xy_block(g)
        true = np.array([np.log(0.02), 0.7, -0.4])
        m = IntensityModel(grid=g, env=env)
        mu = eta(m, true) * g.cell_area
        rng = np.random.default_rng(55)
        counts = rng.poisson(mu).astype(float)
        fit_c = fit_mle(m, LikelihoodData.from_counts(g, counts))
        fit_p = fit_mle(m, LikelihoodData.from_presence(g, (counts > 0).astype(float)))
        assert fit_c.converged and fit_p.converged
        assert np.allclose(fit_p.theta, fit_c.theta, atol=0.25)

    def test_nonbinary_presence_rejected(self):
        g = build_grid(REGION, 2, 2)
        with pytest.raises(ValueError):
            LikelihoodData.from_presence(g, np.array([0.0, 2.0, 1.0, 0.0]))


class TestRiemannCountEquivalence:
    def test_up_to_factorial_constant(self):
        # cells of unit area make the two likelihoods comparable
        g = build_grid(StudyRegion(0, 8, 0, 8), 8, 8)
        env = CovariateBlock(
            ["z"], [raster_from_function(g, lambda X, Y: np.sin(X) + 0.1 * Y)]
        )
        m = IntensityModel(grid=g, env=env)
        rng = np.random.default_rng(7)
        counts = rng.poisson(1.5, size=64).astype(float)
        pts = np.repeat(
            np.column_stack([g.center_arrays()[0].ravel(), g.center_arrays()[1].ravel()]),
            counts.astype(int),
            axis=0,
        )
        d_pts = LikelihoodData.from_points(g, pts)
        d_cnt = LikelihoodData.from_counts(g, counts)
        theta = np.array([-0.3, 0.2])
        lr = loglik(m, theta, d_pts)[0]
        lc = loglik(m, theta, d_cnt)[0]
        assert lr == pytest.approx(lc + gammaln(counts + 1.0).sum(), abs=1e-10)


class TestGradients:
    def test_matches_finite_differences_all_kinds(self):
        m = all_blocks_model()
        g = m.grid
        rng = np.random.default_rng(31)
        pts = rng.uniform(0, 100, size=(30, 2))
        mu = eta(m, np.array([np.log(0.01), 0.5, -0.5, 0.2, 0.3])) * g.cell_area
        counts = rng.poisson(np.clip(mu, 0, 20)).astype(float)
        datasets = {
            "points": LikelihoodData.from_points(g, pts),
            "counts": LikelihoodData.from_counts(g, counts),
            "presence": LikelihoodData.from_presence(g, (counts > 0).astype(float)),
        }
        for kind, data in datasets.items():
            for _ in range(10):
                theta = rng.normal(scale=0.4, size=5)
                theta[0] = rng.normal(np.log(0.01), 0.3)
                got = loglik(m, theta, data)[1]
                want = finite_diff_gradient(lambda t: loglik(m, t, data)[0], theta)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.allclose(got, want, rtol=1e-6, atol=1e-6 * scale), kind

    def test_zero_at_homogeneous_mle(self):
        g = build_grid(REGION, 10, 10)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 100, size=(25, 2))
        m = IntensityModel(grid=g)
        data = LikelihoodData.from_points(g, pts)
        grad = loglik(m, np.array([np.log(25.0 / REGION.area)]), data)[1]
        assert np.abs(grad).max() < 1e-8

    def test_intercept_component_identity(self):
        m = all_blocks_model()
        g = m.grid
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 100, size=(12, 2))
        data = LikelihoodData.from_points(g, pts)
        theta = rng.normal(scale=0.3, size=5)
        grad = loglik(m, theta, data)[1]
        expected = 12 - float((eta(m, theta) * g.cell_area).sum())
        assert grad[0] == pytest.approx(expected, rel=1e-10)


def _all_kinds_designs():
    m = all_blocks_model()
    g = m.grid
    rng = np.random.default_rng(71)
    pts = rng.uniform(0, 100, size=(30, 2))
    mu = eta(m, np.array([np.log(0.01), 0.5, -0.5, 0.2, 0.3])) * g.cell_area
    counts = rng.poisson(np.clip(mu, 0, 20)).astype(float)
    datasets = [
        LikelihoodData.from_points(g, pts),
        LikelihoodData.from_counts(g, counts),
        LikelihoodData.from_presence(g, (counts > 0).astype(float)),
    ]
    return [_Design(m, data) for data in datasets]


ALL_KINDS = _all_kinds_designs()


class TestObservedInformation:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from([0, 1, 2]),
        intercept=st.floats(np.log(0.01) - 1.0, np.log(0.01) + 1.0),
        rest=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    )
    def test_equals_minus_central_differences_of_gradient(self, kind, intercept, rest):
        d = ALL_KINDS[kind]
        theta = np.array([intercept, *rest])
        _, _, info = d.loglik_grad(theta)
        fd = np.zeros_like(info)
        for k in range(len(theta)):
            e = np.zeros_like(theta)
            e[k] = 1e-6
            fd[:, k] = (d.loglik_grad(theta + e)[1] - d.loglik_grad(theta - e)[1]) / 2e-6
        scale = max(1.0, float(np.max(np.abs(info))))
        assert np.max(np.abs(info + fd)) <= 1e-6 * scale, d.kind


class TestFitMle:
    def test_homogeneous_closed_form(self):
        g = build_grid(REGION, 10, 10)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 100, size=(60, 2))
        m = IntensityModel(grid=g)
        fit = fit_mle(m, LikelihoodData.from_points(g, pts))
        assert fit.converged
        assert fit.coefficients["env:intercept"] == pytest.approx(
            np.log(60.0 / REGION.area), abs=1e-8
        )

    def test_duplicate_covariates_flag_singular(self):
        g = build_grid(REGION, 10, 10)
        z = raster_from_function(g, lambda X, Y: X / 100.0)
        env = CovariateBlock(["a", "b"], [z, z.copy()])
        m = IntensityModel(grid=g, env=env)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 100, size=(30, 2))
        fit = fit_mle(m, LikelihoodData.from_points(g, pts))
        assert fit.singular_information

    def test_flat_coefficient_stays_at_start(self):
        """A covariate that is zero everywhere leaves a zero row in the information."""
        g = build_grid(REGION, 10, 10)
        env = CovariateBlock(
            ["zero", "x"],
            [constant_raster(g, 0.0), raster_from_function(g, lambda X, Y: X / 100.0)],
        )
        m = IntensityModel(grid=g, env=env)
        pts = np.random.default_rng(10).uniform(0, 100, size=(40, 2))
        fit = fit_mle(m, LikelihoodData.from_points(g, pts))
        assert fit.converged
        assert fit.coefficients["env:zero"] == 0.0
        assert fit.singular_information

    def test_nonconvergence_flagged(self):
        g = build_grid(REGION, 10, 10)
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 100, size=(40, 2))
        m = IntensityModel(grid=g, env=xy_block(g))
        fit = fit_mle(m, LikelihoodData.from_points(g, pts), maxiter=1)
        assert not fit.converged

    def test_concavity_many_starts(self):
        """Log-linear likelihoods have one optimum; all starts must find it."""
        g = build_grid(REGION, 15, 15)
        m = IntensityModel(grid=g, env=xy_block(g))
        rng = np.random.default_rng(44)
        pts = np.column_stack(
            [np.clip(rng.normal(45, 20, 70), 0, 100), np.clip(rng.normal(60, 15, 70), 0, 100)]
        )
        data = LikelihoodData.from_points(g, pts)
        solutions = []
        for k in range(10):
            start = np.random.default_rng(k).normal(scale=1.5, size=3)
            fit = fit_mle(m, data, start=start)
            assert fit.gradient_max_norm < 1e-8
            solutions.append(fit.theta)
        ref = solutions[0]
        for s in solutions[1:]:
            assert np.allclose(s, ref, atol=1e-6)

    def test_offset_invariance(self):
        """Scaling effort by c moves only the intercept, by -log c."""
        g = build_grid(REGION, 12, 12)
        rng = np.random.default_rng(21)
        effort = rng.uniform(0.5, 4.0, size=(12, 12))
        pts = rng.uniform(0, 100, size=(50, 2))
        data = LikelihoodData.from_points(g, pts)
        env = xy_block(g)
        c = 7.3
        fit1 = fit_mle(
            IntensityModel(grid=g, env=env, log_effort_offset=Raster(g, np.log(effort))),
            data,
        )
        fit2 = fit_mle(
            IntensityModel(grid=g, env=env, log_effort_offset=Raster(g, np.log(c * effort))),
            data,
        )
        assert fit1.converged and fit2.converged
        d = fit2.theta - fit1.theta
        assert d[0] == pytest.approx(-np.log(c), abs=1e-8)
        assert np.abs(d[1:]).max() < 1e-8


    def test_matches_bfgs_reference(self):
        """Damped Newton and scipy BFGS find the same quadratic-env optimum."""
        g = build_grid(REGION, 30, 30)
        rng = np.random.default_rng(17)
        off = Raster(g, np.log(rng.uniform(0.2, 3.0, size=(30, 30))))
        m = IntensityModel(grid=g, env=QuadraticDesign(g).block(), log_effort_offset=off)
        pts = np.clip(rng.normal([40.0, 60.0], [15.0, 20.0], size=(200, 2)), 0.0, 100.0)
        data = LikelihoodData.from_points(g, pts)
        fit = fit_mle(m, data)
        assert fit.converged

        def negll_grad(theta):
            return -loglik(m, theta, data)[0], -loglik(m, theta, data)[1]

        ref = minimize(
            negll_grad, np.zeros(m.n_parameters), jac=True, method="BFGS",
            options={"gtol": 1e-9, "maxiter": 2000, "norm": np.inf},
        )
        assert np.max(np.abs(ref.jac)) < 1e-7
        assert np.allclose(fit.theta, ref.x, rtol=0.0, atol=1e-6)
        assert fit.loglik == pytest.approx(-ref.fun, abs=1e-9)

    def test_damping_recovers_from_indefinite_information(self):
        """Presence with detection: a start where the information is indefinite."""
        g = build_grid(REGION, 20, 20)
        env = CovariateBlock(["u"], [raster_from_function(g, lambda X, Y: (X - 50.0) / 50.0)])
        det = CovariateBlock(["w"], [raster_from_function(g, lambda X, Y: (Y - 30.0) / 50.0)])
        m = IntensityModel(grid=g, env=env, detection=det)
        mu = eta(m, np.array([np.log(0.02), 0.6, 1.5])) * g.cell_area
        occ = (np.random.default_rng(9).poisson(mu) > 0).astype(float)
        data = LikelihoodData.from_presence(g, occ)
        start = np.array([0.0, 0.0, 4.0])
        _, _, info = _Design(m, data).loglik_grad(start)
        assert np.linalg.eigvalsh(info).min() < 0.0
        fit = fit_mle(m, data, start=start)
        assert fit.converged and fit.gradient_max_norm < 1e-8
        assert np.allclose(fit.theta, fit_mle(m, data).theta, atol=1e-6)
        assert np.all(np.linalg.eigvalsh(np.linalg.inv(fit.covariance)) > 0.0)

    def test_non_finite_start_reported_not_raised(self):
        g = build_grid(REGION, 10, 10)
        m = IntensityModel(grid=g)
        pts = np.random.default_rng(5).uniform(0, 100, size=(20, 2))
        fit = fit_mle(m, LikelihoodData.from_points(g, pts), start=np.array([800.0]))
        assert not fit.converged
        assert fit.loglik == -np.inf
        assert np.isnan(fit.gradient_max_norm)

    def test_dimension_mismatch_rejected(self):
        g = build_grid(REGION, 10, 10)
        pts = np.random.default_rng(3).uniform(0, 100, size=(20, 2))
        m = IntensityModel(grid=g, env=xy_block(g))
        with pytest.raises(ValueError, match="start must have 3 entries"):
            fit_mle(m, LikelihoodData.from_points(g, pts), start=np.zeros(5))

    @pytest.mark.parametrize("kind", ["points", "counts", "presence", "presence-everywhere"])
    def test_no_events_refused(self, kind):
        # presence on every active cell walks the intercept toward +inf, as
        # no events walk it toward -inf: neither fit has a maximum
        g = build_grid(REGION, 10, 10)
        empty = {
            "points": LikelihoodData.from_points(g, np.empty((0, 2))),
            "counts": LikelihoodData.from_counts(g, np.zeros(g.ncells)),
            "presence": LikelihoodData.from_presence(g, np.zeros(g.ncells)),
            "presence-everywhere": LikelihoodData.from_presence(g, np.ones(g.ncells)),
        }[kind]
        why = "no absences" if kind == "presence-everywhere" else "no events"
        m = IntensityModel(grid=g)
        with pytest.raises(DataInconsistencyError, match=why):
            fit_mle(m, empty)
        assert np.isfinite(loglik(m, np.zeros(1), empty)[0])


class TestPredictIntensity:
    def test_intercept_only_constant(self):
        g = build_grid(REGION, 5, 5)
        m = IntensityModel(grid=g)
        r = predict_intensity(m, np.array([np.log(2.0)]))
        assert np.allclose(r.values, 2.0)

    def test_independent_of_effort_inputs(self):
        g = build_grid(REGION, 6, 6)
        env = xy_block(g)
        rng = np.random.default_rng(12)
        off_a = Raster(g, rng.uniform(-2, 2, size=(6, 6)))
        off_b = Raster(g, rng.uniform(-2, 2, size=(6, 6)))
        theta = np.array([-2.0, 0.5, 0.1])
        ra = predict_intensity(IntensityModel(grid=g, env=env, log_effort_offset=off_a), theta)
        rb = predict_intensity(IntensityModel(grid=g, env=env, log_effort_offset=off_b), theta)
        assert np.array_equal(ra.values, rb.values)

    def test_detection_pinned_at_constant(self):
        g = build_grid(REGION, 4, 4)
        det = CovariateBlock(["w"], [raster_from_function(g, lambda X, Y: X)])
        m = IntensityModel(grid=g, detection=det)
        theta = np.array([0.0, 0.8])
        r = predict_intensity(m, theta, fix_detection=1.5)
        expect = 1.0 / (1.0 + np.exp(-0.8 * 1.5))
        assert np.allclose(r.values, expect)

    def test_effort_covariate_pinned(self):
        g = build_grid(REGION, 4, 4)
        eff = CovariateBlock(["e"], [raster_from_function(g, lambda X, Y: Y)])
        m = IntensityModel(grid=g, effort=eff)
        r = predict_intensity(m, np.array([0.0, 0.25]), fix_effort=2.0)
        assert np.allclose(r.values, np.exp(0.5))


class TestModelValidation:
    def test_covariate_block_checks(self):
        g = build_grid(REGION, 3, 3)
        z = constant_raster(g, 1.0)
        with pytest.raises(ValueError):
            CovariateBlock(["a", "a"], [z, z.copy()])
        g2 = build_grid(REGION, 4, 4)
        with pytest.raises(GridMismatchError):
            CovariateBlock(["a", "b"], [z, constant_raster(g2, 1.0)])

    def test_model_grid_consistency(self):
        g = build_grid(REGION, 3, 3)
        g2 = build_grid(REGION, 4, 4)
        env = CovariateBlock(["a"], [constant_raster(g2, 1.0)])
        with pytest.raises(GridMismatchError):
            IntensityModel(grid=g, env=env)

    def test_data_model_grid_mismatch(self):
        g = build_grid(REGION, 3, 3)
        g2 = build_grid(REGION, 4, 4)
        m = IntensityModel(grid=g)
        data = LikelihoodData.from_points(g2, np.array([[50.0, 50.0]]))
        with pytest.raises(GridMismatchError):
            loglik(m, np.array([0.0]), data)

    def test_reserved_intercept_name(self):
        g = build_grid(REGION, 3, 3)
        env = CovariateBlock(["intercept"], [constant_raster(g, 1.0)])
        with pytest.raises(ValueError):
            IntensityModel(grid=g, env=env)
