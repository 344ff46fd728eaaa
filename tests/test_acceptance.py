"""End-to-end acceptance checks for the simulation study and numerical core.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and asserts the same condition. The replicated study settings are shared
module-scope fixtures, run with EFFORTUD_WORKERS worker processes, or one
per CPU when it is unset; the whole module takes a few minutes on four cores.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.special import gammaln

from effortud.analysis import exceedance_map
from effortud.experiment import ExperimentConfig, run_experiment, write_metrics_json
from effortud.geometry import Raster, StudyRegion, build_grid, cells_of, raster_from_function
from effortud.inference import (
    CovariateBlock,
    FitResult,
    IntensityModel,
    LikelihoodData,
    fit_mle,
    loglik,
)
from effortud.movement import (
    BivariateNormalPotential,
    CustomPotential,
    HalfNormalYPotential,
    MovementSpec,
    analytic_ud,
    simulate_trajectory,
)

pytestmark = pytest.mark.slow

REGION = StudyRegion(0.0, 100.0, 0.0, 100.0)

# One strongly habit-driven observer searching from the north: the raw
# encounter pattern drags the estimated UD toward the observer's waters.
HIGH = ExperimentConfig(
    label="high-bias",
    region=REGION,
    nx=100,
    ny=100,
    animal_center=(50.0, 50.0),
    animal_potential_variance=200.0,
    animal_bm_variance=2.0,
    n_mobile=1,
    n_static=0,
    observer_bm_variance=2.0,
    observer_center_y=100.0,
    observer_potential_variance=400.0,
    true_range=10.0,
    true_mode="linear-decay",
    n_trips=150,
    max_steps=500,
    assumed_range=10.0,
    detection_modeled=True,
    overlap=False,
    effort_floor=1e-6,
    replicates=20,
    base_seed=47,
)
# Same data, wrong assumed detection range at analysis time.
RANGE2 = dataclasses.replace(HIGH, label="range-2", assumed_range=2.0)
RANGE50 = dataclasses.replace(HIGH, label="range-50", assumed_range=50.0)
# Twenty fast wide-ranging observers cover the region almost evenly.
LOW20 = dataclasses.replace(
    HIGH,
    label="low-bias-20",
    n_mobile=20,
    observer_bm_variance=8.0,
    observer_potential_variance=1600.0,
    base_seed=23,
)
# An animal moving as fast as the observers search; joint coverage of the
# twenty fields of view is what the overlap correction accounts for.
FAST = dataclasses.replace(
    HIGH,
    label="fast-animal",
    n_mobile=20,
    animal_potential_variance=400.0,
    animal_bm_variance=400.0,
    overlap=True,
)


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def _covers_zero(iv) -> bool:
    return iv.lo <= 0.0 <= iv.hi


@pytest.fixture(scope="module")
def high_result():
    t0 = time.time()
    res = run_experiment(HIGH)
    return res, time.time() - t0


@pytest.fixture(scope="module")
def range2_result():
    return run_experiment(RANGE2)


@pytest.fixture(scope="module")
def range50_result():
    return run_experiment(RANGE50)


@pytest.fixture(scope="module")
def low20_result():
    return run_experiment(LOW20)


@pytest.fixture(scope="module")
def fast_result():
    return run_experiment(FAST)


def test_c1_correction_lowers_mspe_under_biased_search(high_result):
    res, wall = high_result
    unc = res.summaries["mspe_uncorrected"]
    corr = res.summaries["mspe_corrected"]
    ordered = corr.median < unc.median
    disjoint = corr.hi < unc.lo or unc.hi < corr.lo
    separated = disjoint or corr.hi < unc.median
    in_time = wall < 600.0
    _report(
        "C1 mspe-ordering",
        ordered and separated and in_time,
        f"corrected median {corr.median:.3g} (hi {corr.hi:.3g}) vs "
        f"uncorrected median {unc.median:.3g} (lo {unc.lo:.3g}); {wall:.0f}s",
    )


def test_c2_correction_shrinks_center_bias(high_result):
    res, _ = high_result
    unc = res.summaries["bias_uncorrected"].median
    corr = res.summaries["bias_corrected"].median
    ok = unc > 0.0 and abs(corr) < abs(unc)
    _report(
        "C2 bias-direction",
        ok,
        f"uncorrected median bias {unc:+.2f}, corrected {corr:+.2f}",
    )


def test_c3_many_even_observers_need_no_correction(low20_result):
    unc = low20_result.summaries["mspe_uncorrected"].median
    corr = low20_result.summaries["mspe_corrected"].median
    _report(
        "C3 low-bias-reversal",
        unc <= corr,
        f"uncorrected median {unc:.3g} <= corrected median {corr:.3g}",
    )


def test_c4_overlap_correction_for_fast_animal(fast_result):
    over = fast_result.summaries["bias_overlap"]
    plain = fast_result.summaries["bias_corrected"]
    ok = _covers_zero(over) and (
        not _covers_zero(plain) or abs(plain.median) > abs(over.median)
    )
    _report(
        "C4 overlap-correction",
        ok,
        f"overlap [{over.lo:+.1f}, {over.hi:+.1f}] median {over.median:+.2f}; "
        f"plain [{plain.lo:+.1f}, {plain.hi:+.1f}] median {plain.median:+.2f}",
    )


def test_c5_assumed_range_misspecification_direction(
    high_result, range2_result, range50_result
):
    res, _ = high_result
    b2 = range2_result.summaries["bias_corrected"].median
    b10 = res.summaries["bias_corrected"].median
    b50 = range50_result.summaries["bias_corrected"].median
    ok = b2 < 0.0 and b50 > 0.0 and abs(b10) < min(abs(b2), abs(b50))
    _report(
        "C5 range-misspecification",
        ok,
        f"assumed 2 -> {b2:+.2f}, assumed 10 -> {b10:+.2f}, assumed 50 -> {b50:+.2f}",
    )


def _mean_step(spec, start, seed, n=100_000):
    traj = simulate_trajectory(spec, start, n, REGION, np.random.default_rng(seed))
    d = np.diff(traj.positions, axis=0)
    return float(np.mean(np.hypot(d[:, 0], d[:, 1])))


def test_c6_movement_step_calibration():
    flat = CustomPotential(
        lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x, y: (
            np.zeros_like(np.asarray(x, dtype=float)),
            np.zeros_like(np.asarray(y, dtype=float)),
        ),
    )
    m2 = _mean_step(
        MovementSpec(BivariateNormalPotential((50.0, 50.0), 200.0), 2.0), (50.0, 50.0), 101
    )
    m8 = _mean_step(
        MovementSpec(HalfNormalYPotential(100.0, 1600.0), 8.0), (50.0, 80.0), 102
    )
    m400 = _mean_step(MovementSpec(flat, 400.0), (50.0, 50.0), 103)
    ok = abs(m2 - 1.77) <= 0.05 and abs(m8 - 3.54) <= 0.1 and abs(m400 - 23.0) <= 1.5
    _report(
        "C6 step-calibration",
        ok,
        f"step variance 2 -> {m2:.3f}, 8 -> {m8:.3f}, reflected 400 -> {m400:.2f}",
    )


def test_c7_occupancy_matches_analytic_density():
    animal = MovementSpec(BivariateNormalPotential((50.0, 50.0), 200.0), 2.0)
    traj = simulate_trajectory(animal, (50.0, 50.0), 1_000_000, REGION, np.random.default_rng(7))
    g = build_grid(REGION, 20, 20)
    idx = cells_of(g, traj.positions[:, 0], traj.positions[:, 1])
    occ = np.bincount(idx, minlength=g.ncells) / len(traj.positions)
    truth = analytic_ud(animal.potential, g).flat * g.cell_area
    tv = 0.5 * float(np.abs(occ - truth).sum())
    _report("C7 stationarity", tv < 0.05, f"total variation {tv:.4f} over 20x20 cells")


def test_c8_numerical_core():
    problems = []

    # analytic gradients vs central differences, all three likelihood kinds
    g = build_grid(REGION, 100, 100)
    env = CovariateBlock(
        ["u", "v"],
        [
            raster_from_function(g, lambda X, Y: (X - 50.0) / 50.0),
            raster_from_function(g, lambda X, Y: (Y - 50.0) / 50.0),
        ],
    )
    det = CovariateBlock(["w"], [raster_from_function(g, lambda X, Y: np.cos(X / 20.0))])
    eff = CovariateBlock(["e"], [raster_from_function(g, lambda X, Y: Y / 100.0)])
    off = raster_from_function(g, lambda X, Y: 0.005 * X)
    model = IntensityModel(grid=g, env=env, detection=det, effort=eff, log_effort_offset=off)
    rng = np.random.default_rng(314)
    pts = rng.uniform(0, 100, size=(120, 2))
    lam = np.exp(rng.normal(np.log(0.01), 0.2)) * np.ones(g.ncells)
    counts = rng.poisson(lam * g.cell_area).astype(float)
    datasets = [
        ("points", LikelihoodData.from_points(g, pts)),
        ("counts", LikelihoodData.from_counts(g, counts)),
        ("presence", LikelihoodData.from_presence(g, (counts > 0) * 1.0)),
    ]
    worst = 0.0
    for k in range(50):
        theta = rng.normal(scale=0.4, size=5)
        theta[0] = rng.normal(np.log(0.01), 0.3)
        for kind, data in datasets:
            got = loglik(model, theta, data)[1]
            fd = np.zeros_like(theta)
            for j in range(len(theta)):
                e = np.zeros_like(theta)
                e[j] = 1e-6
                fd[j] = (loglik(model, theta + e, data)[0] - loglik(model, theta - e, data)[0]) / 2e-6
            scale = max(1.0, float(np.max(np.abs(fd))))
            rel = float(np.max(np.abs(got - fd))) / scale
            worst = max(worst, rel)
            if rel > 1e-6:
                problems.append(f"gradient {kind} point {k} rel {rel:.2e}")

    # homogeneous closed form: fitted rate equals points per unit weight
    n = 200
    uniform = rng.uniform(0, 100, size=(n, 2))
    fit = fit_mle(IntensityModel(grid=g), LikelihoodData.from_points(g, uniform))
    rate_err = abs(float(np.exp(fit.theta[0])) - n / 10_000.0)
    if rate_err > 1e-8:
        problems.append(f"homogeneous rate off by {rate_err:.2e}")

    # point likelihood equals count likelihood plus the factorial constant
    g8 = build_grid(StudyRegion(0, 8, 0, 8), 8, 8)
    env8 = CovariateBlock(
        ["z"], [raster_from_function(g8, lambda X, Y: np.sin(X) + 0.1 * Y)]
    )
    m8 = IntensityModel(grid=g8, env=env8)
    c8 = rng.poisson(1.5, size=64).astype(float)
    X8, Y8 = g8.center_arrays()
    pts8 = np.repeat(
        np.column_stack([X8.ravel(), Y8.ravel()]), c8.astype(int), axis=0
    )
    const = float(gammaln(c8 + 1.0).sum())
    d_pts = LikelihoodData.from_points(g8, pts8)
    d_cnt = LikelihoodData.from_counts(g8, c8)
    eq_err = 0.0
    for _ in range(5):
        th = rng.normal(scale=0.3, size=2)
        lr = loglik(m8, th, d_pts)[0]
        lc = loglik(m8, th, d_cnt)[0]
        eq_err = max(eq_err, abs(lr - (lc + const)))
    if eq_err > 1e-10:
        problems.append(f"riemann vs count off by {eq_err:.2e}")

    # scaling the effort offset by c shifts only the intercept, by -log c
    g50 = build_grid(REGION, 50, 50)
    env50 = CovariateBlock(
        ["u", "v"],
        [
            raster_from_function(g50, lambda X, Y: (X - 50.0) / 50.0),
            raster_from_function(g50, lambda X, Y: (Y - 50.0) / 50.0),
        ],
    )
    effort_vals = rng.uniform(0.5, 4.0, size=(50, 50))
    pts50 = rng.uniform(0, 100, size=(150, 2))
    data50 = LikelihoodData.from_points(g50, pts50)
    c = 3.7
    f1 = fit_mle(
        IntensityModel(grid=g50, env=env50, log_effort_offset=Raster(g50, np.log(effort_vals))),
        data50,
    )
    f2 = fit_mle(
        IntensityModel(
            grid=g50, env=env50, log_effort_offset=Raster(g50, np.log(c * effort_vals))
        ),
        data50,
    )
    d = f2.theta - f1.theta
    off_err = max(abs(float(d[0]) + np.log(c)), float(np.max(np.abs(d[1:]))))
    if off_err > 1e-8:
        problems.append(f"offset invariance off by {off_err:.2e}")

    _report(
        "C8 numerical-core",
        not problems,
        "; ".join(problems) if problems else f"worst gradient rel {worst:.1e}, "
        f"rate err {rate_err:.1e}, equivalence err {eq_err:.1e}, "
        f"offset err {off_err:.1e}",
    )


def test_c9_exceedance_semantics():
    g = build_grid(REGION, 100, 100)
    # strictly increasing cell values, so the threshold never ties
    z = raster_from_function(g, lambda X, Y: (X + 1000.0 * Y) / 1000.0)
    model = IntensityModel(
        grid=g, env=CovariateBlock(["z"], [z])
    )
    fit = FitResult(
        names=["env:intercept", "env:z"],
        theta=np.array([0.0, 0.05]),
        loglik=0.0,
        converged=True,
        iterations=1,
        covariance=np.zeros((2, 2)),
    )
    emap = exceedance_map(model, fit, np.random.default_rng(0), percentile=70.0, n_samples=25)
    vals = emap.probabilities.values
    exact = set(np.unique(vals)) == {0.0, 1.0} and int(vals.sum()) == 3000

    # two competing slopes so the flagged region varies across draws
    env_uv = CovariateBlock(
        ["u", "v"],
        [
            raster_from_function(g, lambda X, Y: (X - 50.0) / 50.0),
            raster_from_function(g, lambda X, Y: (Y - 50.0) / 50.0),
        ],
    )
    model_uv = IntensityModel(grid=g, env=env_uv)
    fit_u = FitResult(
        names=["env:intercept", "env:u", "env:v"],
        theta=np.array([0.0, 0.5, 0.5]),
        loglik=0.0,
        converged=True,
        iterations=1,
        covariance=np.diag([0.1, 0.05, 0.05]),
    )
    emap_u = exceedance_map(
        model_uv, fit_u, np.random.default_rng(8), n_samples=400, cutoff=0.95
    )
    probs = emap_u.probabilities.values
    masked = emap_u.masked().values
    keep = probs >= 0.95
    cellwise = bool(
        np.array_equal(masked[keep], probs[keep]) and np.all(np.isnan(masked[~keep]))
    )
    nontrivial = 0 < int(keep.sum()) < keep.size
    _report(
        "C9 exceedance",
        exact and cellwise and nontrivial,
        f"degenerate map flags {int(vals.sum())}/10000 cells; "
        f"cutoff keeps {int(keep.sum())} cells, masking cellwise {cellwise}",
    )


def test_c10_identical_seeds_identical_outputs(tmp_path):
    cfg = dataclasses.replace(
        HIGH, label="determinism", nx=25, ny=25, n_trips=30, max_steps=150,
        true_range=30.0, assumed_range=30.0, replicates=2,
    )
    p1, p2 = tmp_path / "run1.json", tmp_path / "run2.json"
    write_metrics_json(run_experiment(cfg, workers=2), p1)
    write_metrics_json(run_experiment(cfg, workers=1), p2)
    same = p1.read_bytes() == p2.read_bytes()
    _report(
        "C10 determinism",
        same,
        f"metrics files identical across runs: {same} ({p1.stat().st_size} bytes)",
    )
