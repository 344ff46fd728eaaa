"""Model-spec and fit-result JSON files."""

import json
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effortud import model_io
from effortud.errors import ConfigError, GridMismatchError, NotConvergedError
from effortud.experiment import config_from_dict
from effortud.geometry import Raster, StudyRegion, build_grid, constant_raster, raster_from_function
from effortud.inference import (
    FitResult,
    IntensityModel,
    LikelihoodData,
    _covariance_from_info,
    fit_mle,
)
from effortud.model_io import (
    ModelSpec,
    read_fit_json,
    read_model_spec,
    read_raster,
    write_fit_json,
    write_raster,
)
from effortud.raster_io import write_ascii_grid, write_raster_csv

REGION = StudyRegion(0.0, 100.0, 0.0, 100.0)


def write_spec(tmp_path, doc, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def small_grid_doc():
    return {"region": {"xmin": 0, "xmax": 100, "ymin": 0, "ymax": 100}, "grid": {"nx": 5, "ny": 5}}


class TestReadModelSpec:
    def test_minimal_defaults(self, tmp_path):
        ms = read_model_spec(write_spec(tmp_path, {}))
        assert isinstance(ms, ModelSpec)
        m = ms.model
        assert m.grid.nx == 100 and m.grid.ny == 100
        assert m.grid.region == REGION
        assert m.intercept and m.n_parameters == 1
        assert ms.gtol == 1e-8 and ms.maxiter == 500

    def test_builtin_quadratic_env(self, tmp_path):
        doc = {**small_grid_doc(), "env": {"builtin": "quadratic"}}
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert ms.model.parameter_names() == [
            "env:intercept", "env:qx", "env:qy", "env:qx2", "env:qy2", "env:qxy",
        ]

    def test_unknown_builtin_rejected(self, tmp_path):
        doc = {**small_grid_doc(), "env": {"builtin": "cubic"}}
        with pytest.raises(ConfigError):
            read_model_spec(write_spec(tmp_path, doc))

    def test_env_covariates_from_csv(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        z = raster_from_function(g, lambda X, Y: X / 100.0)
        write_raster_csv(z, tmp_path / "z.csv")
        doc = {**small_grid_doc(), "env": {"covariates": [{"name": "z", "path": "z.csv"}]}}
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert ms.model.parameter_names() == ["env:intercept", "env:z"]
        assert np.allclose(ms.model.env.rasters[0].values, z.values)

    def test_env_plain_list_form(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        write_raster_csv(constant_raster(g, 1.5), tmp_path / "z.csv")
        doc = {**small_grid_doc(), "env": [{"name": "z", "path": "z.csv"}]}
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert "env:z" in ms.model.parameter_names()

    def test_paths_resolve_relative_to_spec_file(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        g = build_grid(REGION, 5, 5)
        write_raster_csv(constant_raster(g, 2.0), sub / "z.csv")
        doc = {**small_grid_doc(), "env": [{"name": "z", "path": "z.csv"}]}
        ms = read_model_spec(write_spec(sub, doc))
        assert np.allclose(ms.model.env.rasters[0].values, 2.0)

    def test_ascii_raster_dispatch(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        z = raster_from_function(g, lambda X, Y: Y / 100.0)
        write_ascii_grid(z, tmp_path / "z.asc")
        doc = {**small_grid_doc(), "env": [{"name": "z", "path": "z.asc"}]}
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert np.allclose(ms.model.env.rasters[0].values, z.values)

    def test_detection_block_and_link(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        write_raster_csv(constant_raster(g, 0.5), tmp_path / "vis.csv")
        doc = {
            **small_grid_doc(),
            "detection": {"link": "logistic", "covariates": [{"name": "vis", "path": "vis.csv"}]},
        }
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert "det:vis" in ms.model.parameter_names()

    def test_non_logistic_link_rejected(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        write_raster_csv(constant_raster(g, 0.5), tmp_path / "vis.csv")
        doc = {
            **small_grid_doc(),
            "detection": {"link": "probit", "covariates": [{"name": "vis", "path": "vis.csv"}]},
        }
        with pytest.raises(ConfigError, match="probit"):
            read_model_spec(write_spec(tmp_path, doc))

    def test_detection_needs_covariates(self, tmp_path):
        doc = {**small_grid_doc(), "detection": {"link": "logistic"}}
        with pytest.raises(ConfigError):
            read_model_spec(write_spec(tmp_path, doc))

    def test_effort_covariates(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        write_raster_csv(constant_raster(g, 1.0), tmp_path / "day.csv")
        doc = {**small_grid_doc(), "effort_covariates": [{"name": "day", "path": "day.csv"}]}
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert "eff:day" in ms.model.parameter_names()

    def test_offset_logged_with_floor(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        vals = np.full((5, 5), 4.0)
        vals[0, 0] = 0.0
        write_raster_csv(type(constant_raster(g, 0.0))(g, vals), tmp_path / "eff.csv")
        doc = {**small_grid_doc(), "offset": {"path": "eff.csv", "floor": 1e-3}}
        ms = read_model_spec(write_spec(tmp_path, doc))
        off = ms.model.log_effort_offset.values
        assert off[0, 0] == pytest.approx(np.log(1e-3))
        assert off[1, 1] == pytest.approx(np.log(4.0))

    def test_offset_zero_floor_gives_minus_inf(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        vals = np.full((5, 5), 4.0)
        vals[0, 0] = 0.0
        write_raster_csv(type(constant_raster(g, 0.0))(g, vals), tmp_path / "eff.csv")
        doc = {**small_grid_doc(), "offset": {"path": "eff.csv"}}
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert ms.model.log_effort_offset.values[0, 0] == -np.inf

    def test_offset_not_logged(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        write_raster_csv(constant_raster(g, -1.25), tmp_path / "off.csv")
        doc = {**small_grid_doc(), "offset": {"path": "off.csv", "log": False}}
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert np.allclose(ms.model.log_effort_offset.values, -1.25)

    def test_offset_negative_floor_rejected(self, tmp_path):
        g = build_grid(REGION, 5, 5)
        write_raster_csv(constant_raster(g, 1.0), tmp_path / "eff.csv")
        doc = {**small_grid_doc(), "offset": {"path": "eff.csv", "floor": -1.0}}
        with pytest.raises(ConfigError):
            read_model_spec(write_spec(tmp_path, doc))

    def test_offset_needs_path(self, tmp_path):
        doc = {**small_grid_doc(), "offset": {"log": True}}
        with pytest.raises(ConfigError):
            read_model_spec(write_spec(tmp_path, doc))

    def test_rename_and_optimizer(self, tmp_path):
        doc = {**small_grid_doc(), "optimizer": {"gtol": 1e-6, "maxiter": 50}}
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert ms.gtol == 1e-6 and ms.maxiter == 50

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        with pytest.raises(ConfigError):
            read_model_spec(p)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[]")
        with pytest.raises(ConfigError):
            read_model_spec(p)

    def test_covariate_entry_needs_name_and_path(self, tmp_path):
        doc = {**small_grid_doc(), "env": [{"name": "z"}]}
        with pytest.raises(ConfigError):
            read_model_spec(write_spec(tmp_path, doc))

    def test_empty_covariate_list_rejected(self, tmp_path):
        doc = {**small_grid_doc(), "env": {"covariates": []}}
        with pytest.raises(ConfigError):
            read_model_spec(write_spec(tmp_path, doc))

    def test_raster_on_wrong_grid_rejected(self, tmp_path):
        shifted = build_grid(StudyRegion(0.5, 100.5, 0.0, 100.0), 5, 5)  # same shape
        for g in (build_grid(REGION, 4, 4), shifted):
            write_raster_csv(constant_raster(g, 1.0), tmp_path / "z.csv")
            doc = {**small_grid_doc(), "env": [{"name": "z", "path": "z.csv"}]}
            with pytest.raises(GridMismatchError):
                read_model_spec(write_spec(tmp_path, doc))

    @pytest.mark.parametrize(
        "region, nx, ny",
        [
            (StudyRegion(0.1, 7.3, -3.3, 5.9), 7, 9),
            (StudyRegion(0.3, 1.7, 0.0, 1.4), 7, 7),
            (StudyRegion(10.0, 20.0, 0.0, 4.0), 1, 4),
        ],
    )
    def test_csv_rasters_land_on_the_spec_grid(self, tmp_path, region, nx, ny):
        g = build_grid(region, nx, ny)
        z = raster_from_function(g, lambda X, Y: X - 2.0 * Y)
        write_raster_csv(z, tmp_path / "z.csv")
        write_raster_csv(constant_raster(g, 2.0), tmp_path / "eff.csv")
        doc = {
            "region": {"xmin": region.xmin, "xmax": region.xmax,
                       "ymin": region.ymin, "ymax": region.ymax},
            "grid": {"nx": nx, "ny": ny},
            "env": [{"name": "z", "path": "z.csv"}],
            "offset": {"path": "eff.csv"},
        }
        ms = read_model_spec(write_spec(tmp_path, doc))
        assert ms.model.grid == g
        assert ms.model.env.rasters[0].grid == g
        assert np.array_equal(ms.model.env.rasters[0].values, z.values)
        assert np.allclose(ms.model.log_effort_offset.values, np.log(2.0))


# every section a model spec documents, on a 5 x 5 grid; "env" takes one of its three forms
ENVS = [
    {"builtin": "quadratic"},
    {"covariates": [{"name": "z", "path": "z.csv"}]},
    [{"name": "z", "path": "z.csv"}, {"name": "w", "path": "day.csv"}],
]
FULL_SPEC = {
    **small_grid_doc(),
    "intercept": False,
    "detection": {"link": "logistic", "covariates": [{"name": "vis", "path": "vis.csv"}]},
    "effort_covariates": [{"name": "day", "path": "day.csv"}],
    "offset": {"path": "eff.csv", "log": True, "floor": 1e-6},
    "optimizer": {"gtol": 1e-6, "maxiter": 50},
}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    """A directory holding the rasters FULL_SPEC names."""
    root = tmp_path_factory.mktemp("spec")
    g = build_grid(REGION, 5, 5)
    for name in ("z.csv", "vis.csv", "day.csv", "eff.csv"):
        write_raster_csv(raster_from_function(g, lambda X, Y: 1.0 + X / 100.0), root / name)
    return root


def _objects(value, at=()):
    """Every JSON object in ``value``, with its path of keys and indices."""
    if isinstance(value, dict):
        yield at, value
        for k, v in value.items():
            yield from _objects(v, at + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _objects(v, at + (i,))


def _json_path(at):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in at).lstrip(".")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ENVS), st.data())
def test_unknown_key_at_any_depth_names_its_path(spec_dir, env, data):
    doc = json.loads(json.dumps({**FULL_SPEC, "env": env}))
    assert read_model_spec(write_spec(spec_dir, doc)).model.parameter_names()
    at, obj = data.draw(st.sampled_from(list(_objects(doc))))
    key = data.draw(st.text(max_size=8).filter(lambda k: k not in obj))
    obj[key] = data.draw(st.sampled_from([1, "x", None, {}, [{"name": "q"}]]))
    path = _json_path(at + (key,))
    with pytest.raises(ConfigError, match=re.escape(f'model spec: unknown entry "{path}"')):
        read_model_spec(write_spec(spec_dir, doc))


@pytest.mark.parametrize("doc, path", [
    ({"offest": {"path": "eff.csv"}}, "offest"),
    ({"offset": {"path": "eff.csv", "flor": 0.0}}, "offset.flor"),
    ({"env": {"builtin": "quadratic", "degree": 2}}, "env.degree"),
    ({"env": [{"name": "z", "path": "z.csv", "unit": "m"}]}, "env[0].unit"),
    ({"optimizer": {"gtol": 1e-8, "max_iter": 9}}, "optimizer.max_iter"),
    ({"rename": {"env:intercept": "shared"}}, "rename"),
])
def test_misspelt_entry_refused(spec_dir, doc, path):
    with pytest.raises(ConfigError, match=re.escape(f'unknown entry "{path}"')):
        read_model_spec(write_spec(spec_dir, {**small_grid_doc(), **doc}))


def test_module_docstring_example_spec_loads(tmp_path):
    text = model_io.__doc__
    block = text[text.index("\n    {") : text.index("\n    }") + 6]
    doc = json.loads(textwrap.dedent(block))
    g = build_grid(REGION, 100, 100)
    for name in ("vis.csv", "day.csv", "effort.csv"):
        write_raster_csv(constant_raster(g, 1.0), tmp_path / name)
    ms = read_model_spec(write_spec(tmp_path, doc))
    assert ms.maxiter == 500
    assert ms.model.log_effort_offset is not None


def _readme_json(after: str) -> dict:
    """The first JSON block of the README after the text ``after``."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("```json\n", text.index(after)) + len("```json\n")
    return json.loads(text[start : text.index("```", start)])


def test_readme_examples_load(tmp_path):
    cfg = config_from_dict(_readme_json("A minimal study config"))
    assert cfg.label == "demo" and cfg.replicates == 20
    doc = _readme_json("a matching model spec")
    write_raster_csv(constant_raster(build_grid(REGION, 100, 100), 1.0), tmp_path / "effort.csv")
    ms = read_model_spec(write_spec(tmp_path, doc))
    assert ms.model.grid == cfg.grid and ms.model.log_effort_offset is not None


def test_fine_grid_benchmark_spec_loads(tmp_path):
    # the spec perfbench's fine-grid-400 workload writes, on a smaller grid
    g = build_grid(REGION, 8, 8)
    write_raster_csv(constant_raster(g, 2.0), tmp_path / "effort.csv")
    doc = {
        "region": {"xmin": 0.0, "xmax": 100.0, "ymin": 0.0, "ymax": 100.0},
        "grid": {"nx": 8, "ny": 8},
        "env": {"builtin": "quadratic"},
        "offset": {"path": "effort.csv", "log": True, "floor": 1e-6},
        "optimizer": {"gtol": 1e-8, "maxiter": 500},
    }
    ms = read_model_spec(write_spec(tmp_path, doc))
    assert np.allclose(ms.model.log_effort_offset.values, np.log(2.0))


@st.composite
def off_origin_rasters(draw, square: bool):
    """A raster on a random grid away from the origin, with some NaN cells."""
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    # up to 1e7 covers projected coordinates such as UTM northings
    x0, y0 = draw(st.floats(-1e7, 1e7)), draw(st.floats(-1e7, 1e7))
    dx = draw(st.floats(1e-2, 1e2))
    dy = dx if square else draw(st.floats(1e-2, 1e2))
    grid = build_grid(StudyRegion(x0, x0 + nx * dx, y0, y0 + ny * dy), nx, ny)
    values = draw(arrays(float, (ny, nx), elements=st.floats(-1e300, 1e300) | st.just(np.nan)))
    return Raster(grid, values)


class TestRasterRoundTrip:
    """``write_raster`` then ``read_raster(path, grid)`` gives back the grid and values exactly."""

    @settings(max_examples=60, deadline=None)
    @given(raster=off_origin_rasters(square=False))
    def test_csv(self, tmp_path_factory, raster):
        path = tmp_path_factory.mktemp("csv") / "r.csv"
        write_raster(raster, path)
        back = read_raster(path, raster.grid)
        assert back.grid == raster.grid
        assert np.array_equal(back.values, raster.values, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(raster=off_origin_rasters(square=True))
    def test_ascii_keeps_nan(self, tmp_path_factory, raster):
        path = tmp_path_factory.mktemp("asc") / "r.asc"
        if np.any(raster.values == -9999.0):  # the NODATA value would read back as NaN
            with pytest.raises(ValueError, match="NODATA"):
                write_raster(raster, path)
            return
        write_raster(raster, path)
        back = read_raster(path, raster.grid)
        assert back.grid == raster.grid
        assert np.array_equal(back.values, raster.values, equal_nan=True)


class TestFitJson:
    def test_round_trip_real_fit(self, tmp_path):
        g = build_grid(REGION, 8, 8)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 100, size=(30, 2))
        fit = fit_mle(IntensityModel(grid=g), LikelihoodData.from_points(g, pts))
        p = tmp_path / "fit.json"
        write_fit_json(fit, p)
        back = read_fit_json(p)
        assert back.names == fit.names
        assert np.array_equal(back.theta, fit.theta)
        assert back.loglik == fit.loglik
        assert back.converged == fit.converged
        assert back.iterations == fit.iterations
        assert back.gradient_max_norm == fit.gradient_max_norm
        assert back.singular_information == fit.singular_information
        assert np.array_equal(back.covariance, fit.covariance)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        log_scales=st.lists(st.sampled_from([-300, -20, -3, 0, 3, 20, 300]), min_size=6, max_size=6),
        signs=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=6, max_size=6),
    )
    def test_every_written_covariance_reads_back(self, tmp_path_factory, p, seed, log_scales, signs):
        # the inverse of any information matrix, rank-deficient or not, round-trips
        Q = np.linalg.qr(np.random.default_rng(seed).normal(size=(p, p)))[0]
        w = np.array(signs[:p]) * 10.0 ** np.array(log_scales[:p])
        cov, singular = _covariance_from_info((Q * w) @ Q.T)
        fit = FitResult(names=[f"c{i}" for i in range(p)], theta=np.zeros(p), loglik=-1.0,
                        converged=True, iterations=1, covariance=cov,
                        singular_information=singular, gradient_max_norm=0.0)
        path = tmp_path_factory.mktemp("fit") / "fit.json"
        write_fit_json(fit, path)
        assert np.array_equal(read_fit_json(path).covariance, cov)

    @pytest.mark.parametrize(
        "cov",
        [
            [[1.0, 0.5], [-0.5, 1.0]],
            [[0.0, 1.0], [-1.0, 0.0]],
            [[-1e-6, 0.0], [0.0, 1.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[float("nan"), 0.0], [0.0, 1.0]],
            [[float("inf"), 0.0], [0.0, 1.0]],
            [[1.0, 1e308], [-1e308, 1.0]],
        ],
        ids=["asymmetric", "antisymmetric", "negative-diagonal", "indefinite", "nan", "inf",
             "overflowing-asymmetry"],
    )
    @pytest.mark.filterwarnings("error")
    def test_covariance_not_symmetric_psd_refused(self, tmp_path, cov):
        fit = FitResult(names=["a", "b"], theta=np.zeros(2), loglik=-1.0, converged=True,
                        iterations=1, covariance=np.array(cov))
        write_fit_json(fit, tmp_path / "fit.json")
        with pytest.raises(ValueError, match="'covariance'"):
            read_fit_json(tmp_path / "fit.json")

    @pytest.mark.parametrize("text", ["1e400", "-Infinity", "NaN", "1" + "0" * 400])
    def test_theta_not_finite_refused(self, tmp_path, text):
        (tmp_path / "fit.json").write_text(
            f'{{"names": ["a"], "theta": [{text}], "loglik": 0.0, "converged": true, '
            f'"iterations": 1}}'
        )
        with pytest.raises(ValueError, match="'theta'"):
            read_fit_json(tmp_path / "fit.json")

    @pytest.mark.parametrize("loglik", [-np.inf, np.nan])
    def test_fit_without_finite_loglik_not_written(self, tmp_path, loglik):
        # json would write -Infinity or NaN, which strict parsers refuse
        fit = FitResult(names=["a"], theta=np.zeros(1), loglik=loglik, converged=False, iterations=0)
        with pytest.raises(NotConvergedError, match="no finite log likelihood"):
            write_fit_json(fit, tmp_path / "fit.json")
        assert not (tmp_path / "fit.json").exists()

    def test_round_trip_missing_covariance(self, tmp_path):
        fit = FitResult(
            names=["env:intercept"],
            theta=np.array([0.5]),
            loglik=-1.0,
            converged=False,
            iterations=3,
            covariance=None,
        )
        p = tmp_path / "fit.json"
        write_fit_json(fit, p)
        doc = json.loads(p.read_text())
        assert doc["covariance"] is None
        assert doc["stderr"]["env:intercept"] is None
        assert doc["gradient_max_norm"] is None
        back = read_fit_json(p)
        assert back.covariance is None
        assert np.isnan(back.gradient_max_norm)
        assert np.isnan(back.stderr()["env:intercept"])
