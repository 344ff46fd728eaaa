"""Command-line interface: subcommands, files, exit codes."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effortud.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from effortud.effort import trip_grouped_effort
from effortud.encounters import read_tracks_csv
from effortud.geometry import StudyRegion, build_grid, raster_from_function
from effortud.raster_io import read_raster_csv, write_raster_csv

_DROP = object()  # marks a fit JSON entry to leave out

CONFIG = {
    "label": "cli-toy",
    "grid": {"nx": 25, "ny": 25},
    "animal": {"center": [50.0, 50.0], "potential_variance": 200.0, "bm_variance": 2.0},
    "observers": {"mobile": 1, "static": 0, "bias": "high"},
    "detection": {"range": 30.0, "mode": "linear-decay"},
    "study": {"n_trips": 30, "max_steps": 150},
    "analyst": {"assumed_range": 30.0, "detection_modeled": True, "effort_floor": 1e-6},
    "replicates": 2,
    "base_seed": 47,
}


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    """One simulated study shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    out = root / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    return {"root": root, "config": cfg, "out": out, "manifest": manifest}


class TestSimulate:
    def test_manifest_and_files(self, sim):
        man = sim["manifest"]
        assert man["label"] == "cli-toy"
        assert man["base_seed"] == 47
        assert len(man["replicates"]) == 2
        for entry in man["replicates"]:
            enc = sim["out"] / entry["encounters"]
            trk = sim["out"] / entry["tracks"]
            assert enc.exists() and trk.exists()
            n_rows = len(enc.read_text().strip().splitlines()) - 1
            assert n_rows == entry["n_encounters"]
        assert man["replicates"][0]["seed"] == 47
        assert man["replicates"][1]["seed"] == 47 ^ 1

    def test_byte_identical_rerun(self, sim, tmp_path):
        out2 = tmp_path / "again"
        assert main(["simulate", "--config", str(sim["config"]), "--out", str(out2)]) == EXIT_OK
        for name in sorted(p.name for p in sim["out"].iterdir()):
            assert (out2 / name).read_bytes() == (sim["out"] / name).read_bytes(), name

    def test_seed_override_changes_data(self, sim, tmp_path):
        out2 = tmp_path / "seeded"
        code = main(
            ["simulate", "--config", str(sim["config"]), "--out", str(out2), "--seed", "99"]
        )
        assert code == EXIT_OK
        man = json.loads((out2 / "manifest.json").read_text())
        assert man["base_seed"] == 99
        a = (sim["out"] / "encounters_r000.csv").read_bytes()
        b = (out2 / "encounters_r000.csv").read_bytes()
        assert a != b

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_manifest_counts_truncated_trips(self, sim):
        max_steps = CONFIG["study"]["max_steps"]
        for entry in sim["manifest"]["replicates"]:
            tracks = read_tracks_csv(sim["out"] / entry["tracks"])
            full = sum(len(obs[0]) == max_steps + 1 for obs in tracks.values())
            assert entry["n_truncated"] == full == CONFIG["study"]["n_trips"] - entry["n_encounters"]

    def test_animal_outside_region_exit_4(self, tmp_path, capsys):
        # every start proposal falls outside the region, so sampling gives up
        cfg = tmp_path / "config.json"
        far = {**CONFIG["animal"], "center": [1e4, 1e4], "potential_variance": 1.0}
        cfg.write_text(json.dumps({**CONFIG, "animal": far}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "rejection sampling failed" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "experiment"])
@pytest.mark.parametrize(
    "section, entry",
    [
        ("detection", {"mode": "bogus"}),
        ("study", {"n_trips": 0}),
        ("grid", {"nx": 0}),
        ("animal", {"potential_variance": -1}),
        ("observers", {"mobile": -1, "static": 2}),
        ("grid", {"nx": "abc"}),
        ("region", {"xmin": 100.0, "xmax": 0.0}),
        ("region", {"xmax": float("inf")}),
        ("detection", {"range": float("inf")}),
        ("animal", {"bm_variance": float("nan")}),
        ("analyst", {"effort_floor": float("nan")}),
        ("analyst", {"assumed_range": float("nan")}),
        ("observers", {"potential_center_y": float("nan")}),
        ("animal", {"center": [50.0, float("nan")]}),
        ("study", {"n_trips": float("inf")}),
        ("analyst", {"overlap": "no"}),
        ("analyst", {"detection_modeled": "false"}),
        ("animal", {"center": [50.0]}),
        ("animal", {"center": [50, 50, 1]}),
        ("animal", [1, 2]),
        ("observers", {"mobile": 1.7}),
        ("base_seed", 1.5),
        ("grid", {"nx": 10.9}),
    ],
    ids=[
        "detection-mode", "no-trips", "no-columns", "negative-variance", "negative-observers",
        "non-integer-columns", "reversed-region", "infinite-xmax", "infinite-range",
        "nan-animal-variance", "nan-effort-floor", "nan-assumed-range", "nan-observer-center",
        "nan-animal-center", "infinite-trips", "string-overlap", "string-detection-modeled",
        "one-number-center", "three-number-center", "section-not-an-object",
        "fractional-observers", "fractional-seed", "fractional-columns",
    ],
)
def test_malformed_study_config_exit_2(tmp_path, capsys, command, section, entry):
    # a dict entry merges into its section; anything else replaces the section
    value = {**CONFIG.get(section, {}), **entry} if isinstance(entry, dict) else entry
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, section: value}))
    out = ["--out", str(tmp_path / "sim")] if command == "simulate" else [
        "--out-metrics", str(tmp_path / "m.json")]
    assert main([command, "--config", str(cfg), *out]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--xmin", "100", "--xmax", "0"], ["--nx", "0"], ["--xmax", "inf"]]
    + [["--dt", v] for v in ("0", "-1", "nan", "inf")]
    + [["--range", v] for v in ("inf", "nan")],
    ids=[
        "reversed-region", "no-columns", "infinite-xmax", "dt-zero", "dt-negative", "dt-nan",
        "dt-inf", "range-inf", "range-nan",
    ],
)
def test_malformed_effort_grid_exit_2(tmp_path, capsys, flags):
    # the effort command's region and grid flags are read as a study config's
    # are; a range or dt that is not finite and positive is a config error too
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("trip,observer,step,x,y\n0,0,0,50.0,50.0\n")
    out = tmp_path / "e.csv"
    code = main(["effort", "--tracks", str(tracks), "--out", str(out), "--range", "5", *flags])
    assert code == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


class TestEffort:
    def test_matches_library_accumulation(self, sim, tmp_path):
        tracks_csv = sim["out"] / "tracks_r000.csv"
        out = tmp_path / "effort.csv"
        code = main(
            [
                "effort", "--tracks", str(tracks_csv), "--out", str(out),
                "--range", "30", "--nx", "25", "--ny", "25",
            ]
        )
        assert code == EXIT_OK
        grid = build_grid(StudyRegion(0, 100, 0, 100), 25, 25)
        want = trip_grouped_effort(read_tracks_csv(tracks_csv, dt=1.0), grid, 30.0)
        got = read_raster_csv(out)
        assert got.grid == grid
        assert np.allclose(got.values, want.values, rtol=1e-12)
        assert got.values.sum() > 0

    def test_missing_tracks_exit_3(self, tmp_path):
        code = main(
            ["effort", "--tracks", str(tmp_path / "nope.csv"), "--out",
             str(tmp_path / "o.csv"), "--range", "5"]
        )
        assert code == EXIT_DATA

    def test_allocation_failure_exit_2(self, sim, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

        monkeypatch.setattr("effortud.cli.trip_grouped_effort", no_memory)
        out = tmp_path / "e.csv"
        code = main(["effort", "--tracks", str(sim["out"] / "tracks_r000.csv"),
                     "--out", str(out), "--range", "5"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: not enough memory: Unable to allocate 74.5 GiB for an array " \
            "with shape (10000000000,)\n"
        assert not out.exists()


# two trips, ragged observers, positions inside the default region [0, 100]^2
_TRACK_ROWS = [
    ["0", "0", "0", "12.5", "40.0"],
    ["0", "0", "1", "14.0", "43.5"],
    ["0", "0", "2", "17.25", "41.0"],
    ["0", "1", "0", "80.0", "20.0"],
    ["0", "1", "1", "78.5", "22.0"],
    ["1", "0", "0", "50.0", "95.0"],
    ["1", "0", "1", "49.5", "97.75"],
]
_COORDINATES = ["nan", "inf", "-inf", "-0.5", "100.25", "1e308", "0", "100", "0.0", "100.0"]
_IDS = ["1.5", "x", "", "-1", "1e3", " 2", "NaN"]


@st.composite
def mutated_tracks_csv(draw):
    """The seeded tracks CSV with truncated, duplicated, empty and ill-valued rows.

    Coordinates may be NaN, infinite, out of the region or on its edge;
    ids may be non-integers; an extra column, an extra field on one row
    or an empty file may appear.
    """
    if draw(st.integers(0, 9)) == 0:
        return ""
    header = ["trip", "observer", "step", "x", "y"]
    rows = [list(r) for r in _TRACK_ROWS]
    if draw(st.booleans()):
        header.append("note")
        rows = [r + ["7"] for r in rows]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["truncate", "duplicate", "empty", "coordinate", "id", "extra"]))
        col = draw(st.sampled_from([3, 4])) if op == "coordinate" else draw(st.integers(0, 2))
        if op == "truncate":
            rows[i] = rows[i][: draw(st.integers(0, 4))]
        elif op == "duplicate":
            rows.insert(i, list(rows[i]))
        elif op == "empty":
            rows.insert(i, [])
        elif op == "extra":
            rows[i].append("9")
        elif col < len(rows[i]):
            rows[i][col] = draw(st.sampled_from(_COORDINATES if op == "coordinate" else _IDS))
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


@settings(max_examples=50, deadline=None, derandomize=True)
@given(text=mutated_tracks_csv(), mode=st.sampled_from(["detection", "indicator"]))
def test_effort_on_mutated_tracks_exits_cleanly(tmp_path_factory, text, mode):
    # every malformed tracks file is refused with an exit code, never a
    # traceback; what is accepted gives the library's effort raster
    root = tmp_path_factory.mktemp("effort-tracks")
    tracks = root / "tracks.csv"
    tracks.write_text(text)
    grid = build_grid(StudyRegion(0, 100, 0, 100), 10, 10)
    for overlap in (False, True):
        out = root / f"effort-{overlap}.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(
                ["effort", "--tracks", str(tracks), "--out", str(out), "--range", "15",
                 "--mode", mode, "--nx", "10", "--ny", "10"] + (["--overlap"] if overlap else [])
            )
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
        assert "Traceback" not in err.getvalue()
        if code != EXIT_OK:
            assert not out.exists()
            continue
        want = trip_grouped_effort(
            read_tracks_csv(tracks, dt=1.0), grid, 15.0, mode=mode, overlap=overlap
        )
        assert read_raster_csv(out).values.tobytes() == want.values.tobytes()


@pytest.fixture(scope="module")
def homog_fit(sim):
    """Intercept-only fit of replicate 0, shared by predict/exceed tests."""
    root = sim["root"]
    model = root / "homog.json"
    model.write_text(json.dumps({"grid": {"nx": 25, "ny": 25}}))
    out = root / "homog_fit.json"
    enc = sim["out"] / "encounters_r000.csv"
    assert main(["fit", "--model", str(model), "--encounters", str(enc), "--out", str(out)]) == EXIT_OK
    return {"model": model, "fit": out}


class TestFit:
    def test_homogeneous_closed_form(self, sim, homog_fit):
        doc = json.loads(homog_fit["fit"].read_text())
        n = sim["manifest"]["replicates"][0]["n_encounters"]
        assert doc["converged"]
        assert doc["coefficients"]["env:intercept"] == pytest.approx(
            np.log(n / 10_000.0), abs=1e-8
        )

    def test_requires_exactly_one_data_source(self, sim, homog_fit, tmp_path):
        model = str(homog_fit["model"])
        enc = str(sim["out"] / "encounters_r000.csv")
        out = str(tmp_path / "f.json")
        assert main(["fit", "--model", model, "--out", out]) == EXIT_CONFIG
        code = main(
            ["fit", "--model", model, "--encounters", enc, "--counts", enc, "--out", out]
        )
        assert code == EXIT_CONFIG

    def test_missing_encounters_exit_3(self, homog_fit, tmp_path):
        code = main(
            ["fit", "--model", str(homog_fit["model"]), "--encounters",
             str(tmp_path / "gone.csv"), "--out", str(tmp_path / "f.json")]
        )
        assert code == EXIT_DATA

    def test_no_encounters_exit_3(self, homog_fit, tmp_path, capsys):
        # with no events the likelihood has no maximum: refuse, do not report "converged"
        enc = tmp_path / "enc.csv"
        enc.write_text("trip,step,x,y,mark,observer\n")
        out = tmp_path / "f.json"
        code = main(["fit", "--model", str(homog_fit["model"]), "--encounters", str(enc),
                     "--out", str(out)])
        assert code == EXIT_DATA
        assert "no events" in capsys.readouterr().err
        assert not out.exists()

    def test_presence_everywhere_exit_3(self, homog_fit, tmp_path, capsys):
        # occupied on every cell, the intercept walks toward +inf: refuse
        g = build_grid(StudyRegion(0, 100, 0, 100), 25, 25)
        write_raster_csv(raster_from_function(g, lambda X, Y: 1.0 + 0.0 * X), tmp_path / "p.csv")
        out = tmp_path / "f.json"
        code = main(["fit", "--model", str(homog_fit["model"]), "--presence",
                     str(tmp_path / "p.csv"), "--out", str(out)])
        assert code == EXIT_DATA
        assert "no absences" in capsys.readouterr().err
        assert not out.exists()

    def test_quadratic_with_effort_offset_pipeline(self, sim, tmp_path):
        """simulate -> effort -> fit with the offset, end to end."""
        tracks_csv = sim["out"] / "tracks_r000.csv"
        eff = tmp_path / "effort.csv"
        assert main(
            ["effort", "--tracks", str(tracks_csv), "--out", str(eff),
             "--range", "30", "--nx", "25", "--ny", "25"]
        ) == EXIT_OK
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "grid": {"nx": 25, "ny": 25},
            "env": {"builtin": "quadratic"},
            "offset": {"path": "effort.csv", "log": True, "floor": 1e-6},
        }))
        out = tmp_path / "fit.json"
        enc = sim["out"] / "encounters_r000.csv"
        assert main(["fit", "--model", str(model), "--encounters", str(enc),
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["converged"]
        assert set(doc["coefficients"]) == {
            "env:intercept", "env:qx", "env:qy", "env:qx2", "env:qy2", "env:qxy",
        }


class TestPredict:
    def test_normalized_ud_sums_to_one(self, homog_fit, tmp_path):
        out = tmp_path / "ud.csv"
        code = main(["predict", "--model", str(homog_fit["model"]), "--fit",
                     str(homog_fit["fit"]), "--out", str(out)])
        assert code == EXIT_OK
        ud = read_raster_csv(out)
        assert ud.values.sum() * ud.grid.cell_area == pytest.approx(1.0, rel=1e-9)

    def test_intensity_flag_skips_normalization(self, sim, homog_fit, tmp_path):
        out = tmp_path / "intensity.csv"
        code = main(["predict", "--model", str(homog_fit["model"]), "--fit",
                     str(homog_fit["fit"]), "--out", str(out), "--intensity"])
        assert code == EXIT_OK
        n = sim["manifest"]["replicates"][0]["n_encounters"]
        r = read_raster_csv(out)
        assert np.allclose(r.values, n / 10_000.0, rtol=1e-6)

    def test_offset_does_not_move_prediction(self, sim, homog_fit, tmp_path):
        # same fit through a model with and without an effort offset
        g = build_grid(StudyRegion(0, 100, 0, 100), 25, 25)
        write_raster_csv(raster_from_function(g, lambda X, Y: 1.0 + X), tmp_path / "e.csv")
        with_off = tmp_path / "model_off.json"
        with_off.write_text(json.dumps({
            "grid": {"nx": 25, "ny": 25},
            "offset": {"path": "e.csv", "log": True, "floor": 0.0},
        }))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["predict", "--model", str(homog_fit["model"]), "--fit",
                     str(homog_fit["fit"]), "--out", str(a)]) == EXIT_OK
        assert main(["predict", "--model", str(with_off), "--fit",
                     str(homog_fit["fit"]), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_fit_without_theta_exit_3(self, homog_fit, tmp_path, capsys):
        doc = json.loads(homog_fit["fit"].read_text())
        del doc["theta"]
        fit = tmp_path / "no_theta.json"
        fit.write_text(json.dumps(doc))
        code = main(["predict", "--model", str(homog_fit["model"]), "--fit", str(fit),
                     "--out", str(tmp_path / "ud.csv")])
        assert code == EXIT_DATA
        assert "'theta'" in capsys.readouterr().err


class TestExceed:
    @staticmethod
    def _distinct_model(tmp_path):
        g = build_grid(StudyRegion(0, 100, 0, 100), 10, 10)
        z = raster_from_function(g, lambda X, Y: X + 100.0 * Y)
        write_raster_csv(z, tmp_path / "z.csv")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "grid": {"nx": 10, "ny": 10},
            "env": [{"name": "z", "path": "z.csv"}],
        }))
        return model

    def _fit_json(self, tmp_path, covariance, singular=False, **entries):
        doc = {
            "names": ["env:intercept", "env:z"],
            "theta": [0.0, 0.001],
            "loglik": 0.0,
            "converged": True,
            "iterations": 1,
            "gradient_max_norm": 0.0,
            "singular_information": singular,
            "covariance": covariance,
        }
        doc.update(entries)
        p = tmp_path / "fit.json"
        p.write_text(json.dumps({k: v for k, v in doc.items() if v is not _DROP}))
        return p

    def test_degenerate_flags_exact_fraction(self, tmp_path):
        model = self._distinct_model(tmp_path)
        fit = self._fit_json(tmp_path, [[0.0, 0.0], [0.0, 0.0]])
        out = tmp_path / "emap.csv"
        code = main(["exceed", "--model", str(model), "--fit", str(fit),
                     "--out", str(out), "--percentile", "70", "--samples", "40"])
        assert code == EXIT_OK
        v = read_raster_csv(out).values
        assert set(np.unique(v)) == {0.0, 1.0}
        assert int(v.sum()) == 30

    def test_cutoff_masks_below(self, tmp_path):
        model = self._distinct_model(tmp_path)
        fit = self._fit_json(tmp_path, [[0.0, 0.0], [0.0, 0.0]])
        out = tmp_path / "masked.csv"
        code = main(["exceed", "--model", str(model), "--fit", str(fit),
                     "--out", str(out), "--cutoff", "0.95"])
        assert code == EXIT_OK
        v = read_raster_csv(out).values
        assert int(np.nansum(v)) == 30
        assert int(np.isnan(v).sum()) == 70

    def test_singular_covariance_exit_4(self, tmp_path):
        model = self._distinct_model(tmp_path)
        fit = self._fit_json(tmp_path, [[0.1, 0.0], [0.0, 0.0]], singular=True)
        code = main(["exceed", "--model", str(model), "--fit", str(fit),
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize(
        "key, value",
        [
            ("theta", _DROP),
            ("names", _DROP),
            ("loglik", _DROP),
            ("converged", _DROP),
            ("iterations", _DROP),
            ("theta", "0.0 0.001"),
            ("theta", [0.0]),
            ("names", "env:intercept,env:z"),
            ("loglik", None),
            ("converged", "yes"),
            ("iterations", 1.5),
            ("covariance", [[0.0, 0.0]]),
            ("gradient_max_norm", "small"),
        ],
    )
    def test_bad_fit_json_exit_3(self, tmp_path, capsys, key, value):
        model = self._distinct_model(tmp_path)
        entries = {"covariance": [[0.0, 0.0], [0.0, 0.0]], key: value}
        fit = self._fit_json(tmp_path, **entries)
        code = main(["exceed", "--model", str(model), "--fit", str(fit),
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_DATA
        assert repr(key) in capsys.readouterr().err

    def test_not_converged_fit_exit_4(self, tmp_path, capsys):
        model = self._distinct_model(tmp_path)
        fit = self._fit_json(tmp_path, [[0.0, 0.0], [0.0, 0.0]], converged=False,
                             gradient_max_norm=0.25)
        for command in ("predict", "exceed"):
            out = tmp_path / f"{command}.csv"
            code = main([command, "--model", str(model), "--fit", str(fit), "--out", str(out)])
            assert code == EXIT_NUMERIC
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "gradient_max_norm 0.25" in err
            assert not out.exists()

    def test_fit_names_must_match_model(self, tmp_path):
        model = self._distinct_model(tmp_path)
        fit = self._fit_json(tmp_path, [[0.0, 0.0], [0.0, 0.0]], names=["env:intercept", "env:w"])
        args = ["--model", str(model), "--fit", str(fit), "--out", str(tmp_path / "x.csv")]
        assert main(["exceed", *args]) == EXIT_DATA
        assert main(["predict", *args]) == EXIT_DATA

    def test_fit_names_follow_model_rename(self, tmp_path):
        model = self._distinct_model(tmp_path)
        doc = json.loads(model.read_text())
        doc["rename"] = {"env:z": "shared:z"}
        model.write_text(json.dumps(doc))
        fit = self._fit_json(
            tmp_path, [[0.0, 0.0], [0.0, 0.0]], names=["env:intercept", "shared:z"]
        )
        code = main(["predict", "--model", str(model), "--fit", str(fit),
                     "--out", str(tmp_path / "ud.csv")])
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--percentile", "0"),
            ("--percentile", "100"),
            ("--percentile", "nan"),
            ("--percentile", "inf"),
            ("--samples", "0"),
            ("--samples", "-3"),
            ("--cutoff", "nan"),
            ("--cutoff", "2"),
            ("--cutoff", "-0.5"),
            ("--cutoff", "inf"),
        ],
        ids=["percentile-0", "percentile-100", "percentile-nan", "percentile-inf", "samples-0",
             "samples-negative", "cutoff-nan", "cutoff-2", "cutoff-negative", "cutoff-inf"],
    )
    def test_bad_option_exit_2(self, tmp_path, capsys, option, value):
        model = self._distinct_model(tmp_path)
        fit = self._fit_json(tmp_path, [[0.0, 0.0], [0.0, 0.0]])
        out = tmp_path / "x.csv"
        code = main(["exceed", "--model", str(model), "--fit", str(fit),
                     "--out", str(out), option, value])
        assert code == EXIT_CONFIG
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_options_checked_before_files_are_read(self, tmp_path):
        gone = str(tmp_path / "gone.json")
        code = main(["exceed", "--model", gone, "--fit", gone, "--out", str(tmp_path / "x.csv"),
                     "--samples", "0"])
        assert code == EXIT_CONFIG



_FIT_DOC = {
    "names": ["env:intercept", "env:z"],
    "theta": [0.0, 0.001],
    "coefficients": {"env:intercept": 0.0, "env:z": 0.001},
    "stderr": {"env:intercept": 0.1, "env:z": 0.001},
    "loglik": -12.5,
    "converged": True,
    "iterations": 4,
    "gradient_max_norm": 1e-10,
    "singular_information": False,
    "covariance": [[0.01, 1e-5], [1e-5, 1e-6]],
}
_ODD_VALUES = [None, True, "0.5", 3, 2.5, [], {}, ["a"], [[1.0]]]
_ODD_NUMBERS = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10**400, 5e-324, -1.0]


@st.composite
def mutated_fit_json(draw):
    """The text of a valid fit JSON after up to three mutations, sometimes truncated or empty.

    Mutations drop keys, swap an entry to another JSON type, put NaN,
    Infinity, huge or negative numbers into a number, make the covariance
    asymmetric or give it a negative or huge variance, or clear ``converged``.
    """
    if draw(st.integers(0, 9)) == 0:
        return ""
    doc = json.loads(json.dumps(_FIT_DOC))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "swap", "number", "asymmetric", "variance",
                                   "not-converged"]))
        cov = doc.get("covariance")
        square = isinstance(cov, list) and len(cov) == 2 and all(
            isinstance(r, list) and len(r) == 2 for r in cov)
        key = draw(st.sampled_from(sorted(_FIT_DOC)))
        if op == "drop":
            doc.pop(key, None)
        elif op == "swap":
            doc[key] = draw(st.sampled_from(_ODD_VALUES))
        elif op == "number":
            value = draw(st.sampled_from(_ODD_NUMBERS))
            where = draw(st.sampled_from(["theta", "covariance", "loglik", "gradient_max_norm"]))
            i, j = draw(st.integers(0, 1)), draw(st.integers(0, 1))
            if where == "theta" and isinstance(doc.get("theta"), list) and len(doc["theta"]) > i:
                doc["theta"][i] = value
            elif where == "covariance" and square:
                cov[i][j] = value
            elif where in ("loglik", "gradient_max_norm"):
                doc[where] = value
        elif op == "asymmetric" and square:
            v = draw(st.sampled_from([1e-3, 1.0, 1e300]))
            cov[0][1], cov[1][0] = v, -v
        elif op == "variance" and square:
            i = draw(st.integers(0, 1))
            cov[i][i] = draw(st.sampled_from([-1e-12, -1e-6, -1.0, -1e300, 1e6, 1e300]))
        elif op == "not-converged":
            doc["converged"] = False
    text = json.dumps(doc)
    if draw(st.integers(0, 5)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def _fit_text(**entries):
    return json.dumps({**_FIT_DOC, **entries})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=mutated_fit_json())
@example(text=_fit_text(covariance=[[1e300, 1e-5], [1e-5, 1e-6]]))  # draws overflow exp
@example(text=_fit_text(covariance=[[-0.01, 1e-5], [1e-5, 1e-6]]))
@example(text=_fit_text(covariance=[[1e6, 0.0], [0.0, -1e-5]]))  # PSD up to 1e-10 of 1e6
@example(text=_fit_text(covariance=[[0.0, 1.0], [-1.0, 0.0]]))
@example(text=_fit_text(theta=[0.0, 10**400]))
@example(text=_fit_text(theta=[0.0, 1e308]))  # the surface overflows
@example(text=_fit_text(theta=[1e308, -1e306]))  # the log surface reaches +inf and -inf
@example(text=_fit_text(theta=[float("nan"), 0.001]))
@example(text=_fit_text(converged=False)[:-20])
@example(text="")
def test_predict_and_exceed_on_mutated_fit_json_exit_cleanly(tmp_path_factory, text):
    # every malformed fit is refused with an exit code; no traceback, no warning
    root = tmp_path_factory.mktemp("fit-json")
    model = TestExceed._distinct_model(root)
    fit = root / "fit.json"
    fit.write_text(text)
    for command, extra in (("predict", []), ("predict", ["--intensity"]),
                           ("exceed", ["--samples", "20"])):
        out = root / f"{command}.csv"
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, "--model", str(model), "--fit", str(fit), "--out", str(out)]
                        + extra)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        assert out.exists() == (code == EXIT_OK)
        out.unlink(missing_ok=True)


def _raster_rows(cells):
    return "x,y,value\n" + "".join(f"{x},{y},{v}\n" for x, y, v in cells)


GOOD_2X2 = [(25, 25, 1.0), (75, 25, 1.0), (25, 75, 1.0), (75, 75, 1.0)]


class TestMalformedFiles:
    """A malformed input file exits 3, naming the file and line, without a traceback."""

    def _fit(self, tmp_path, spec, encounters=None):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"grid": {"nx": 2, "ny": 2}, **spec}))
        if encounters is None:
            encounters = tmp_path / "enc.csv"
            encounters.write_text("trip,step,x,y,mark,observer\n0,3,25.0,25.0,,0\n")
        return main(["fit", "--model", str(model), "--encounters", str(encounters),
                     "--out", str(tmp_path / "fit.json")])

    @pytest.mark.parametrize(
        "body, message",
        [
            (_raster_rows(GOOD_2X2[:3]) + "1.5,0.5\n", "eff.csv, line 5"),
            (_raster_rows(GOOD_2X2[:3]) + "75,75,lots\n", "eff.csv, line 5"),
            (_raster_rows(GOOD_2X2[:3] + [(25, 75, 2.0)]), "eff.csv, line 5"),
            (_raster_rows([(10, 50, 1.0), (30, 50, 1.0), (80, 50, 1.0)]), "not evenly spaced"),
        ],
        ids=["short-row", "not-a-number", "duplicate-center", "uneven-spacing"],
    )
    def test_bad_offset_csv_exit_3(self, tmp_path, capsys, body, message):
        (tmp_path / "eff.csv").write_text(body)
        assert self._fit(tmp_path, {"offset": {"path": "eff.csv"}}) == EXIT_DATA
        assert message in capsys.readouterr().err

    def test_short_encounter_row_exit_3(self, tmp_path, capsys):
        enc = tmp_path / "enc.csv"
        enc.write_text("trip,step,x,y,mark,observer\n0,3,25.0,25.0,,0\n1,4,75.0\n")
        assert self._fit(tmp_path, {}, encounters=enc) == EXIT_DATA
        assert "enc.csv, line 3" in capsys.readouterr().err

    def test_short_track_row_exit_3(self, tmp_path, capsys):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("trip,observer,step,x,y\n0,0,0,50.0,50.0\n0,0,1\n")
        code = main(["effort", "--tracks", str(tracks), "--out", str(tmp_path / "e.csv"),
                     "--range", "5"])
        assert code == EXIT_DATA
        assert "tracks.csv, line 3" in capsys.readouterr().err

    def test_counts_off_the_model_grid_exit_3(self, tmp_path):
        (tmp_path / "n.csv").write_text(_raster_rows([(x + 1, y, 0.0) for x, y, _ in GOOD_2X2]))
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"grid": {"nx": 2, "ny": 2}}))
        code = main(["fit", "--model", str(model), "--counts", str(tmp_path / "n.csv"),
                     "--out", str(tmp_path / "fit.json")])
        assert code == EXIT_DATA

    def test_non_logistic_link_exit_2(self, tmp_path):
        g = build_grid(StudyRegion(0.0, 100.0, 0.0, 100.0), 2, 2)
        write_raster_csv(raster_from_function(g, lambda X, Y: X / 100.0), tmp_path / "vis.csv")
        spec = {"detection": {"link": "probit", "covariates": [{"name": "vis", "path": "vis.csv"}]}}
        assert self._fit(tmp_path, spec) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "spec",
        [
            {"grid": {"nx": 0}},
            {"grid": {"nx": "abc"}},
            {"region": {"xmin": 100.0, "xmax": 0.0}},
            {"region": [0, 100, 0, 100]},
        ],
        ids=["no-columns", "non-integer-columns", "reversed-region", "region-not-an-object"],
    )
    def test_bad_model_grid_exit_2(self, tmp_path, capsys, spec):
        # the model spec's region and grid sections are read as a study config's are
        assert self._fit(tmp_path, spec) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            {"intercept": "no"},
            {"offset": {"path": "eff.csv", "log": "false"}},
            {"offset": {"path": "eff.csv", "floor": "x"}},
            {"optimizer": {"gtol": "abc"}},
            {"optimizer": {"maxiter": 2.5}},
        ],
        ids=["string-intercept", "string-log", "string-floor", "string-gtol", "fractional-maxiter"],
    )
    def test_ill_typed_model_spec_exit_2(self, tmp_path, capsys, spec):
        (tmp_path / "eff.csv").write_text(_raster_rows(GOOD_2X2))
        assert self._fit(tmp_path, spec) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("optimizer", "gtol", float("nan")),
            ("optimizer", "gtol", float("inf")),
            ("optimizer", "gtol", 0.0),
            ("optimizer", "gtol", -1.0),
            ("optimizer", "maxiter", 0),
            ("optimizer", "maxiter", -1),
            ("offset", "floor", float("nan")),
            ("offset", "floor", float("inf")),
            ("offset", "floor", -1e-6),
        ],
        ids=["nan-gtol", "infinite-gtol", "zero-gtol", "negative-gtol", "zero-maxiter",
             "negative-maxiter", "nan-floor", "infinite-floor", "negative-floor"],
    )
    def test_out_of_range_model_spec_exit_2(self, tmp_path, capsys, section, key, value):
        (tmp_path / "eff.csv").write_text(_raster_rows(GOOD_2X2))
        entries = {"path": "eff.csv"} if section == "offset" else {}
        assert self._fit(tmp_path, {section: {**entries, key: value}}) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_point_on_missing_covariate_names_plain_coordinates(self, tmp_path, capsys):
        (tmp_path / "z.csv").write_text(_raster_rows([(25, 25, "nan")] + GOOD_2X2[1:]))
        assert self._fit(tmp_path, {"env": [{"name": "z", "path": "z.csv"}]}) == EXIT_DATA
        err = capsys.readouterr().err
        assert "point (25.0, 25.0) falls in a cell with missing covariates" in err
        assert "np.float64" not in err

    def test_presence_on_an_off_origin_grid(self, tmp_path):
        g = build_grid(StudyRegion(0.1, 7.3, -3.3, 5.9), 7, 9)
        occ = raster_from_function(g, lambda X, Y: (X > 3.0).astype(float))
        write_raster_csv(occ, tmp_path / "occ.csv")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "region": {"xmin": 0.1, "xmax": 7.3, "ymin": -3.3, "ymax": 5.9},
            "grid": {"nx": 7, "ny": 9},
        }))
        code = main(["fit", "--model", str(model), "--presence", str(tmp_path / "occ.csv"),
                     "--out", str(tmp_path / "fit.json")])
        assert code == EXIT_OK
        assert json.loads((tmp_path / "fit.json").read_text())["converged"]

class TestExperiment:
    def test_metrics_deterministic_and_summarized(self, sim, tmp_path):
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        s1 = tmp_path / "summary.txt"
        for metrics, extra in ((m1, ["--out-summary", str(s1)]), (m2, [])):
            code = main(
                ["experiment", "--config", str(sim["config"]),
                 "--out-metrics", str(metrics), "--workers", "2"] + extra
            )
            assert code == EXIT_OK
        assert m1.read_bytes() == m2.read_bytes()
        doc = json.loads(m1.read_text())
        assert doc["setting"] == "cli-toy"
        assert len(doc["records"]) == 2
        assert "mspe_corrected" in doc["summaries"]
        text = s1.read_text()
        assert "cli-toy" in text and "bias_uncorrected" in text
