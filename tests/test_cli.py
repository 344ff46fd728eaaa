"""Command-line interface: subcommands, files, exit codes."""

import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effortud import cli
from effortud.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, main
from effortud.effort import trip_grouped_effort
from effortud.encounters import read_tracks_csv
from effortud.geometry import StudyRegion, build_grid, raster_from_function
from effortud.model_io import write_fit_json
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


def _not_json(constant):
    # an AssertionError, which no exit code of main catches
    raise AssertionError(f"fit JSON holds {constant}, which strict JSON parsers refuse")


@pytest.fixture(scope="module", autouse=True)
def strict_fit_json():
    """Every fit JSON a CLI command writes here must parse as strict JSON (no NaN or Infinity)."""

    def write_strict(fit, path):
        write_fit_json(fit, path)
        with open(path) as fh:
            json.load(fh, parse_constant=_not_json)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "write_fit_json", write_strict)
        yield


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
        want = trip_grouped_effort(read_tracks_csv(tracks_csv), grid, 30.0, "detection")
        got = read_raster_csv(out)
        assert got.grid == grid
        assert np.allclose(got.values, want.values, rtol=1e-12)
        assert got.values.sum() > 0

    def test_dt_scaling(self, sim, tmp_path):
        # effort comes in recorded steps, and --dt multiplies the finished raster
        got = {}
        for dt in ("1", "0.3"):
            out = tmp_path / f"effort-{dt}.csv"
            code = main(["effort", "--tracks", str(sim["out"] / "tracks_r000.csv"),
                         "--out", str(out), "--range", "30", "--nx", "25", "--ny", "25",
                         "--dt", dt])
            assert code == EXIT_OK
            got[dt] = read_raster_csv(out).values
        assert got["1"].sum() > 0
        assert got["0.3"].tobytes() == (0.3 * got["1"]).tobytes()

    @pytest.mark.parametrize("overlap", [[], ["--overlap"]], ids=["summed", "overlap"])
    def test_overflowing_dt_exit_3(self, tmp_path, capsys, overlap):
        # three steps on one cell center give its cells effort above 1.8, so 1e308 times it
        # overflows; no cell is written and no RuntimeWarning escapes
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("trip,observer,step,x,y\n"
                          + "".join(f"0,{o},{s},50.5,50.5\n" for s in range(3) for o in range(2)))
        out = tmp_path / "e.csv"
        code = main(["effort", "--tracks", str(tracks), "--out", str(out), "--range", "5",
                     "--dt", "1e308", *overlap])
        assert code == EXIT_DATA
        assert not out.exists()
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: effort times --dt overflows to inf in [1-9]\d* cells\n", err)

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
            read_tracks_csv(tracks), grid, 15.0, mode=mode, overlap=overlap
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


# five encounters inside the default region [0, 100]^2, one with a mark
_ENCOUNTER_ROWS = [
    ["0", "3", "25.0", "25.0", "", "0"],
    ["1", "7", "62.5", "40.25", "", "1"],
    ["2", "1", "80.0", "75.5", "a", "0"],
    ["3", "12", "10.0", "90.0", "", "2"],
    ["4", "5", "55.0", "55.0", "", "0"],
]
_ENCOUNTER_COORDINATES = _COORDINATES + ["-20", "abc", ""]


@st.composite
def mutated_encounters_csv(draw):
    """The seeded encounters CSV with truncated, duplicated, empty and ill-valued rows.

    Coordinates may be NaN, infinite, negative, out of the region, on its
    edge or not numbers; ids may be non-integers; an extra column, an extra
    field on one row, a file with the header alone or an empty file may
    appear.
    """
    if draw(st.integers(0, 9)) == 0:
        return ""
    header = ["trip", "step", "x", "y", "mark", "observer"]
    rows = [list(r) for r in _ENCOUNTER_ROWS]
    if draw(st.integers(0, 9)) == 0:
        rows = []
    if draw(st.booleans()):
        header.append("note")
        rows = [r + ["7"] for r in rows]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["truncate", "duplicate", "empty", "coordinate", "id", "extra"]))
        col = draw(st.sampled_from([2, 3])) if op == "coordinate" else draw(st.sampled_from([0, 1, 5]))
        if op == "truncate":
            rows[i] = rows[i][: draw(st.integers(0, 5))]
        elif op == "duplicate":
            rows.insert(i, list(rows[i]))
        elif op == "empty":
            rows.insert(i, [])
        elif op == "extra":
            rows[i].append("9")
        elif col < len(rows[i]):
            values = _ENCOUNTER_COORDINATES if op == "coordinate" else _IDS
            rows[i][col] = draw(st.sampled_from(values))
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


@settings(max_examples=50, deadline=None, derandomize=True)
@given(text=mutated_encounters_csv())
def test_fit_on_mutated_encounters_exits_cleanly(tmp_path_factory, text):
    # every malformed encounters file is refused with an exit code, never a
    # traceback; a fit is written exactly when the command succeeds
    root = tmp_path_factory.mktemp("fit-encounters")
    model = TestExceed._distinct_model(root)
    encounters = root / "encounters.csv"
    encounters.write_text(text)
    out = root / "fit.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["fit", "--model", str(model), "--encounters", str(encounters),
                     "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
    assert "Traceback" not in err.getvalue()
    assert out.exists() == (code == EXIT_OK)


# a counts and a presence raster on TestExceed._distinct_model's 10 x 10 grid
_RASTER_CENTERS = [(5.0 + 10 * i, 5.0 + 10 * j) for j in range(10) for i in range(10)]
_SEED_VALUES = {
    "counts": [int(v) for v in np.random.default_rng(3).poisson(2.0, 100)],
    "presence": [int(v) for v in np.random.default_rng(4).random(100) < 0.4],
}
_RASTER_VALUES = ["nan", "inf", "-inf", "-1", "-0.0", "0.5", "2", "1e308", "1e400", "abc", ""]


def _seed_raster_rows(kind):
    return [[repr(x), repr(y), str(v)] for (x, y), v in zip(_RASTER_CENTERS, _SEED_VALUES[kind])]


def _raster_text(rows):
    return "\n".join(",".join(r) for r in [["x", "y", "value"]] + rows) + "\n"


def _seed_raster_with(kind, col, value):
    rows = _seed_raster_rows(kind)
    rows[7][col] = value
    return kind, _raster_text(rows)


@st.composite
def mutated_cell_raster(draw):
    """A seeded counts or presence CSV with truncated, duplicated, empty and ill-valued rows.

    Values may be NaN, infinite, negative, fractional, huge or not numbers;
    the raster may lie on the wrong grid (shifted, rescaled, a row or
    column short); a file with the header alone or an empty file may appear.
    """
    kind = draw(st.sampled_from(["counts", "presence"]))
    if draw(st.integers(0, 19)) == 0:
        return kind, ""
    rows = _seed_raster_rows(kind)
    grid = draw(st.sampled_from(["same", "same", "same", "shift", "scale", "row", "column"]))
    if grid == "shift":
        rows = [[repr(float(x) + 10.0), y, v] for x, y, v in rows]
    elif grid == "scale":
        rows = [[repr(2.0 * float(x)), repr(2.0 * float(y)), v] for x, y, v in rows]
    elif grid == "row":
        rows = rows[:90]
    elif grid == "column":
        rows = [r for r in rows if float(r[0]) < 90.0]
    if draw(st.integers(0, 19)) == 0:
        rows = []
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        op = draw(st.sampled_from(["truncate", "duplicate", "empty", "value", "value", "coordinate"]))
        if op == "truncate":
            rows[i] = rows[i][: draw(st.integers(0, 2))]
        elif op == "duplicate":
            rows.insert(i, list(rows[i]))
        elif op == "empty":
            rows.insert(i, [])
        elif op == "value" and len(rows[i]) == 3:
            rows[i][2] = draw(st.sampled_from(_RASTER_VALUES))
        elif op == "coordinate" and len(rows[i]) == 3:
            rows[i][draw(st.integers(0, 1))] = draw(st.sampled_from(_COORDINATES))
    return kind, _raster_text(rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=mutated_cell_raster())
@example(case=_seed_raster_with("counts", 2, "1e308"))  # log N! overflowed
@example(case=_seed_raster_with("counts", 2, "inf"))  # fit "NOT converged", exit 0
@example(case=_seed_raster_with("presence", 0, "inf"))  # spacing check warned
def test_fit_on_mutated_cell_rasters_exits_cleanly(tmp_path_factory, case):
    # every malformed counts or presence raster is refused with an exit
    # code, never a traceback; a fit is written exactly when the command succeeds
    kind, text = case
    root = tmp_path_factory.mktemp("fit-raster")
    model = TestExceed._distinct_model(root)
    data = root / f"{kind}.csv"
    data.write_text(text)
    out = root / "fit.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--model", str(model), f"--{kind}", str(data), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
    assert "Traceback" not in err.getvalue()
    assert out.exists() == (code == EXIT_OK)
    assert [str(w.message) for w in caught] == []


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

    @pytest.mark.parametrize("theta", [[0.0, 1e308], [800.0, 0.0]], ids=["slope", "intercept"])
    def test_overflowing_surface_exit_3(self, tmp_path, capsys, theta):
        # a converged fit whose surface overflows to inf is refused either way
        model = TestExceed._distinct_model(tmp_path)
        fit = tmp_path / "fit.json"
        fit.write_text(_fit_text(theta=theta))
        out = tmp_path / "out.csv"
        for extra in ([], ["--intensity"]):
            code = main(["predict", "--model", str(model), "--fit", str(fit), "--out", str(out)]
                        + extra)
            assert code == EXIT_DATA
            assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: intensity overflows to inf in ")

    def test_intensity_keeps_missing_covariate_cells(self, tmp_path):
        # a cell without covariates has no intensity: written as NaN, and
        # the normalized UD, which needs every cell, is refused
        model = TestExceed._distinct_model(tmp_path)
        g = build_grid(StudyRegion(0, 100, 0, 100), 10, 10)
        z = raster_from_function(g, lambda X, Y: np.where((X < 10) & (Y < 10), np.nan, X))
        write_raster_csv(z, tmp_path / "z.csv")
        fit = tmp_path / "fit.json"
        fit.write_text(_fit_text())
        out = tmp_path / "out.csv"
        args = ["predict", "--model", str(model), "--fit", str(fit), "--out", str(out)]
        assert main(args + ["--intensity"]) == EXIT_OK
        v = read_raster_csv(out).values
        assert np.isnan(v[0, 0]) and np.isfinite(np.delete(v.ravel(), 0)).all()
        out.unlink()
        assert main(args) == EXIT_DATA
        assert not out.exists()

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


@pytest.mark.parametrize("command", ["predict", "exceed"])
@pytest.mark.parametrize("flag", ["--fix-effort", "--fix-detection"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_fix_value_exit_2(tmp_path, capsys, command, flag, value):
    # a value put in for covariates must be finite: `predict --intensity
    # --fix-effort nan` would write all NaN, and -inf all zeros
    model = TestExceed._distinct_model(tmp_path)
    g = build_grid(StudyRegion(0, 100, 0, 100), 10, 10)
    write_raster_csv(raster_from_function(g, lambda X, Y: Y / 100.0), tmp_path / "day.csv")
    day = [{"name": "day", "path": "day.csv"}]
    model.write_text(json.dumps({**json.loads(model.read_text()), "effort_covariates": day}))
    names = ["env:intercept", "env:z", "eff:day"]
    covariance = np.diag([0.01, 1e-6, 0.01]).tolist()
    fit = TestExceed()._fit_json(tmp_path, covariance, names=names, theta=[0.0, 0.001, 0.5])
    out = tmp_path / "out.csv"
    args = [command, "--model", str(model), "--fit", str(fit), "--out", str(out)]
    args += ["--intensity"] if command == "predict" else ["--samples", "20"]
    assert main(args + [f"{flag}={value}"]) == EXIT_CONFIG
    assert f"error: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + [f"{flag}=0.5"]) == EXIT_OK


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
        if code == EXIT_OK and command == "predict":
            assert not np.isinf(read_raster_csv(out).values).any()
        out.unlink(missing_ok=True)


# A model spec with a raster in every block (env, logistic detection, an
# effort covariate as an ASCII grid, and a logged offset) on a 10 x 10 grid,
# and encounters drawn from its intensity so that the seed spec fits.
_SPEC_GRID = build_grid(StudyRegion(0.0, 100.0, 0.0, 100.0), 10, 10)
_SPEC_SURFACES = {
    "z.csv": lambda X, Y: (X - 50.0) / 50.0,
    "vis.csv": lambda X, Y: (Y - 30.0) / 50.0,
    "day.asc": lambda X, Y: Y / 100.0,
    "eff.csv": lambda X, Y: 1.0 + X / 25.0,
}
_SPEC_DOC = {
    "grid": {"nx": 10, "ny": 10},
    "env": [{"name": "z", "path": "z.csv"}],
    "detection": {"link": "logistic", "covariates": [{"name": "vis", "path": "vis.csv"}]},
    "effort_covariates": [{"name": "day", "path": "day.asc"}],
    "offset": {"path": "eff.csv", "log": True, "floor": 1e-6},
}
_SPEC_ENTRIES = [
    ("env",), ("env", 0), ("env", 0, "name"), ("env", 0, "path"),
    ("detection",), ("detection", "link"), ("detection", "covariates"),
    ("detection", "covariates", 0, "name"), ("detection", "covariates", 0, "path"),
    ("effort_covariates",), ("effort_covariates", 0, "name"), ("effort_covariates", 0, "path"),
    ("offset",), ("offset", "path"), ("offset", "log"), ("offset", "floor"),
]
_SPEC_KEYS = [e for e in _SPEC_ENTRIES if e[-1] in ("name", "path")]
_SPEC_DIRECTORIES = ["", ".", "sub", "sub/", ".."]
_LONG_FIELD = "1" * 200_000  # past the csv module's field limit of 131072 characters


def _spec_raster_rows(name):
    """A seed raster as rows of tokens: ``x,y,value`` rows, or an ASCII grid's lines."""
    values = raster_from_function(_SPEC_GRID, _SPEC_SURFACES[name]).values
    if name.endswith(".csv"):
        X, Y = _SPEC_GRID.center_arrays()
        return [["x", "y", "value"]] + [
            [repr(float(x)), repr(float(y)), repr(float(v))]
            for x, y, v in zip(X.ravel(), Y.ravel(), values.ravel())
        ]
    header = [["NCOLS", "10"], ["NROWS", "10"], ["XLLCORNER", "0"], ["YLLCORNER", "0"],
              ["CELLSIZE", "10"], ["NODATA_VALUE", "-9999"]]
    return header + [[repr(float(v)) for v in row] for row in values[::-1]]


def _spec_raster_text(name, rows):
    sep = "," if name.endswith(".csv") else " "
    return "".join(sep.join(r) + "\n" for r in rows)


def _spec_raster_with(name, row, col, token):
    rows = _spec_raster_rows(name)
    rows[row][col] = token
    return _spec_raster_text(name, rows)


def _spec_encounters_text():
    X, Y = _SPEC_GRID.center_arrays()
    z, vis, day, eff = (raster_from_function(_SPEC_GRID, f).flat for f in _SPEC_SURFACES.values())
    lam = np.exp(-6.3 + 0.8 * z + 0.5 * day) / (1.0 + np.exp(-1.5 * vis)) * eff
    rng = np.random.default_rng(11)
    counts = rng.poisson(lam * _SPEC_GRID.cell_area)
    rows = []
    for c in np.flatnonzero(counts):
        for _ in range(counts[c]):
            x, y = float(X.flat[c] + rng.uniform(-4.0, 4.0)), float(Y.flat[c] + rng.uniform(-4.0, 4.0))
            rows.append(f"{len(rows)},1,{x!r},{y!r},,0\n")
    return "trip,step,x,y,mark,observer\n" + "".join(rows)


def _spec_parent(doc, entry):
    """What holds ``entry``'s last key, or None when an earlier mutation removed the way there."""
    *way, last = entry
    for key in way:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return None
    if isinstance(doc, dict) and isinstance(last, str):
        return doc
    return doc if isinstance(doc, list) and isinstance(last, int) and last < len(doc) else None


def _spec_set(doc, entry, value):
    if (parent := _spec_parent(doc, entry)) is not None:
        parent[entry[-1]] = value


def _spec_drop(doc, entry):
    if isinstance(parent := _spec_parent(doc, entry), dict):
        parent.pop(entry[-1], None)


@st.composite
def mutated_model_spec(draw):
    """A model spec and its rasters after up to three mutations of each kind.

    Spec entries get another JSON type, lose their ``name`` or ``path``, or
    point at a directory; the offset floor gets a NaN, infinite or negative
    number. A raster's rows are truncated, duplicated or emptied, its values
    and centers (an ASCII grid's header numbers) set to NaN, infinite,
    negative, huge or non-numbers, a field made over-long; a raster may lie
    on the wrong grid, hold only its header or be empty.
    """
    doc = json.loads(json.dumps(_SPEC_DOC))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        op = draw(st.sampled_from(["swap", "drop", "directory", "floor", "extra"]))
        if op == "swap":
            odd = json.loads(json.dumps(draw(st.sampled_from(_ODD_VALUES))))  # a copy to mutate
            _spec_set(doc, draw(st.sampled_from(_SPEC_ENTRIES)), odd)
        elif op == "drop":
            _spec_drop(doc, draw(st.sampled_from(_SPEC_KEYS)))
        elif op == "directory":
            entry = draw(st.sampled_from([e for e in _SPEC_KEYS if e[-1] == "path"]))
            _spec_set(doc, entry, draw(st.sampled_from(_SPEC_DIRECTORIES)))
        elif op == "floor":
            _spec_set(doc, ("offset", "floor"), draw(st.sampled_from(_ODD_NUMBERS)))
        elif isinstance(doc.get("env"), list) and doc["env"]:
            doc["env"].append(json.loads(json.dumps(doc["env"][0])))  # a name twice
    texts = {name: _spec_raster_text(name, _spec_raster_rows(name)) for name in _SPEC_SURFACES}
    names = draw(st.lists(st.sampled_from(sorted(_SPEC_SURFACES)), max_size=2, unique=True))
    for name in names:
        rows = _spec_raster_rows(name)
        csv_file = name.endswith(".csv")
        head = 1 if csv_file else 6
        grid = draw(st.sampled_from(["same"] * 10 + ["empty", "header", "shift", "row", "column"]))
        if grid == "empty":
            texts[name] = ""
            continue
        if grid == "header":
            rows = rows[:head]
        elif grid == "shift" and csv_file:
            rows = rows[:1] + [[repr(float(x) + 10.0), y, v] for x, y, v in rows[1:]]
        elif grid == "shift":
            rows[2][1] = "10"
        elif grid == "row":
            rows = rows[:-10] if csv_file else rows[:-1]
        elif grid == "column":
            rows = rows[:1] + [r for r in rows[1:] if float(r[0]) < 90.0] if csv_file else (
                rows[:head] + [r[:-1] for r in rows[head:]])
        for _ in range(draw(st.integers(1, 3)) if len(rows) > head else 0):
            i = draw(st.integers(head, len(rows) - 1))
            op = draw(st.sampled_from(["truncate", "duplicate", "empty", "value", "value", "value",
                                       "value", "center", "center", "long"]))
            if op == "truncate":
                rows[i] = rows[i][: draw(st.integers(0, len(rows[i]) - 1))] if rows[i] else []
            elif op == "duplicate":
                rows.insert(i, list(rows[i]))
            elif op == "empty":
                rows.insert(i, [])
            elif not rows[i]:
                continue
            elif op == "value":
                j = len(rows[i]) - 1 if csv_file else draw(st.integers(0, len(rows[i]) - 1))
                rows[i][j] = draw(st.sampled_from(_RASTER_VALUES))
            elif op == "center" and csv_file:
                rows[i][draw(st.integers(0, min(1, len(rows[i]) - 1)))] = draw(
                    st.sampled_from(_COORDINATES))
            elif op == "center":
                rows[draw(st.integers(0, 5))][1] = draw(st.sampled_from(_COORDINATES + _RASTER_VALUES))
            else:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = _LONG_FIELD
        texts[name] = _spec_raster_text(name, rows)
    return doc, texts


def _spec_case(doc_changes=(), **texts):
    """The seed spec and rasters with the given entries set and raster texts replaced."""
    doc = json.loads(json.dumps(_SPEC_DOC))
    for entry, value in doc_changes:
        _spec_set(doc, entry, value)
    seed = {n: _spec_raster_text(n, _spec_raster_rows(n)) for n in _SPEC_SURFACES}
    return doc, {**seed, **{k.replace("_", "."): v for k, v in texts.items()}}


def _write_spec(root, doc, texts):
    (root / "sub").mkdir()
    for name, text in texts.items():
        (root / name).write_text(text)
    model = root / "model.json"
    model.write_text(json.dumps(doc))
    return model


def _quiet_main(argv):
    """``main(argv)``, its standard error and the warnings it raised."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def spec_seed(tmp_path_factory):
    """The seed spec's encounters and the fit of them, shared by the mutation test."""
    root = tmp_path_factory.mktemp("spec-seed")
    model = _write_spec(root, *_spec_case())
    encounters = root / "encounters.csv"
    encounters.write_text(_spec_encounters_text())
    fit = root / "fit.json"
    assert main(["fit", "--model", str(model), "--encounters", str(encounters),
                 "--out", str(fit)]) == EXIT_OK
    assert json.loads(fit.read_text())["converged"]
    return {"encounters": encounters, "fit": fit}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=mutated_model_spec())
@example(case=_spec_case([(("env", 0, "path"), "sub")]))  # IsADirectoryError traceback
@example(case=_spec_case(z_csv=_spec_raster_with("z.csv", 5, 2, _LONG_FIELD)))  # csv.Error traceback
@example(case=_spec_case(z_csv=_spec_raster_with("z.csv", 41, 2, "1e308")))  # overflow warnings
@example(case=_spec_case(day_asc=_spec_raster_with("day.asc", 0, 1, "inf")))  # OverflowError traceback
@example(case=_spec_case(eff_csv=_spec_raster_with("eff.csv", 41, 2, "-1")))  # negative effort fitted
@example(case=_spec_case(day_asc=_spec_raster_with("day.asc", 8, 3, "abc")))  # message without a line
@example(case=_spec_case(day_asc=_spec_raster_with("day.asc", 8, 3, "")))  # a short row, no line
@example(case=_spec_case(day_asc=_spec_raster_with("day.asc", 4, 1, "0")))  # no region, no file named
def test_fit_predict_exceed_on_mutated_model_spec_exit_cleanly(tmp_path_factory, spec_seed, case):
    # every malformed model spec or raster it names is refused with an exit
    # code, never a traceback or a warning; an output is written exactly when
    # the command succeeds. predict and exceed read the spec's own fit when
    # fit succeeds, else the seed spec's fit.
    root = tmp_path_factory.mktemp("spec")
    model = _write_spec(root, *case)
    fit = root / "fit.json"
    runs = [("fit", ["--encounters", str(spec_seed["encounters"])]),
            ("predict", ["--fit", str(fit)]),
            ("predict", ["--fit", str(fit), "--intensity"]),
            ("exceed", ["--fit", str(fit), "--samples", "20"])]
    for command, extra in runs:
        out = root / f"{command}.csv" if command != "fit" else fit
        code, err, caught = _quiet_main([command, "--model", str(model), "--out", str(out)] + extra)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC), (command, err)
        assert "Traceback" not in err and caught == [], (command, err, caught)
        assert out.exists() == (code == EXIT_OK), command
        if command == "fit" and code != EXIT_OK:
            fit.write_bytes(spec_seed["fit"].read_bytes())
        elif command != "fit":
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

    @pytest.mark.parametrize("log", [True, False])
    def test_negative_effort_in_offset(self, tmp_path, capsys, log):
        # effort to log must not be negative; an offset already logged may be
        (tmp_path / "eff.csv").write_text(_raster_rows(GOOD_2X2[:3] + [(75, 75, -1.0)]))
        code = self._fit(tmp_path, {"offset": {"path": "eff.csv", "log": log}})
        if log:
            assert code == EXIT_DATA
            assert "eff.csv: effort to log must be nonnegative, got -1.0" in capsys.readouterr().err
        else:
            assert code == EXIT_OK

    @pytest.mark.parametrize(
        "row, message",
        [("1 abc", "could not convert string to float: 'abc'"),
         ("1", "expected ncols = 2 values, got 1")],
        ids=["not-a-number", "short-row"],
    )
    def test_bad_ascii_grid_row_exit_3(self, tmp_path, capsys, row, message):
        header = "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 50\nNODATA_VALUE -9999\n"
        (tmp_path / "z.asc").write_text(header + "1 2\n" + row + "\n")
        assert self._fit(tmp_path, {"env": [{"name": "z", "path": "z.asc"}]}) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"z.asc, line 8: {message}" in err

    @pytest.mark.parametrize("key, value", [("CELLSIZE", "0"), ("CELLSIZE", "-1"), ("CELLSIZE", "nan"),
                                            ("CELLSIZE", "inf"), ("XLLCORNER", "nan")])
    def test_ascii_grid_header_without_a_region_exit_3(self, tmp_path, capsys, key, value):
        header = {"NCOLS": "2", "NROWS": "2", "XLLCORNER": "0", "YLLCORNER": "0", "CELLSIZE": "50",
                  "NODATA_VALUE": "-9999", key: value}
        text = "".join(f"{k} {v}\n" for k, v in header.items()) + "1 2\n3 4\n"
        (tmp_path / "z.asc").write_text(text)
        assert self._fit(tmp_path, {"env": [{"name": "z", "path": "z.asc"}]}) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "z.asc: degenerate or unbounded region" in err

    def test_fit_without_finite_loglik_exit_4(self, tmp_path, capsys):
        # a covariate of 1e308 overflows the likelihood at the start
        (tmp_path / "z.csv").write_text(_raster_rows(GOOD_2X2[:3] + [(75, 75, 1e308)]))
        assert self._fit(tmp_path, {"env": [{"name": "z", "path": "z.csv"}]}) == EXIT_NUMERIC
        assert "no finite log likelihood" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

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

    @pytest.mark.parametrize("x, y", [("80.0", "nan"), ("inf", "25.0")])
    def test_non_finite_encounter_coordinate_exit_3(self, tmp_path, capsys, x, y):
        enc = tmp_path / "enc.csv"
        enc.write_text(f"trip,step,x,y,mark,observer\n0,3,25.0,25.0,,0\n1,4,{x},{y},,0\n")
        assert self._fit(tmp_path, {}, encounters=enc) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"point ({float(x)}, {float(y)}) has a non-finite coordinate" in err
        assert "outside region" not in err

    def test_fit_out_is_a_directory_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"grid": {"nx": 2, "ny": 2}}))
        enc = tmp_path / "enc.csv"
        enc.write_text("trip,step,x,y,mark,observer\n0,3,25.0,25.0,,0\n")
        code = main(["fit", "--model", str(model), "--encounters", str(enc), "--out", "."])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Is a directory" in err

    def test_covariate_path_is_a_directory_exit_3(self, tmp_path, capsys):
        (tmp_path / "z").mkdir()
        assert self._fit(tmp_path, {"env": [{"name": "z", "path": "z"}]}) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Is a directory" in err

    def test_over_long_covariate_field_exit_3(self, tmp_path, capsys):
        (tmp_path / "z.csv").write_text(_raster_rows(GOOD_2X2[:3] + [(75, 75, "1" * 200_000)]))
        assert self._fit(tmp_path, {"env": [{"name": "z", "path": "z.csv"}]}) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "z.csv, line 5: field larger than field limit" in err

    def test_over_long_encounter_field_exit_3(self, tmp_path, capsys):
        enc = tmp_path / "enc.csv"
        enc.write_text("trip,step,x,y,mark,observer\n0,3,25.0,25.0," + "a" * 200_000 + ",0\n")
        assert self._fit(tmp_path, {}, encounters=enc) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "enc.csv, line 2: field larger than field limit" in err

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
