"""Simulation-study harness: configs, replicates, and summaries."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effortud.errors import ConfigError
from effortud.experiment import (
    _ENTRIES,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    read_experiment_config,
    run_experiment,
    run_replicate,
    simulate_replicate,
    summarize,
    summary_table,
    write_metrics_json,
)
from effortud.geometry import StudyRegion


def toy_config(**overrides):
    base = dict(
        label="toy",
        region=StudyRegion(0, 100, 0, 100),
        nx=25,
        ny=25,
        animal_center=(50.0, 50.0),
        animal_potential_variance=200.0,
        animal_bm_variance=2.0,
        n_mobile=1,
        n_static=0,
        observer_bm_variance=2.0,
        observer_center_y=100.0,
        observer_potential_variance=400.0,
        true_range=30.0,
        true_mode="linear-decay",
        n_trips=30,
        max_steps=150,
        assumed_range=30.0,
        detection_modeled=True,
        overlap=False,
        effort_floor=1e-6,
        replicates=2,
        base_seed=47,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigParsing:
    def test_defaults_from_empty_document(self):
        cfg = config_from_dict({})
        assert cfg.label == "experiment"
        assert cfg.region == StudyRegion(0.0, 100.0, 0.0, 100.0)
        assert (cfg.nx, cfg.ny) == (100, 100)
        assert cfg.animal_center == (50.0, 50.0)
        assert cfg.animal_potential_variance == 200.0
        assert cfg.animal_bm_variance == 2.0
        assert (cfg.n_mobile, cfg.n_static) == (1, 0)
        assert cfg.true_range == 10.0
        assert cfg.true_mode == "linear-decay"
        assert cfg.n_trips == 150
        assert cfg.max_steps == 500
        assert cfg.assumed_range == 10.0
        assert cfg.detection_modeled is True
        assert cfg.overlap is False
        assert cfg.effort_floor == 1e-6
        assert (cfg.replicates, cfg.base_seed) == (1, 0)

    def test_high_bias_preset(self):
        cfg = config_from_dict({"observers": {"bias": "high"}})
        assert cfg.observer_bm_variance == 2.0
        assert cfg.observer_potential_variance == 400.0

    def test_low_bias_preset(self):
        cfg = config_from_dict({"observers": {"bias": "low"}})
        assert cfg.observer_bm_variance == 8.0
        assert cfg.observer_potential_variance == 1600.0

    def test_explicit_values_override_preset(self):
        cfg = config_from_dict(
            {"observers": {"bias": "high", "bm_variance": 5.0, "potential_variance": 900.0}}
        )
        assert cfg.observer_bm_variance == 5.0
        assert cfg.observer_potential_variance == 900.0

    def test_partial_override_keeps_preset_remainder(self):
        cfg = config_from_dict({"observers": {"bias": "low", "bm_variance": 3.0}})
        assert cfg.observer_bm_variance == 3.0
        assert cfg.observer_potential_variance == 1600.0

    def test_unknown_bias_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"observers": {"bias": "medium"}})

    def test_assumed_range_defaults_to_true_range(self):
        cfg = config_from_dict({"detection": {"range": 25.0}})
        assert cfg.assumed_range == 25.0
        cfg = config_from_dict({"detection": {"range": 25.0}, "analyst": {"assumed_range": 2.0}})
        assert cfg.assumed_range == 2.0

    def test_round_trip(self):
        cfg = toy_config(overlap=True)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = toy_config()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config_to_dict(cfg)))
        assert read_experiment_config(p) == cfg

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            read_experiment_config(p)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            read_experiment_config(p)

    def test_validation(self):
        with pytest.raises(ConfigError):
            toy_config(replicates=0)
        with pytest.raises(ConfigError):
            toy_config(n_mobile=0, n_static=0)
        with pytest.raises(ConfigError):
            toy_config(true_range=0.0)
        with pytest.raises(ConfigError):
            toy_config(assumed_range=-1.0)
        with pytest.raises(ConfigError):
            toy_config(effort_floor=-1e-9)
        with pytest.raises(ConfigError):
            toy_config(n_mobile=-1, n_static=2)
        with pytest.raises(ConfigError):
            toy_config(n_mobile=3, n_static=-1)

    def test_bound_message_names_the_json_path(self):
        with pytest.raises(ConfigError, match=r"^study\.n_trips must be >= 1, got 0$"):
            toy_config(n_trips=0)

    @pytest.mark.parametrize(
        "path", ["animal.center"] + [path for _, path, _, kind, _ in _ENTRIES if kind is float]
    )
    def test_finite_message_names_the_json_path(self, path):
        # the analyst's range is given, so a NaN true range is the only entry named
        doc = {"analyst": {"assumed_range": 5.0}}
        section, key = path.split(".")
        nan = float("nan")
        doc.setdefault(section, {})[key] = [nan, 1.0] if path == "animal.center" else nan
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must be finite$"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"detection": {"range": 0}}, "detection.range"),
            ({"detection": {"range": 0}, "analyst": {"assumed_range": 5}}, "detection.range"),
            ({"analyst": {"assumed_range": 0}}, "analyst.assumed_range"),
        ],
        ids=["assumed-from-true", "assumed-given", "assumed-zero"],
    )
    def test_range_message_names_the_json_path(self, doc, path):
        # the analyst's range defaults to the true one, so the true one is checked first
        want = rf"^bad experiment config: {re.escape(path)} must be finite and positive, got 0\.0$"
        with pytest.raises(ConfigError, match=want):
            config_from_dict(doc)

    def test_worker_count_is_not_configured(self):
        # the worker count changes no result, so a config neither holds nor writes one
        assert config_from_dict({"workers": 3}) == config_from_dict({})
        assert "workers" not in config_to_dict(config_from_dict({}))

    def test_bad_types_become_config_errors(self):
        with pytest.raises(ConfigError):
            config_from_dict({"grid": {"nx": "many"}})


# every entry, in another order than config_to_dict writes them, most numbers whole
EVERY_ENTRY = {
    "base_seed": 101,
    "replicates": 3,
    "analyst": {"effort_floor": 0.001, "overlap": True, "detection_modeled": False,
                "assumed_range": 9},
    "study": {"max_steps": 40, "n_trips": 12},
    "detection": {"mode": "uniform", "range": 7.5},
    "observers": {"potential_variance": 700, "potential_center_y": 35, "bm_variance": 4,
                  "static": 3, "mobile": 2},
    "animal": {"bm_variance": 1.5, "potential_variance": 150, "center": [20, 25.5]},
    "grid": {"ny": 3, "nx": 7},
    "region": {"ymax": 40, "ymin": 10, "xmax": 60, "xmin": -3.5},
    "label": "every",
}


@pytest.mark.parametrize(
    "doc, text",
    [
        (
            {},
            '{"label": "experiment", "region": {"xmin": 0.0, "xmax": 100.0, "ymin": 0.0, '
            '"ymax": 100.0}, "grid": {"nx": 100, "ny": 100}, "animal": {"center": [50.0, 50.0], '
            '"potential_variance": 200.0, "bm_variance": 2.0}, "observers": {"mobile": 1, '
            '"static": 0, "bm_variance": 2.0, "potential_center_y": 100.0, '
            '"potential_variance": 400.0}, "detection": {"range": 10.0, "mode": "linear-decay"}, '
            '"study": {"n_trips": 150, "max_steps": 500}, "analyst": {"assumed_range": 10.0, '
            '"detection_modeled": true, "overlap": false, "effort_floor": 1e-06}, '
            '"replicates": 1, "base_seed": 0}',
        ),
        (
            EVERY_ENTRY,
            '{"label": "every", "region": {"xmin": -3.5, "xmax": 60.0, "ymin": 10.0, '
            '"ymax": 40.0}, "grid": {"nx": 7, "ny": 3}, "animal": {"center": [20.0, 25.5], '
            '"potential_variance": 150.0, "bm_variance": 1.5}, "observers": {"mobile": 2, '
            '"static": 3, "bm_variance": 4.0, "potential_center_y": 35.0, '
            '"potential_variance": 700.0}, "detection": {"range": 7.5, "mode": "uniform"}, '
            '"study": {"n_trips": 12, "max_steps": 40}, "analyst": {"assumed_range": 9.0, '
            '"detection_modeled": false, "overlap": true, "effort_floor": 0.001}, '
            '"replicates": 3, "base_seed": 101}',
        ),
    ],
    ids=["empty", "every-entry"],
)
def test_written_config_bytes(doc, text):
    # every metrics JSON and simulate manifest holds these bytes, key order included
    assert json.dumps(config_to_dict(config_from_dict(doc))) == text


def _entries(doc, path=()):
    """(path, value) of every entry of a config document; sections are walked into."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _entries(value, path + (key,))
        else:
            yield path + (key,), value


def _same(got, want):
    """JSON equality in which an int equals the float of the same value."""
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    if type(got) in (int, float) and type(want) in (int, float):
        return got == want
    return type(got) is type(want) and got == want


VALID_DOC = config_to_dict(toy_config())
SWAPS = ["abc", True, False, [1.0, 2.0], {"a": 1}, None, 7, 2.5, 3.0, float("nan"), float("inf")]
# an object in place of a section could hold keys no config has, which no config gives back
NOT_OBJECTS = [v for v in SWAPS if not isinstance(v, dict)]


@st.composite
def mutated_docs(draw):
    """VALID_DOC with a few entries swapped to other JSON types, dropped, or sections replaced."""
    doc = json.loads(json.dumps(VALID_DOC))
    paths = [path for path, _ in _entries(VALID_DOC)]
    sections = sorted(k for k, v in VALID_DOC.items() if isinstance(v, dict))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["swap", "drop", "section"]))
        if how == "section":
            doc[draw(st.sampled_from(sections))] = draw(st.sampled_from(NOT_OBJECTS))
            continue
        *outer, key = draw(st.sampled_from(paths))
        holder = doc[outer[0]] if outer else doc
        if not isinstance(holder, dict):
            continue
        if how == "drop":
            holder.pop(key, None)
        else:
            holder[key] = draw(st.sampled_from(SWAPS))
    return doc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutated_docs())
def test_config_keeps_every_entry_or_raises_config_error(doc):
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        return
    back = config_to_dict(cfg)
    for path, want in _entries(doc):
        got = back
        for key in path:
            got = got[key]
        assert _same(got, want), (path, got, want)


class TestSeeds:
    def test_replicate_seed_xor(self):
        cfg = toy_config(base_seed=47)
        for r in (0, 1, 5, 12):
            assert cfg.replicate_seed(r) == 47 ^ r

    def test_simulation_deterministic_per_replicate(self):
        cfg = toy_config()
        a = simulate_replicate(cfg, 0).encounter_points()
        b = simulate_replicate(cfg, 0).encounter_points()
        c = simulate_replicate(cfg, 1).encounter_points()
        assert np.array_equal(a, b)
        assert len(a) != len(c) or not np.array_equal(a, c)


class TestRunReplicate:
    def test_record_contents(self):
        rec = run_replicate(toy_config(), 0)
        assert rec["replicate"] == 0
        assert rec["setting"] == "toy"
        assert rec["seed"] == 47
        assert rec["n_encounters"] > 0
        for tag in ("uncorrected", "corrected"):
            assert rec[f"mspe_{tag}"] >= 0.0
            assert np.isfinite(rec[f"bias_{tag}"])
            assert rec[f"converged_{tag}"]
        assert "mspe_overlap" not in rec

    def test_deterministic(self):
        cfg = toy_config()
        assert run_replicate(cfg, 1) == run_replicate(cfg, 1)

    def test_counts_truncated_trips(self):
        cfg = toy_config(max_steps=20)
        rec = run_replicate(cfg, 0)
        full = [
            t for t in simulate_replicate(cfg, 0).trips
            if t.encounter is None and len(t.tracks[0]) == cfg.max_steps + 1
        ]
        assert 0 < rec["n_truncated"] == len(full) == cfg.n_trips - rec["n_encounters"]

    def test_no_encounters_is_a_failed_fit(self):
        rec = run_replicate(toy_config(true_range=1e-9, n_trips=3, max_steps=5), 0)
        assert rec["n_encounters"] == 0 and rec["n_truncated"] == 3
        for tag in ("uncorrected", "corrected"):
            assert rec[f"mspe_{tag}"] is None and rec[f"converged_{tag}"] is False
            assert rec[f"error_{tag}"].startswith("DataInconsistencyError: ")

    def test_single_observer_overlap_matches_plain(self):
        rec = run_replicate(toy_config(overlap=True), 0)
        assert rec["mspe_overlap"] == pytest.approx(rec["mspe_corrected"], rel=1e-6)
        assert rec["bias_overlap"] == pytest.approx(rec["bias_corrected"], abs=1e-6)


class TestSummarize:
    def test_skips_sparse_and_missing_metrics(self):
        records = [
            {"mspe_uncorrected": 1.0, "mspe_corrected": 0.5, "bias_uncorrected": 2.0},
            {"mspe_uncorrected": 3.0, "mspe_corrected": None, "bias_uncorrected": 4.0},
            {"mspe_uncorrected": 2.0, "mspe_corrected": np.nan, "bias_uncorrected": 6.0},
        ]
        out = summarize(records, overlap=False)
        assert out["mspe_uncorrected"].median == 2.0
        assert out["bias_uncorrected"].median == 4.0
        # only one finite value survived, too few for an interval
        assert "mspe_corrected" not in out
        assert "bias_corrected" not in out

    def test_overlap_keys_only_when_requested(self):
        records = [
            {"mspe_overlap": 1.0, "bias_overlap": 0.0},
            {"mspe_overlap": 2.0, "bias_overlap": 1.0},
        ]
        assert "mspe_overlap" not in summarize(records, overlap=False)
        assert summarize(records, overlap=True)["mspe_overlap"].median == 1.5


class TestRunExperiment:
    def test_serial_and_parallel_agree(self, tmp_path):
        cfg = toy_config(replicates=2)
        serial = run_experiment(cfg, workers=1)
        pooled = run_experiment(cfg, workers=2)
        assert len(serial.records) == 2
        assert serial.records == pooled.records
        assert set(serial.summaries) >= {"mspe_uncorrected", "mspe_corrected"}

        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_metrics_json(serial, p1)
        write_metrics_json(pooled, p2)
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["setting"] == "toy"
        assert len(doc["records"]) == 2
        assert "mspe_corrected" in doc["summaries"]

        table = summary_table(serial)
        assert "toy" in table and "mspe_corrected" in table


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    replicates=st.integers(1, 3),
    overlap=st.booleans(),
)
def test_metrics_bytes_do_not_depend_on_worker_count(tmp_path_factory, seed, replicates, overlap):
    cfg = toy_config(
        nx=10, ny=10, n_mobile=2, n_trips=6, max_steps=40,
        base_seed=seed, replicates=replicates, overlap=overlap,
    )
    out = tmp_path_factory.mktemp("workers")
    written = []
    for workers in (1, 2, 3):
        path = out / f"metrics_{workers}.json"
        write_metrics_json(run_experiment(cfg, workers=workers), path)
        written.append(path.read_bytes())
    assert written[0] == written[1] == written[2]
