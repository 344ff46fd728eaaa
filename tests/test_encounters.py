"""Trip simulation, detection rules, and dataset file round trips."""

import numpy as np
import pytest

from effortud.encounters import (
    ObserverSpec,
    detection_prob,
    read_encounters_csv,
    read_tracks_csv,
    run_study,
    run_trip,
    write_encounters_csv,
    write_tracks_csv,
)
from effortud.geometry import StudyRegion
from effortud.movement import (
    BivariateNormalPotential,
    HalfNormalYPotential,
    MovementSpec,
)

REGION = StudyRegion(0.0, 100.0, 0.0, 100.0)


def animal_spec():
    return MovementSpec(BivariateNormalPotential((50.0, 50.0), 200.0), 2.0)


def observer_movement(potential_variance=400.0, bm_variance=2.0):
    return MovementSpec(HalfNormalYPotential(100.0, potential_variance), bm_variance)


def mobile_observer(detection_range=10.0, mode="linear-decay"):
    return ObserverSpec("mobile", observer_movement(), detection_range, mode)


class TestDetectionProb:
    def test_linear_decay_anchors(self):
        assert detection_prob(0.0, 10.0, "linear-decay") == 1.0
        assert detection_prob(10.0, 10.0, "linear-decay") == 0.0
        assert detection_prob(5.0, 10.0, "linear-decay") == pytest.approx(0.5)
        assert detection_prob(25.0, 10.0, "linear-decay") == 0.0

    def test_uniform(self):
        assert detection_prob(9.99, 10.0, "uniform") == 1.0
        assert detection_prob(10.0, 10.0, "uniform") == 1.0
        assert detection_prob(10.01, 10.0, "uniform") == 0.0

    def test_vectorized(self):
        d = np.array([0.0, 2.5, 10.0])
        p = detection_prob(d, 10.0, "linear-decay")
        assert p == pytest.approx([1.0, 0.75, 0.0])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            detection_prob(1.0, 0.0)
        with pytest.raises(ValueError):
            detection_prob(-1.0, 10.0)
        with pytest.raises(ValueError):
            detection_prob(1.0, 10.0, "gaussian")


class TestRunTrip:
    def test_zero_observers_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            run_trip(animal_spec(), [], REGION, 10, rng)

    def test_region_covering_uniform_detects_at_step_one(self):
        # range exceeds the region diagonal, so detection is certain
        obs = ObserverSpec("static", observer_movement(), 200.0, "uniform")
        rng = np.random.default_rng(4)
        for _ in range(10):
            rec = run_trip(animal_spec(), [obs], REGION, 500, rng)
            assert rec.encounter is not None
            assert rec.encounter.step == 1

    def test_encounter_geometry(self):
        obs = [mobile_observer(), mobile_observer()]
        rng = np.random.default_rng(8)
        found = 0
        for trip in range(40):
            rec = run_trip(animal_spec(), obs, REGION, 500, rng, trip=trip)
            if rec.encounter is None:
                continue
            found += 1
            e = rec.encounter
            opos = rec.tracks[e.observer].positions[e.step]
            dist = np.hypot(opos[0] - e.point.x, opos[1] - e.point.y)
            assert dist <= obs[e.observer].detection_range + 1e-9
        assert found > 0

    def test_tracks_truncated_at_encounter(self):
        obs = [mobile_observer()]
        rng = np.random.default_rng(15)
        rec = None
        while rec is None or rec.encounter is None:
            rec = run_trip(animal_spec(), obs, REGION, 500, rng)
        # per-step positions 0..encounter step inclusive
        assert len(rec.tracks[0]) == rec.encounter.step + 1

    def test_no_encounter_full_tracks(self):
        # zero-probability detection: range tiny, animal far away is typical
        obs = ObserverSpec("static", observer_movement(), 1e-6, "uniform")
        rng = np.random.default_rng(2)
        rec = run_trip(animal_spec(), [obs], REGION, 50, rng)
        assert rec.encounter is None
        assert len(rec.tracks[0]) == 51

    def test_static_observer_does_not_move(self):
        obs = ObserverSpec("static", observer_movement(), 1e-6, "uniform")
        rng = np.random.default_rng(3)
        rec = run_trip(animal_spec(), [obs], REGION, 30, rng)
        assert np.all(rec.tracks[0].positions == rec.tracks[0].positions[0])

    def test_high_bias_encounters_skew_north(self):
        """Monte Carlo check: effort near y=100 biases raw encounters north."""
        obs = [mobile_observer()]
        ds = run_study(animal_spec(), obs, REGION, 100, 500, seed=31)
        assert 0 < len(ds.encounters()) < ds.n_trips
        assert ds.encounter_points()[:, 1].mean() > 50.0


class TestRunStudy:
    def test_n_trips(self):
        ds = run_study(animal_spec(), [mobile_observer()], REGION, 150, 5, seed=0)
        assert ds.n_trips == 150

    def test_determinism(self):
        a = run_study(animal_spec(), [mobile_observer()], REGION, 5, 100, seed=9)
        b = run_study(animal_spec(), [mobile_observer()], REGION, 5, 100, seed=9)
        assert np.array_equal(a.encounter_points(), b.encounter_points())
        for ta, tb in zip(a.trips, b.trips):
            for ja, jb in zip(ta.tracks, tb.tracks):
                assert np.array_equal(ja.positions, jb.positions)

    def test_roster_sizes(self):
        move = observer_movement()
        roster = [ObserverSpec("mobile", move, 10.0)] + [
            ObserverSpec("static", move, 10.0) for _ in range(20)
        ]
        ds = run_study(animal_spec(), roster, REGION, 2, 20, seed=1)
        for rec in ds.trips:
            assert len(rec.tracks) == 21

    def test_invalid_trip_count(self):
        with pytest.raises(ValueError):
            run_study(animal_spec(), [mobile_observer()], REGION, 0, 10, seed=0)

    def test_mark_carried_through(self):
        obs = ObserverSpec("static", observer_movement(), 200.0, "uniform")
        ds = run_study(animal_spec(), [obs], REGION, 3, 5, seed=0, mark="podA")
        assert all(e.mark == "podA" for _, e in ds.encounters())


class TestDatasetFiles:
    def _dataset(self):
        obs = [mobile_observer(), ObserverSpec("static", observer_movement(), 10.0)]
        return run_study(animal_spec(), obs, REGION, 6, 80, seed=13, mark="m1")

    def test_encounters_round_trip(self, tmp_path):
        ds = self._dataset()
        p = tmp_path / "enc.csv"
        write_encounters_csv(ds, p)
        rows = read_encounters_csv(p)
        assert len(rows) == len(ds.encounters())
        for row, (trip, enc) in zip(rows, ds.encounters()):
            assert row["trip"] == trip
            assert row["step"] == enc.step
            assert row["x"] == enc.point.x and row["y"] == enc.point.y
            assert row["mark"] == "m1"
            assert row["observer"] == enc.observer

    def test_tracks_round_trip(self, tmp_path):
        ds = self._dataset()
        p = tmp_path / "tracks.csv"
        write_tracks_csv(ds, p)
        by_trip = read_tracks_csv(p, dt=1.0)
        assert set(by_trip) == {rec.trip for rec in ds.trips}
        for rec in ds.trips:
            back = by_trip[rec.trip]
            assert len(back) == len(rec.tracks)
            for orig, got in zip(rec.tracks, back):
                assert np.array_equal(orig.positions, got.positions)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("trip,x,y\n0,1,2\n")
        with pytest.raises(ValueError):
            read_encounters_csv(p)
        with pytest.raises(ValueError):
            read_tracks_csv(p)
