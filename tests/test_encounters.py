"""Trip simulation, detection rules, and dataset file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effortud.encounters import (
    BLOCK_STEPS,
    Encounter,
    ObserverSpec,
    TripRecord,
    detection_kernel,
    miss_probability,
    read_encounters_csv,
    read_tracks_csv,
    run_study,
    write_encounters_csv,
    write_tracks_csv,
)
from effortud.geometry import Point, StudyRegion
from effortud.movement import (
    BivariateNormalPotential,
    HalfNormalYPotential,
    MovementSpec,
    Trajectory,
    sample_initial,
    step_positions,
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
        p = detection_kernel(np.array([0.0, 10.0, 5.0, 25.0]), 10.0, "linear-decay")
        assert p.tolist() == [1.0, 0.0, 0.5, 0.0]

    def test_uniform(self):
        p = detection_kernel(np.array([9.99, 10.0, 10.01]), 10.0, "uniform")
        assert p.tolist() == [1.0, 1.0, 0.0]

    def test_vectorized(self):
        d = np.array([0.0, 2.5, 10.0])
        p = detection_kernel(d, 10.0, "linear-decay")
        assert p == pytest.approx([1.0, 0.75, 0.0])

    @pytest.mark.parametrize("r", [10.0, 0.3, 2.5e-7, 1e300])
    def test_kernel_in_place_matches_clip_bit_for_bit(self, r):
        # max(1 - d/r, 0) into out=d has the bits of the clip it replaced, and
        # the uniform kernel those of the comparison cast to float
        d = np.array([0.0, r, np.nextafter(r, 0.0), np.nextafter(r, np.inf), 0.5 * r, 1e-300,
                      (1.0 - 1e-16) * r, (1.0 + 1e-15) * r, 3.0 * r, 1e6 * r, np.inf])
        for mode, old in (("linear-decay", np.clip(1.0 - d / r, 0.0, 1.0)),
                          ("uniform", (d <= r).astype(float))):
            assert detection_kernel(d, r, mode).tobytes() == old.tobytes()
            out = d.copy()
            assert detection_kernel(out, r, mode, out=out) is out
            assert out.tobytes() == old.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(d=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20), r=st.floats(1e-6, 1e6))
    def test_kernel_in_place_matches_clip_on_any_distance(self, d, r):
        d = np.array(d)
        for mode, old in (("linear-decay", np.clip(1.0 - d / r, 0.0, 1.0)),
                          ("uniform", (d <= r).astype(float))):
            out = d.copy()
            assert detection_kernel(out, r, mode, out=out).tobytes() == old.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(d=st.lists(st.floats(0.0, 1e6), max_size=20), r=st.floats(1e-6, 1e6))
    def test_kernel_is_one_minus_the_miss_probability(self, d, r):
        # the miss probability is min(d/r, 1) or d > r; the kernel is 1 - miss, bit for bit
        d = np.array(d + [0.0, r, np.nextafter(r, 0.0), np.nextafter(r, np.inf), np.inf])
        for mode, want in (("linear-decay", [min(x / r, 1.0) for x in d]),
                           ("uniform", [float(x > r) for x in d])):
            miss = miss_probability(d, r, mode)
            assert miss.tobytes() == np.array(want).tobytes()
            p = detection_kernel(d, r, mode)
            assert p.tobytes() == (1.0 - miss).tobytes()
            for fn, bits in ((miss_probability, miss), (detection_kernel, p)):
                out = d.copy()
                assert fn(out, r, mode, out=out) is out
                assert out.tobytes() == bits.tobytes()

    def test_invalid_arguments(self):
        # the range and mode an observer detects with are checked where they are set
        with pytest.raises(ValueError):
            ObserverSpec("mobile", observer_movement(), 0.0)
        with pytest.raises(ValueError):
            ObserverSpec("mobile", observer_movement(), 10.0, "gaussian")


def one_trip(observers, max_steps, seed):
    """The one trip of a one-trip study."""
    return run_study(animal_spec(), observers, REGION, 1, max_steps, seed=seed).trips[0]


class TestRunTrip:
    """The rules of one trip, run through ``run_study``."""

    def test_zero_observers_rejected(self):
        with pytest.raises(ValueError):
            run_study(animal_spec(), [], REGION, 1, 10, seed=0)

    def test_region_covering_uniform_detects_at_step_one(self):
        # range exceeds the region diagonal, so detection is certain
        obs = ObserverSpec("static", observer_movement(), 200.0, "uniform")
        ds = run_study(animal_spec(), [obs], REGION, 10, 500, seed=4)
        for rec in ds.trips:
            assert rec.encounter is not None
            assert rec.encounter.step == 1

    def test_encounter_geometry(self):
        obs = [mobile_observer(), mobile_observer()]
        ds = run_study(animal_spec(), obs, REGION, 40, 500, seed=8)
        for trip, e in ds.encounters():
            opos = ds.trips[trip].tracks[e.observer].positions[e.step]
            dist = np.hypot(opos[0] - e.point.x, opos[1] - e.point.y)
            assert dist <= obs[e.observer].detection_range + 1e-9
        assert ds.encounters()

    def test_tracks_truncated_at_encounter(self):
        ds = run_study(animal_spec(), [mobile_observer()], REGION, 40, 500, seed=15)
        assert ds.encounters()
        for rec in ds.trips:
            # per-step positions 0..encounter step inclusive, or all max_steps + 1
            steps = rec.encounter.step if rec.encounter else 500
            assert len(rec.tracks[0]) == steps + 1

    def test_no_encounter_full_tracks(self):
        # zero-probability detection: range tiny, animal far away is typical
        obs = ObserverSpec("static", observer_movement(), 1e-6, "uniform")
        rec = one_trip([obs], 50, seed=2)
        assert rec.encounter is None
        assert len(rec.tracks[0]) == 51

    def test_static_observer_does_not_move(self):
        obs = ObserverSpec("static", observer_movement(), 1e-6, "uniform")
        rec = one_trip([obs], 30, seed=3)
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


def reference_trip(animal, observers, max_steps, seed, trip, mark=None):
    """One trip simulated on its own, reading ``run_study``'s documented stream layout.

    Every observer steps alone, so the grouping by movement spec and the
    lockstep masking of ``run_study`` are not reused here.
    """
    rng = np.random.default_rng([seed, trip])
    apos = sample_initial(animal.potential, REGION, rng, n=1)
    opos = np.empty((len(observers), 2))
    firsts = []
    for o in observers:
        if o.movement.potential not in firsts:
            firsts.append(o.movement.potential)
    for pot in firsts:
        members = [i for i, o in enumerate(observers) if o.movement.potential == pot]
        opos[members] = sample_initial(pot, REGION, rng, n=len(members))
    mobile = [i for i, o in enumerate(observers) if o.kind == "mobile"]

    history = [opos.copy()]
    encounter = None
    t = 0
    while encounter is None and t < max_steps:
        b = min(BLOCK_STEPS, max_steps - t)
        noise = rng.standard_normal((b, 1 + len(mobile), 2))
        uniforms = rng.random((b, len(observers)))
        for s in range(b):
            t += 1
            apos = step_positions(animal, apos, REGION, noise[s, :1])
            for c, i in enumerate(mobile):
                opos[i] = step_positions(
                    observers[i].movement, opos[i : i + 1], REGION, noise[s, 1 + c : 2 + c]
                )[0]
            history.append(opos.copy())
            for i, o in enumerate(observers):
                d = np.hypot(opos[i, 0] - apos[0, 0], opos[i, 1] - apos[0, 1])
                if uniforms[s, i] < detection_kernel(d, o.detection_range, o.detection_mode):
                    x, y = apos[0]
                    encounter = Encounter(Point(float(x), float(y)), t, i, mark)
                    break
            if encounter is not None:
                break
    arr = np.asarray(history)
    tracks = [Trajectory(arr[:, j].copy()) for j in range(len(observers))]
    return TripRecord(trip=trip, tracks=tracks, encounter=encounter)


def assert_same_record(a: TripRecord, b: TripRecord) -> None:
    assert a.trip == b.trip
    assert a.encounter == b.encounter
    assert len(a.tracks) == len(b.tracks)
    for ta, tb in zip(a.tracks, b.tracks):
        assert ta.positions.tobytes() == tb.positions.tobytes()


def fast_animal():
    return MovementSpec(BivariateNormalPotential((50.0, 60.0), 400.0), 50.0)


def static_observer(detection_range=10.0, mode="linear-decay"):
    return ObserverSpec("static", observer_movement(), detection_range, mode)


class TestLockstep:
    """``run_study`` against trips simulated one at a time."""

    def check(self, observers, n_trips, max_steps, seed, animal=None, mark=None):
        animal = animal or animal_spec()
        ds = run_study(animal, observers, REGION, n_trips, max_steps, seed=seed, mark=mark)
        for rec in ds.trips:
            assert_same_record(rec, reference_trip(animal, observers, max_steps, seed, rec.trip, mark))
        return ds

    def test_encounters_in_first_and_later_blocks(self):
        obs = [mobile_observer(15.0) for _ in range(4)]
        ds = self.check(obs, 30, 200, seed=5, animal=fast_animal(), mark="m")
        steps = [e.step for _, e in ds.encounters()]
        assert min(steps) <= BLOCK_STEPS < max(steps)

    def test_truncated_trips(self):
        # the last block is cut short by max_steps and holds an encounter
        obs = [mobile_observer(8.0), mobile_observer(8.0)]
        ds = self.check(obs, 12, 2 * BLOCK_STEPS + 5, seed=1, animal=fast_animal())
        assert 0 < ds.n_truncated < ds.n_trips
        assert max(e.step for _, e in ds.encounters()) > 2 * BLOCK_STEPS
        for rec in ds.trips:
            if rec.encounter is None:
                assert len(rec.tracks[0]) == 2 * BLOCK_STEPS + 6

    def test_mixed_static_and_mobile(self):
        obs = [static_observer(8.0), mobile_observer(), static_observer(12.0, "uniform"),
               mobile_observer(6.0, "uniform")]
        ds = self.check(obs, 20, 60, seed=11)
        assert ds.encounters() and ds.n_truncated

    def test_two_mobile_movement_groups(self):
        slow = observer_movement()
        quick = MovementSpec(BivariateNormalPotential((30.0, 70.0), 300.0), 9.0)
        obs = [ObserverSpec("mobile", quick, 10.0), ObserverSpec("mobile", slow, 10.0),
               ObserverSpec("static", slow, 5.0), ObserverSpec("mobile", quick, 10.0)]
        self.check(obs, 20, 70, seed=23)

    def test_zero_steps(self):
        ds = self.check([mobile_observer()], 3, 0, seed=1)
        assert ds.n_truncated == 3
        assert all(len(rec.tracks[0]) == 1 for rec in ds.trips)

    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(k=st.integers(0, 6), seed=st.integers(0, 2**31 - 1))
    def test_trip_record_independent_of_trip_count(self, k, seed):
        obs = [mobile_observer(), static_observer()]
        few = run_study(animal_spec(), obs, REGION, k + 1, 40, seed=seed)
        many = run_study(animal_spec(), obs, REGION, k + 5, 40, seed=seed)
        assert_same_record(few.trips[k], many.trips[k])


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
        by_trip = read_tracks_csv(p)
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

    @pytest.mark.parametrize("reader", [read_encounters_csv, read_tracks_csv])
    def test_over_long_field_named_with_its_line(self, tmp_path, reader):
        # past the csv module's field limit (131072 characters) a line cannot be split
        p = tmp_path / "long.csv"
        p.write_text("trip,observer,step,x,y,mark\n0,0,0,1.0,2.0,\n0,0,1,1.0," + "2" * 200_000 + ",\n")
        with pytest.raises(ValueError, match="long.csv, line 3: field larger than field limit"):
            reader(p)
