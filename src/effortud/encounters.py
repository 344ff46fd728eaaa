"""Encounter-study simulation: one hidden animal, several observers.

A trip advances the animal and every mobile observer simultaneously.
After each synchronized step, every observer independently attempts a
detection of the animal; the trip ends at the first success (or after
``max_steps`` steps without one). Observer tracks retain every position
up to and including the detection step, since search effort accrues
while traveling to an encounter as well.

Static observers draw their position once per trip from their own
stationary density and do not move.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import check_positive
from .geometry import Point, StudyRegion
from .movement import MovementSpec, Trajectory, common_dt, sample_initial, step_positions

DETECTION_MODES = ("linear-decay", "uniform")


@dataclass(frozen=True)
class ObserverSpec:
    """An observer's movement rule and detection characteristics."""

    kind: str
    movement: MovementSpec
    detection_range: float
    detection_mode: str = "linear-decay"

    def __post_init__(self) -> None:
        if self.kind not in ("mobile", "static"):
            raise ValueError(f"observer kind must be mobile or static, got {self.kind!r}")
        check_positive(self.detection_range, "detection_range")
        if self.detection_mode not in DETECTION_MODES:
            raise ValueError(f"unknown detection mode {self.detection_mode!r}")


@dataclass(frozen=True)
class Encounter:
    point: Point
    step: int
    observer: int
    mark: str | None = None


@dataclass
class TripRecord:
    trip: int
    tracks: list[Trajectory]
    encounter: Encounter | None


@dataclass
class EncounterDataset:
    """All trips of one simulated study."""

    trips: list[TripRecord]

    @property
    def n_trips(self) -> int:
        return len(self.trips)

    def encounters(self) -> list[tuple[int, Encounter]]:
        return [(t.trip, t.encounter) for t in self.trips if t.encounter is not None]

    def encounter_points(self) -> np.ndarray:
        """Encounter locations as an (n, 2) array."""
        pts = [t.encounter.point for t in self.trips if t.encounter is not None]
        if not pts:
            return np.empty((0, 2))
        return np.asarray(pts, dtype=float)


def detection_kernel(d: np.ndarray, detection_range, mode: str) -> np.ndarray:
    """Detection probability at distances ``d``, without argument checks.

    linear-decay: 1 at distance 0 falling linearly to 0 at the range.
    uniform: 1 within the range (inclusive), 0 beyond.
    ``detection_range`` may be an array broadcasting against ``d``.
    """
    if mode == "linear-decay":
        return np.clip(1.0 - d / detection_range, 0.0, 1.0)
    return (d <= detection_range).astype(float)


def detection_prob(distance, detection_range: float, mode: str = "linear-decay"):
    """Detection probability at a given observer-animal distance (see ``detection_kernel``)."""
    check_positive(detection_range, "detection_range")
    if mode not in DETECTION_MODES:
        raise ValueError(f"unknown detection mode {mode!r}")
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    p = detection_kernel(d, detection_range, mode)
    return float(p) if np.isscalar(distance) else p


def run_trip(
    animal: MovementSpec,
    observers: list[ObserverSpec],
    region: StudyRegion,
    max_steps: int,
    rng: np.random.Generator,
    trip: int = 0,
    mark: str | None = None,
) -> TripRecord:
    """Simulate one trip; see the module docstring for the step rules."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if not observers:
        raise ValueError("at least one observer is required")
    dt = common_dt([animal.dt] + [o.movement.dt for o in observers], "animal and observers")

    animal_pos = np.array([sample_initial(animal.potential, region, rng)], dtype=float)
    obs_pos = np.array(
        [sample_initial(o.movement.potential, region, rng) for o in observers], dtype=float
    )

    # mobile observers sharing a movement spec step together, in first-appearance order
    groups: dict[MovementSpec, list[int]] = {}
    for i, o in enumerate(observers):
        if o.kind == "mobile":
            groups.setdefault(o.movement, []).append(i)
    mobile_groups = [(spec, np.array(members)) for spec, members in groups.items()]

    ranges = np.array([o.detection_range for o in observers])
    linear = np.array([o.detection_mode == "linear-decay" for o in observers])

    history = [obs_pos.copy()]
    encounter: Encounter | None = None
    for t in range(1, max_steps + 1):
        animal_pos = step_positions(animal, animal_pos, region, rng.standard_normal((1, 2)))
        for spec, members in mobile_groups:
            obs_pos[members] = step_positions(
                spec, obs_pos[members], region, rng.standard_normal((len(members), 2))
            )
        history.append(obs_pos.copy())

        d = np.hypot(obs_pos[:, 0] - animal_pos[0, 0], obs_pos[:, 1] - animal_pos[0, 1])
        p = np.where(
            linear,
            detection_kernel(d, ranges, "linear-decay"),
            detection_kernel(d, ranges, "uniform"),
        )
        hits = rng.random(len(observers)) < p
        if np.any(hits):
            first = int(np.argmax(hits))
            encounter = Encounter(
                point=Point(float(animal_pos[0, 0]), float(animal_pos[0, 1])),
                step=t,
                observer=first,
                mark=mark,
            )
            break

    arr = np.asarray(history)  # (steps+1, n_obs, 2)
    tracks = [
        Trajectory(positions=arr[:, j, :].copy(), dt=dt)
        for j in range(len(observers))
    ]
    return TripRecord(trip=trip, tracks=tracks, encounter=encounter)


def run_study(
    animal: MovementSpec,
    observers: list[ObserverSpec],
    region: StudyRegion,
    n_trips: int,
    max_steps: int,
    seed: int,
    mark: str | None = None,
) -> EncounterDataset:
    """Simulate ``n_trips`` independent trips.

    Each trip runs on its own generator stream seeded from
    ``[seed, trip_index]``, so studies are reproducible and trips could
    be simulated in any order or in parallel without changing output.
    """
    if n_trips < 1:
        raise ValueError(f"n_trips must be positive, got {n_trips}")
    trips = []
    for k in range(n_trips):
        rng = np.random.default_rng([seed, k])
        trips.append(run_trip(animal, observers, region, max_steps, rng, trip=k, mark=mark))
    return EncounterDataset(trips=trips)


_F = "%.17g"


def write_encounters_csv(dataset: EncounterDataset, path: str | Path) -> None:
    """One row per encounter: trip,step,x,y,mark,observer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trip", "step", "x", "y", "mark", "observer"])
        for trip, enc in dataset.encounters():
            w.writerow(
                [trip, enc.step, _F % enc.point.x, _F % enc.point.y, enc.mark or "", enc.observer]
            )


def _read_csv_rows(path: str | Path, need: set[str], parse) -> list:
    """``parse`` applied to each row of a CSV that has the columns ``need``.

    A row ``parse`` cannot read (a short row, a non-number) raises
    ValueError naming the file and line.
    """
    with open(path, newline="") as fh:
        r = csv.DictReader(fh)
        if r.fieldnames is None or not need.issubset(r.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(need)}, got {r.fieldnames}")
        out = []
        try:
            for row in r:
                out.append(parse(row))
        except (TypeError, ValueError) as exc:
            fields = {k: row.get(k) for k in sorted(need)}
            raise ValueError(f"{path}, line {r.line_num}: cannot read row {fields}") from exc
    return out


def read_encounters_csv(path: str | Path) -> list[dict]:
    return _read_csv_rows(
        path,
        {"trip", "step", "x", "y", "mark", "observer"},
        lambda row: {
            "trip": int(row["trip"]),
            "step": int(row["step"]),
            "x": float(row["x"]),
            "y": float(row["y"]),
            "mark": row["mark"] or None,
            "observer": int(row["observer"]),
        },
    )


def write_tracks_csv(dataset: EncounterDataset, path: str | Path) -> None:
    """One row per recorded observer position: trip,observer,step,x,y."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trip", "observer", "step", "x", "y"])
        for rec in dataset.trips:
            for j, traj in enumerate(rec.tracks):
                for s, (x, y) in enumerate(traj.positions):
                    w.writerow([rec.trip, j, s, _F % x, _F % y])


def read_tracks_csv(path: str | Path, dt: float = 1.0) -> dict[int, list[Trajectory]]:
    """Rebuild observer trajectories from a tracks CSV, grouped by trip.

    Within a trip the returned trajectories are observer-ordered and
    step-aligned (they were recorded simultaneously). The file carries
    no time spacing, so ``dt`` must be supplied.
    """
    parsed = _read_csv_rows(
        path,
        {"trip", "observer", "step", "x", "y"},
        lambda row: (
            (int(row["trip"]), int(row["observer"])),
            (int(row["step"]), float(row["x"]), float(row["y"])),
        ),
    )
    rows: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    for key, pt in parsed:
        rows.setdefault(key, []).append(pt)
    by_trip: dict[int, list[Trajectory]] = {}
    for (trip, obs), pts in sorted(rows.items()):
        pts.sort()
        steps = [s for s, _, _ in pts]
        if steps != list(range(len(steps))):
            raise ValueError(f"trip {trip} observer {obs}: steps not contiguous from 0")
        arr = np.array([(x, y) for _, x, y in pts])
        by_trip.setdefault(trip, []).append(Trajectory(positions=arr, dt=dt))
    return by_trip
