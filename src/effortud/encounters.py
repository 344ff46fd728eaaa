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
from .movement import (
    MovementSpec,
    Potential,
    Trajectory,
    sample_initial,
    step_positions,
)
from .raster_io import _FMT

DETECTION_MODES = ("linear-decay", "uniform")
BLOCK_STEPS = 16  # steps of random draws a trip takes from its generator at a time


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

    @property
    def n_truncated(self) -> int:
        """Trips that ran all ``max_steps`` steps without an encounter."""
        return sum(t.encounter is None for t in self.trips)

    def encounters(self) -> list[tuple[int, Encounter]]:
        return [(t.trip, t.encounter) for t in self.trips if t.encounter is not None]

    def encounter_points(self) -> np.ndarray:
        """Encounter locations as an (n, 2) array."""
        pts = [t.encounter.point for t in self.trips if t.encounter is not None]
        if not pts:
            return np.empty((0, 2))
        return np.asarray(pts, dtype=float)


def detection_kernel(d: np.ndarray, detection_range, mode: str, out=None) -> np.ndarray:
    """Detection probability at distances ``d >= 0``, without argument checks.

    linear-decay: 1 at distance 0 falling linearly to 0 at the range.
    uniform: 1 within the range (inclusive), 0 beyond.
    ``detection_range`` may be an array broadcasting against ``d``; ``out`` receives the result.
    """
    if mode == "linear-decay":
        # max(1 - d/r, 0): for d >= 0 the bits of clip(1 - d/r, 0, 1)
        p = np.subtract(1.0, np.divide(d, detection_range, out=out), out=out)
        return np.maximum(p, 0.0, out=out)
    return np.multiply(d <= detection_range, 1.0, out=out)


def run_study(
    animal: MovementSpec,
    observers: list[ObserverSpec],
    region: StudyRegion,
    n_trips: int,
    max_steps: int,
    seed: int,
    mark: str | None = None,
) -> EncounterDataset:
    """Simulate ``n_trips`` independent trips, all advanced together.

    The trips step in lockstep as one (n_trips, 1, 2) animal array and
    one (n_trips, n_observers, 2) observer array; a trip drops out after
    its encounter or at ``max_steps``. Trip ``k`` draws only from its own
    generator, ``default_rng([seed, k])``, in this order:

    1. the starts: the animal's (``sample_initial`` with n=1), then one
       ``sample_initial`` call per observer potential, in order of first
       appearance in ``observers``, for all observers sharing it;
    2. then, per block of ``BLOCK_STEPS`` steps (fewer in a last block cut
       by ``max_steps``), ``standard_normal((b, 1 + n_mobile, 2))`` step
       noise (per step the animal's, then each mobile observer's in
       observer order) followed by ``random((b, n_observers))`` detection
       uniforms. A trip that ends inside a block leaves the rest unused,
       and draws no further block.

    A trip's record therefore depends on ``seed`` and ``k`` alone, not on
    ``n_trips``, the trip order or the worker count.
    """
    if n_trips < 1:
        raise ValueError(f"n_trips must be positive, got {n_trips}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if not observers:
        raise ValueError("at least one observer is required")
    n_obs = len(observers)

    starts: dict[Potential, list[int]] = {}
    moves: dict[MovementSpec, list[int]] = {}
    for i, o in enumerate(observers):
        starts.setdefault(o.movement.potential, []).append(i)
        if o.kind == "mobile":
            moves.setdefault(o.movement, []).append(i)
    # noise column of each observer: column 0 is the animal's, then the mobile observers'
    col = np.cumsum([o.kind == "mobile" for o in observers])
    groups = [(spec, np.array(members), col[members]) for spec, members in moves.items()]
    ranges = np.array([o.detection_range for o in observers])
    linear = np.array([o.detection_mode == "linear-decay" for o in observers])

    rngs = [np.random.default_rng([seed, k]) for k in range(n_trips)]
    apos = np.empty((n_trips, 1, 2))
    opos = np.empty((n_trips, n_obs, 2))
    for k, rng in enumerate(rngs):
        apos[k] = sample_initial(animal.potential, region, rng, n=1)
        for potential, members in starts.items():
            opos[k, members] = sample_initial(potential, region, rng, n=len(members))

    # each trip's observer tracks, observer-major: (n_obs, steps, 2) pieces
    chunks: list[list[np.ndarray]] = [[opos[k, :, None].copy()] for k in range(n_trips)]
    encounters: list[Encounter | None] = [None] * n_trips
    live = np.arange(n_trips)  # trip ids of the rows of apos and opos
    t0 = 0
    while live.size and t0 < max_steps:
        b = min(BLOCK_STEPS, max_steps - t0)
        block_ids = live
        noise = np.empty((live.size, b, 1 + col[-1], 2))
        uniforms = np.empty((live.size, b, n_obs))
        for r, k in enumerate(live):
            rngs[k].standard_normal(out=noise[r])
            rngs[k].random(out=uniforms[r])
        hist = np.empty((live.size, n_obs, b, 2))
        ends = np.full(live.size, b)  # steps of this block each row keeps
        rows = np.arange(live.size)  # block rows of the trips still live
        for s in range(b):
            z = noise[rows, s]
            apos = step_positions(animal, apos, region, z[:, :1])
            for spec, members, cols in groups:
                opos[:, members] = step_positions(spec, opos[:, members], region, z[:, cols])
            hist[rows, :, s] = opos

            d = np.hypot(opos[..., 0] - apos[..., 0], opos[..., 1] - apos[..., 1])
            p = np.where(
                linear,
                detection_kernel(d, ranges, "linear-decay"),
                detection_kernel(d, ranges, "uniform"),
            )
            hits = uniforms[rows, s] < p
            done = hits.any(axis=1)
            if not done.any():
                continue
            for r in np.flatnonzero(done):
                x, y = apos[r, 0]
                encounters[live[r]] = Encounter(
                    point=Point(float(x), float(y)),
                    step=t0 + s + 1,
                    observer=int(np.argmax(hits[r])),
                    mark=mark,
                )
            ends[rows[done]] = s + 1
            keep = ~done
            live, rows, apos, opos = live[keep], rows[keep], apos[keep], opos[keep]
        for k, h, e in zip(block_ids, hist, ends):
            chunks[k].append(h[:, :e].copy())  # a copy, so the block's arrays are freed
        t0 += b

    trips = []
    for k in range(n_trips):
        arr = np.concatenate(chunks[k], axis=1)
        chunks[k] = []  # free the pieces trip by trip: peak memory stays near the output's
        tracks = [Trajectory(positions=arr[j]) for j in range(n_obs)]
        trips.append(TripRecord(trip=k, tracks=tracks, encounter=encounters[k]))
    return EncounterDataset(trips=trips)


def write_encounters_csv(dataset: EncounterDataset, path: str | Path) -> None:
    """One row per encounter: trip,step,x,y,mark,observer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trip", "step", "x", "y", "mark", "observer"])
        for trip, enc in dataset.encounters():
            w.writerow(
                [trip, enc.step, _FMT % enc.point.x, _FMT % enc.point.y, enc.mark or "", enc.observer]
            )


def _read_csv_rows(path: str | Path, need: set[str], parse) -> list:
    """``parse`` applied to each row of a CSV that has the columns ``need``.

    A row ``parse`` cannot read (a short row, a non-number) or the csv
    module cannot split (an over-long field) raises ValueError naming the
    file and line.
    """
    with open(path, newline="") as fh:
        r = csv.DictReader(fh)
        try:
            if r.fieldnames is None or not need.issubset(r.fieldnames):
                raise ValueError(f"{path}: expected columns {sorted(need)}, got {r.fieldnames}")
            out = []
            for row in r:
                try:
                    out.append(parse(row))
                except (TypeError, ValueError) as exc:
                    fields = {k: row.get(k) for k in sorted(need)}
                    raise ValueError(f"{path}, line {r.line_num}: cannot read row {fields}") from exc
        except csv.Error as exc:  # r.line_num counts only the rows it returned
            raise ValueError(f"{path}, line {r.reader.line_num}: {exc}") from exc
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
                    w.writerow([rec.trip, j, s, _FMT % x, _FMT % y])


def read_tracks_csv(path: str | Path) -> dict[int, list[Trajectory]]:
    """Rebuild observer trajectories from a tracks CSV, grouped by trip.

    Within a trip the returned trajectories are observer-ordered and
    step-aligned (they were recorded simultaneously). The file carries
    steps, not times: the time a step takes is the caller's scale.
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
        by_trip.setdefault(trip, []).append(Trajectory(positions=arr))
    return by_trip
