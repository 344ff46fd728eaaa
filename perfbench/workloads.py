"""The benchmark's workloads: set-up, timed units, and output checks.

Each workload turns a seed into inputs (``setup``). The inputs split into
``units``, the pieces a pass is timed in: one ``run_experiment`` call per
study setting or replicate, or one stage of the file-based pipeline.
``run_pass`` runs one unit, given the output of the unit before it when
the units are chained, and ``check`` checks what it produced. Only
``run_pass`` is timed. Study settings mirror ``HIGH``, ``RANGE2``,
``RANGE50`` and ``FAST`` of the acceptance tests, written in the
package's JSON config format and read with ``config_from_dict``.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from tracing import patched

GTOL = 1e-8  # fit_mle's default, used by run_replicate and the model spec
UD_TOL = 1e-9
OVERLAP_RTOL = 1e-12
FINE_N = 400
EXCEED_DRAWS = 1000  # the CLI's --samples default
# FAST replicates per fast-overlap pass. How soon trips end varies with the
# seed: over two replicates the overlap loop's step count spreads 12% across
# seeds (interquartile range over median), over six about 5%.
FAST_REPLICATES = 6

HIGH = {
    "label": "high-bias",
    "region": {"xmin": 0.0, "xmax": 100.0, "ymin": 0.0, "ymax": 100.0},
    "grid": {"nx": 100, "ny": 100},
    "animal": {"center": [50.0, 50.0], "potential_variance": 200.0, "bm_variance": 2.0},
    "observers": {
        "mobile": 1,
        "static": 0,
        "bm_variance": 2.0,
        "potential_center_y": 100.0,
        "potential_variance": 400.0,
    },
    "detection": {"range": 10.0, "mode": "linear-decay"},
    "study": {"n_trips": 150, "max_steps": 500},
    "analyst": {
        "assumed_range": 10.0,
        "detection_modeled": True,
        "overlap": False,
        "effort_floor": 1e-6,
    },
    "replicates": 1,
    "base_seed": 47,
    "workers": 1,
}


def _variant(base: dict, **sections: dict) -> dict:
    doc = copy.deepcopy(base)
    for key, val in sections.items():
        if isinstance(val, dict):
            doc[key].update(val)
        else:
            doc[key] = val
    return doc


RANGE2 = _variant(HIGH, label="range-2", analyst={"assumed_range": 2.0})
RANGE50 = _variant(HIGH, label="range-50", analyst={"assumed_range": 50.0})
FAST = _variant(
    HIGH,
    label="fast-animal",
    animal={"potential_variance": 400.0, "bm_variance": 400.0},
    observers={"mobile": 20},
    analyst={"overlap": True},
    replicates=2,
)

# Smoke mode keeps every code path but shrinks the work: fewer trips, a
# coarse grid, few exceedance draws. Six observers make trips end early,
# so a small study still has enough encounters to fit.
SMOKE = {
    "grid": {"nx": 40, "ny": 40},
    "study": {"n_trips": 30, "max_steps": 100},
    "observers": {"mobile": 6},
}
SMOKE_FINE_N = 40
SMOKE_DRAWS = 20
SMOKE_FAST_REPLICATES = 2


@dataclass
class Tally:
    """Operations attempted and failed, by kind, with failure messages."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    def record(self, kind: str, ok: bool, detail: str = "") -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            self.messages.append(f"{kind}: {detail}")

    @property
    def n_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _check_fit(tally: Tally, fit) -> None:
    tally.record(
        "fit",
        bool(fit.converged) and fit.gradient_max_norm < GTOL,
        f"converged={fit.converged} gradient_max_norm={fit.gradient_max_norm}",
    )


def _check_ud(tally: Tally, ud) -> None:
    mass = float(ud.values.sum() * ud.grid.cell_area)
    tally.record("ud", abs(mass - 1.0) <= UD_TOL, f"UD mass {mass!r}")


# --- replicate workloads: whole run_experiment calls -------------------------


@dataclass
class ReplicateInputs:
    configs: list  # one per unit
    fingerprint: str

    @property
    def units(self) -> int:
        return len(self.configs)


@dataclass
class Captured:
    """Outputs seen at the experiment module's boundaries during a pass."""

    fits: list = field(default_factory=list)  # FitResult or the exception raised
    uds: list = field(default_factory=list)
    efforts: list = field(default_factory=list)  # (tracks, range, mode, overlap, field)


@dataclass
class ReplicateOutput:
    records: list
    captured: Captured
    fingerprint: str


def _taps(pkg, cap: Captured) -> contextlib.ExitStack:
    """Keep references to fits, UDs and effort fields for the checks."""

    def tap_fit(orig):
        def fit_mle(*args, **kwargs):
            try:
                fit = orig(*args, **kwargs)
            except Exception as exc:
                cap.fits.append(exc)
                raise
            cap.fits.append(fit)
            return fit

        return fit_mle

    def tap_ud(orig):
        def normalize_ud(*args, **kwargs):
            ud = orig(*args, **kwargs)
            cap.uds.append(ud)
            return ud

        return normalize_ud

    def tap_effort(orig):
        def trip_grouped_effort(tracks, grid, detection_range, mode="detection", overlap=False):
            f = orig(tracks, grid, detection_range, mode=mode, overlap=overlap)
            cap.efforts.append((tracks, detection_range, mode, overlap, f))
            return f

        return trip_grouped_effort

    ex = pkg.experiment
    stack = contextlib.ExitStack()
    stack.enter_context(patched(ex, "fit_mle", tap_fit))
    stack.enter_context(patched(ex, "normalize_ud", tap_ud))
    stack.enter_context(patched(ex, "trip_grouped_effort", tap_effort))
    return stack


def _replicate_setup(docs: list[dict], replicates: int = 1, smoke_replicates: int = 1) -> Callable:
    """One unit per setting and replicate, each a one-replicate experiment.

    Replicate ``r`` of base seed ``S`` is replicate 0 of base seed ``S XOR r``,
    so the units simulate what ``run_experiment`` would for all replicates.
    """

    def setup(pkg, seed: int, smoke: bool) -> ReplicateInputs:
        n = smoke_replicates if smoke else replicates
        configs = []
        for doc in docs:
            for r in range(n):
                unit = _variant(doc, base_seed=seed ^ r, replicates=1, **(SMOKE if smoke else {}))
                configs.append(pkg.experiment.config_from_dict(unit))
        return ReplicateInputs(configs, _digest(repr(c) for c in configs))

    return setup


def replicate_pass(
    pkg, inp: ReplicateInputs, unit: int, tracer, work: Path, prev=None
) -> ReplicateOutput:
    cap = Captured()
    with _taps(pkg, cap):
        res = pkg.experiment.run_experiment(inp.configs[unit], workers=1)
    records = res.records
    parts = [json.dumps(records, sort_keys=True).encode()]
    parts += [f.theta.tobytes() for f in cap.fits if not isinstance(f, Exception)]
    parts += [e[-1].values.tobytes() for e in cap.efforts]
    return ReplicateOutput(records, cap, _digest(parts))


def replicate_check(
    pkg, inp: ReplicateInputs, unit: int, out: ReplicateOutput, tally: Tally
) -> None:
    for fit in out.captured.fits:
        if isinstance(fit, Exception):
            tally.record("fit", False, f"raised {type(fit).__name__}: {fit}")
        else:
            _check_fit(tally, fit)
    for ud in out.captured.uds:
        _check_ud(tally, ud)
    efforts = out.captured.efforts
    for tracks, rng, mode, overlap, over in efforts:
        if not overlap:
            continue
        summed = [
            e[-1] for e in efforts if e[0] is tracks and e[1] == rng and e[2] == mode and not e[3]
        ]
        if not summed:
            tally.record("overlap", False, "no summed effort to compare with")
            continue
        s = summed[0].values
        bad = int(np.count_nonzero(over.values > s + OVERLAP_RTOL * np.abs(s)))
        tally.record("overlap", bad == 0, f"{bad} cells with overlap effort above summed")


# --- fine-grid-400: the analyst's file-based path -----------------------------
#
# The path runs as three units, each timed on its own and fed by the unit
# before it: effort (trip_grouped_effort, CSV write), fit (model spec, fit,
# fit JSON round trip, predict, normalize) and exceedance (sampling, ASCII
# write). A run repeats the stages while time allows, so a stage can get
# more than one timing.


@dataclass
class FineInputs:
    grid: Any
    tracks: dict
    points: np.ndarray
    n: int
    draws: int
    seed: int
    fingerprint: str
    units = 3  # the stages of FINE_STAGES


@dataclass
class EffortStage:
    effort: Any
    effort_csv: Path
    fingerprint: str


@dataclass
class FitStage:
    model: Any
    fit: Any
    fit_read: Any
    ud: Any
    fingerprint: str


@dataclass
class ExceedanceStage:
    emap: Any
    asc: Path
    fingerprint: str


def fine_setup(pkg, seed: int, smoke: bool) -> FineInputs:
    doc = _variant(HIGH, base_seed=seed, **(SMOKE if smoke else {}))
    cfg = pkg.experiment.config_from_dict(doc)
    ds = pkg.experiment.simulate_replicate(cfg, 0)
    tracks = {t.trip: t.tracks for t in ds.trips}
    points = ds.encounter_points()
    n = SMOKE_FINE_N if smoke else FINE_N
    grid = pkg.geometry.build_grid(cfg.region, n, n)
    parts = [points.tobytes()] + [tr.positions.tobytes() for ts in tracks.values() for tr in ts]
    draws = SMOKE_DRAWS if smoke else EXCEED_DRAWS
    return FineInputs(grid, tracks, points, n, draws, seed, _digest(parts))


def _fit_json_round_trip(pkg, fit, path: Path):
    pkg.model_io.write_fit_json(fit, path)
    return pkg.model_io.read_fit_json(path)


def _effort_stage(pkg, inp: FineInputs, prev, T, work: Path) -> EffortStage:
    eff = T.call(
        "effort.trip_grouped",
        pkg.effort.trip_grouped_effort,
        inp.tracks,
        inp.grid,
        10.0,
        mode="detection",
        overlap=False,
    )
    effort_csv = work / "effort.csv"
    T.call("raster_io.csv_write", pkg.raster_io.write_raster_csv, eff, effort_csv)
    return EffortStage(eff, effort_csv, _digest([effort_csv.read_bytes()]))


def _fit_stage(pkg, inp: FineInputs, prev: EffortStage, T, work: Path) -> FitStage:
    r = inp.grid.region
    spec = {
        "region": {"xmin": r.xmin, "xmax": r.xmax, "ymin": r.ymin, "ymax": r.ymax},
        "grid": {"nx": inp.n, "ny": inp.n},
        "env": {"builtin": "quadratic"},
        "offset": {"path": prev.effort_csv.name, "log": True, "floor": 1e-6},
        "optimizer": {"gtol": GTOL, "maxiter": 500},
    }
    spec_path = work / "model.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")
    ms = T.call("model_io.read_model_spec", pkg.model_io.read_model_spec, spec_path)
    data = pkg.inference.LikelihoodData.from_points(ms.model.grid, inp.points)
    fit = T.call(
        "inference.fit", pkg.inference.fit_mle, ms.model, data, gtol=ms.gtol, maxiter=ms.maxiter
    )
    fit_read = T.call("model_io.fit_json", _fit_json_round_trip, pkg, fit, work / "fit.json")
    lam = T.call("inference.predict", pkg.inference.predict_intensity, ms.model, fit_read.theta)
    ud = T.call("analysis.normalize_ud", pkg.analysis.normalize_ud, lam)
    parts = [fit.theta.tobytes(), (work / "fit.json").read_bytes(), ud.values.tobytes()]
    return FitStage(ms.model, fit, fit_read, ud, _digest(parts))


def _exceedance_stage(pkg, inp: FineInputs, prev: FitStage, T, work: Path) -> ExceedanceStage:
    emap = T.call(
        "analysis.exceedance",
        pkg.analysis.exceedance_map,
        prev.model,
        prev.fit_read,
        np.random.default_rng(inp.seed),
        percentile=70.0,
        n_samples=inp.draws,
    )
    asc = work / "core.asc"
    T.call("raster_io.asc_write", pkg.raster_io.write_ascii_grid, emap.probabilities, asc)
    return ExceedanceStage(emap, asc, _digest([asc.read_bytes()]))


FINE_STAGES = (_effort_stage, _fit_stage, _exceedance_stage)


def fine_pass(pkg, inp: FineInputs, unit: int, tracer, work: Path, prev=None):
    return FINE_STAGES[unit](pkg, inp, prev, tracer, work)


def _same_raster(a, b) -> bool:
    return a.grid == b.grid and a.values.tobytes() == b.values.tobytes()


def fine_check(pkg, inp: FineInputs, unit: int, out, tally: Tally) -> None:
    if isinstance(out, EffortStage):
        back = pkg.raster_io.read_raster_csv(out.effort_csv)
        tally.record(
            "roundtrip", _same_raster(back, out.effort), "raster CSV round trip changed the grid or values"
        )
    elif isinstance(out, FitStage):
        _check_fit(tally, out.fit)
        tally.record(
            "roundtrip",
            out.fit_read.theta.tobytes() == out.fit.theta.tobytes(),
            "fit JSON theta changed in a write/read cycle",
        )
        _check_ud(tally, out.ud)
    else:
        probs = out.emap.probabilities
        back = pkg.raster_io.read_ascii_grid(out.asc)
        same = back.grid == probs.grid and np.array_equal(back.values, probs.values, equal_nan=True)
        tally.record("roundtrip", same, "ASCII grid round trip changed the grid or values")
        v = probs.values[np.isfinite(probs.values)]
        tally.record(
            "exceedance",
            v.size > 0 and bool(np.all((v >= 0.0) & (v <= 1.0))),
            "exceedance probabilities outside [0, 1]",
        )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run_pass: Callable
    check: Callable
    check_kinds: tuple[str, ...]
    chained: bool = False  # each unit reads the output of the unit before it


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "high-range-sweep",
            _replicate_setup([HIGH, RANGE2, RANGE50]),
            replicate_pass,
            replicate_check,
            ("fit", "ud"),
        ),
        Workload(
            "fast-overlap",
            _replicate_setup([FAST], FAST_REPLICATES, SMOKE_FAST_REPLICATES),
            replicate_pass,
            replicate_check,
            ("fit", "ud", "overlap"),
        ),
        Workload(
            "fine-grid-400",
            fine_setup,
            fine_pass,
            fine_check,
            ("fit", "ud", "roundtrip", "exceedance"),
            chained=True,
        ),
    )
}
