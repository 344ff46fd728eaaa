"""Simulation-study harness: replicate pipelines and summaries.

One replicate simulates an encounter study, reconstructs search effort
from the observer tracks under the analyst's assumptions, fits the
quadratic log-intensity model with and without the effort offset, and
scores both against the animal's true stationary density:

    mspe_*  mean squared prediction error of the normalized UD surface
    bias_*  northward displacement of the fitted UD center

Replicates are independent (seed = base_seed XOR replicate index) and
run in a process pool; the worker count comes from the ``workers``
argument, the EFFORTUD_WORKERS environment variable, or the CPU count,
in that order (``pool.resolve_workers``). Worker processes set
EFFORTUD_WORKERS to 1, so they run their stages on one thread. The count
is not part of the config: it changes no result.

Each plain study-config entry is written once, in ``_ENTRIES``, the
table that reads and writes the entries and checks their lower bounds.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .analysis import (
    QuadraticDesign,
    RobustInterval,
    mspe,
    normalize_ud,
    robust_interval,
    ud_center_bias,
)
from .encounters import EncounterDataset, ObserverSpec, run_study
from .errors import (ConfigError, NonConcaveFitError, check_positive, config_entry, is_number,
                     read_json_object)
from .geometry import Grid, StudyRegion, build_grid, grid_from_doc
from .effort import floored_log_offset, trip_grouped_effort
from .inference import IntensityModel, LikelihoodData, fit_mle, predict_intensity
from .movement import BivariateNormalPotential, HalfNormalYPotential, MovementSpec, analytic_ud
from .pool import WORKERS_ENV, resolve_workers

# Bias presets pair the observers' step variance with the spread of their
# long-run density. Slow observers (step variance 2) concentrate search
# near the northern boundary; faster observers (step variance 8) range
# over most of the region. Realized coverage, not step length, is what
# drives how strongly raw encounter locations over-represent the north,
# so the two must move together.
_BIAS_PRESETS = {"high": {"observer_bm_variance": 2.0, "observer_potential_variance": 400.0},
                 "low": {"observer_bm_variance": 8.0, "observer_potential_variance": 1600.0}}

# (field, "section.key" path, default, JSON type, lowest allowed value or None)
# in field order, which config_to_dict writes; config_from_dict fills in the None
# defaults: the assumed range from the true one, the rest from the bias preset.
_ENTRIES = (
    ("animal_potential_variance", "animal.potential_variance", 200.0, float, None),
    ("animal_bm_variance", "animal.bm_variance", 2.0, float, None),
    ("n_mobile", "observers.mobile", 1, int, 0),
    ("n_static", "observers.static", 0, int, 0),
    ("observer_bm_variance", "observers.bm_variance", None, float, None),
    ("observer_center_y", "observers.potential_center_y", 100.0, float, None),
    ("observer_potential_variance", "observers.potential_variance", None, float, None),
    ("true_range", "detection.range", 10.0, float, None),
    ("true_mode", "detection.mode", "linear-decay", str, None),
    ("n_trips", "study.n_trips", 150, int, 1),
    ("max_steps", "study.max_steps", 500, int, 0),
    ("assumed_range", "analyst.assumed_range", None, float, None),
    ("detection_modeled", "analyst.detection_modeled", True, bool, None),
    ("overlap", "analyst.overlap", False, bool, None),
    ("effort_floor", "analyst.effort_floor", 1e-6, float, 0),
    ("replicates", "replicates", 1, int, 1),
    ("base_seed", "base_seed", 0, int, 0),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulation-study setting."""

    label: str
    region: StudyRegion
    nx: int
    ny: int
    animal_center: tuple[float, float]
    animal_potential_variance: float
    animal_bm_variance: float
    n_mobile: int
    n_static: int
    observer_bm_variance: float
    observer_center_y: float
    observer_potential_variance: float
    true_range: float
    true_mode: str
    n_trips: int
    max_steps: int
    assumed_range: float
    detection_modeled: bool
    overlap: bool
    effort_floor: float
    replicates: int
    base_seed: int

    def __post_init__(self) -> None:
        for name, path, _, _, low in _ENTRIES:
            if low is not None and getattr(self, name) < low:
                raise ConfigError(f"{path} must be >= {low}, got {getattr(self, name)}")
        if self.n_mobile + self.n_static < 1:
            raise ConfigError("need at least one observer")
        bad = [k for k, v in vars(self).items() if isinstance(v, float) and not np.isfinite(v)]
        if not np.all(np.isfinite(self.animal_center)):
            bad.append("animal_center")
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite")
        # the grid and the movement and observer specs check their own values
        try:
            check_positive(self.assumed_range, "assumed_range")
            build_grid(self.region, self.nx, self.ny)
            self.animal_spec()
            self.observer_specs()
        except ValueError as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    @property
    def grid(self) -> Grid:
        return build_grid(self.region, self.nx, self.ny)

    def animal_spec(self) -> MovementSpec:
        return MovementSpec(
            BivariateNormalPotential(self.animal_center, self.animal_potential_variance),
            self.animal_bm_variance,
        )

    def observer_specs(self) -> list[ObserverSpec]:
        move = MovementSpec(
            HalfNormalYPotential(self.observer_center_y, self.observer_potential_variance),
            self.observer_bm_variance,
        )
        mobile = [
            ObserverSpec("mobile", move, self.true_range, self.true_mode)
            for _ in range(self.n_mobile)
        ]
        static = [
            ObserverSpec("static", move, self.true_range, self.true_mode)
            for _ in range(self.n_static)
        ]
        return mobile + static

    def replicate_seed(self, replicate: int) -> int:
        return self.base_seed ^ replicate


def config_from_dict(doc: dict[str, Any]) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig; entries keep their JSON types."""
    try:
        grid = grid_from_doc(doc)
        center = config_entry(doc, "animal.center", [50.0, 50.0], list)
        if len(center) != 2 or not all(is_number(c) for c in center):
            raise ConfigError(f"animal.center must be a list of two numbers, got {center!r}")
        values = {name: config_entry(doc, *entry) for name, *entry, _ in _ENTRIES}
        if values["assumed_range"] is None:
            values["assumed_range"] = values["true_range"]
        if unset := [name for name, value in values.items() if value is None]:
            bias = config_entry(doc, "observers.bias", "high", str)
            if bias not in _BIAS_PRESETS:
                raise ConfigError(f"observers.bias must be high or low, got {bias!r}")
            values.update((name, _BIAS_PRESETS[bias][name]) for name in unset)
        return ExperimentConfig(
            label=config_entry(doc, "label", "experiment", str),
            region=grid.region,
            nx=grid.nx,
            ny=grid.ny,
            animal_center=(float(center[0]), float(center[1])),
            **values,
        )
    except OverflowError as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    r = cfg.region
    doc: dict[str, Any] = {
        "label": cfg.label,
        "region": {"xmin": r.xmin, "xmax": r.xmax, "ymin": r.ymin, "ymax": r.ymax},
        "grid": {"nx": cfg.nx, "ny": cfg.ny},
        "animal": {"center": list(cfg.animal_center)},
    }
    for name, path, *_ in _ENTRIES:
        *section, key = path.split(".")
        (doc.setdefault(section[0], {}) if section else doc)[key] = getattr(cfg, name)
    return doc


def read_experiment_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json_object(path, "config"))


def simulate_replicate(cfg: ExperimentConfig, replicate: int) -> EncounterDataset:
    return run_study(
        cfg.animal_spec(),
        cfg.observer_specs(),
        cfg.region,
        cfg.n_trips,
        cfg.max_steps,
        seed=cfg.replicate_seed(replicate),
    )


def run_replicate(cfg: ExperimentConfig, replicate: int) -> dict[str, Any]:
    """Simulate, fit, and score one replicate; returns a metrics record."""
    grid = cfg.grid
    dataset = simulate_replicate(cfg, replicate)
    pts = dataset.encounter_points()
    record: dict[str, Any] = {
        "replicate": replicate,
        "setting": cfg.label,
        "seed": cfg.replicate_seed(replicate),
        "n_encounters": int(len(pts)),
        "n_truncated": dataset.n_truncated,
    }

    qd = QuadraticDesign(grid)
    block = qd.block()
    truth = analytic_ud(cfg.animal_spec().potential, grid)
    data = LikelihoodData.from_points(grid, pts)
    true_cy = cfg.animal_center[1]

    def score(model: IntensityModel, tag: str) -> None:
        try:
            fit = fit_mle(model, data)
        except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            record[f"mspe_{tag}"] = None
            record[f"bias_{tag}"] = None
            record[f"converged_{tag}"] = False
            record[f"error_{tag}"] = f"{type(exc).__name__}: {exc}"
            return
        ud = normalize_ud(predict_intensity(model, fit.theta))
        record[f"mspe_{tag}"] = mspe(ud, truth)
        try:
            record[f"bias_{tag}"] = ud_center_bias(fit, qd, true_cy)
        except NonConcaveFitError:
            record[f"bias_{tag}"] = None
        record[f"converged_{tag}"] = bool(fit.converged)

    score(IntensityModel(grid=grid, env=block), "uncorrected")

    tracks = {t.trip: t.tracks for t in dataset.trips}
    mode = "detection" if cfg.detection_modeled else "indicator"
    eff = trip_grouped_effort(tracks, grid, cfg.assumed_range, mode=mode, overlap=False)
    offset = floored_log_offset(eff, cfg.effort_floor)
    score(IntensityModel(grid=grid, env=block, log_effort_offset=offset), "corrected")

    if cfg.overlap:
        eff_o = trip_grouped_effort(tracks, grid, cfg.assumed_range, mode=mode, overlap=True)
        offset_o = floored_log_offset(eff_o, cfg.effort_floor)
        score(IntensityModel(grid=grid, env=block, log_effort_offset=offset_o), "overlap")
    return record


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[dict[str, Any]]
    summaries: dict[str, RobustInterval] = field(default_factory=dict)


def summarize(records: list[dict[str, Any]], overlap: bool) -> dict[str, RobustInterval]:
    keys = ["mspe_uncorrected", "mspe_corrected", "bias_uncorrected", "bias_corrected"]
    if overlap:
        keys += ["mspe_overlap", "bias_overlap"]
    out: dict[str, RobustInterval] = {}
    for key in keys:
        vals = [r.get(key) for r in records]
        finite = [v for v in vals if v is not None and np.isfinite(v)]
        if len(finite) >= 2:
            out[key] = robust_interval(finite)
    return out


def _one_stage_thread() -> None:
    """A replicate worker's initializer: its stages run on one thread."""
    os.environ[WORKERS_ENV] = "1"


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentResult:
    """Run all replicates of one setting, in parallel where possible."""
    n_workers = resolve_workers(workers)
    reps = list(range(cfg.replicates))
    if n_workers == 1 or cfg.replicates == 1:
        records = [run_replicate(cfg, r) for r in reps]
    else:
        n = min(n_workers, cfg.replicates)
        with ProcessPoolExecutor(max_workers=n, initializer=_one_stage_thread) as pool:
            records = list(pool.map(run_replicate, [cfg] * len(reps), reps))
    return ExperimentResult(
        config=cfg, records=records, summaries=summarize(records, cfg.overlap)
    )


def _jsonable(v: Any) -> Any:
    if isinstance(v, RobustInterval):
        return {"median": v.median, "lo": v.lo, "hi": v.hi}
    return v


def write_metrics_json(result: ExperimentResult, path: str | Path) -> None:
    doc = {
        "setting": result.config.label,
        "config": config_to_dict(result.config),
        "records": result.records,
        "summaries": {k: _jsonable(v) for k, v in result.summaries.items()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def summary_table(result: ExperimentResult) -> str:
    """Fixed-width text table of the robust interval summaries."""
    lines = [f"setting: {result.config.label}  replicates: {result.config.replicates}"]
    lines.append(f"{'metric':<20} {'median':>14} {'lo':>14} {'hi':>14}")
    for key, iv in result.summaries.items():
        lines.append(f"{key:<20} {iv.median:>14.6g} {iv.lo:>14.6g} {iv.hi:>14.6g}")
    return "\n".join(lines) + "\n"
