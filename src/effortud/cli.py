"""Command-line front end.

Subcommands cover the whole pipeline: `simulate` writes encounter and
track CSVs for every replicate of a study config, `effort` turns a
tracks CSV into a search-effort raster, `fit`/`predict`/`exceed` run
single-model inference from files, and `experiment` executes the full
replicated comparison and writes metrics JSON plus a summary table.

Exit codes: 0 success, 2 config error (including a size too large to
allocate), 3 data error (missing, unreadable or inconsistent inputs, and
outputs that cannot be written), 4 numerical failure (including a
non-converged fit passed to `predict` or `exceed`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import exceedance_map, normalize_ud
from .effort import trip_grouped_effort
from .encounters import read_encounters_csv, read_tracks_csv, write_encounters_csv, write_tracks_csv
from .errors import (
    ConfigError,
    DataInconsistencyError,
    DegenerateSpecError,
    NonConcaveFitError,
    NotConvergedError,
    SingularCovarianceError,
    check_positive,
)
from .experiment import (
    config_to_dict,
    read_experiment_config,
    run_experiment,
    simulate_replicate,
    summary_table,
    write_metrics_json,
)
from .geometry import grid_from_doc
from .inference import LikelihoodData, fit_mle, predict_intensity
from .model_io import read_fit_json, read_model_spec, read_raster, write_fit_json, write_raster

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (
    DegenerateSpecError,
    NonConcaveFitError,
    NotConvergedError,
    SingularCovarianceError,
    np.linalg.LinAlgError,
)


def _load_config(path: str, seed: int | None):
    cfg = read_experiment_config(path)
    if seed is not None:
        cfg = dataclasses.replace(cfg, base_seed=seed)
    return cfg


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for r in range(cfg.replicates):
        ds = simulate_replicate(cfg, r)
        enc_name = f"encounters_r{r:03d}.csv"
        trk_name = f"tracks_r{r:03d}.csv"
        write_encounters_csv(ds, out / enc_name)
        write_tracks_csv(ds, out / trk_name)
        entries.append(
            {
                "replicate": r,
                "seed": cfg.replicate_seed(r),
                "encounters": enc_name,
                "tracks": trk_name,
                "n_encounters": len(ds.encounters()),
                "n_truncated": ds.n_truncated,
            }
        )
    manifest = {
        "label": cfg.label,
        "base_seed": cfg.base_seed,
        "replicates": entries,
        "config": config_to_dict(cfg),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {cfg.replicates} replicate(s) to {out}")
    return EXIT_OK


def cmd_effort(args: argparse.Namespace) -> int:
    region = {"xmin": args.xmin, "xmax": args.xmax, "ymin": args.ymin, "ymax": args.ymax}
    grid = grid_from_doc({"region": region, "grid": {"nx": args.nx, "ny": args.ny}})
    check_positive(args.range, "--range", ConfigError)
    check_positive(args.step_time, "--dt", ConfigError)
    tracks = read_tracks_csv(args.tracks)
    field = trip_grouped_effort(tracks, grid, args.range, mode=args.mode, overlap=args.overlap)
    with np.errstate(over="ignore"):
        field.values *= args.step_time  # effort comes in recorded steps
        total = field.values.sum()
    if (overflowed := int(np.sum(field.values == np.inf))) > 0:
        raise ValueError(f"effort times --dt overflows to inf in {overflowed} cells")
    write_raster(field, args.out)
    print(f"effort raster written to {args.out} (total {total:.6g})")
    return EXIT_OK


def _likelihood_data(args: argparse.Namespace, grid) -> LikelihoodData:
    given = [k for k in ("encounters", "counts", "presence") if getattr(args, k, None)]
    if len(given) != 1:
        raise ConfigError("exactly one of --encounters/--counts/--presence is required")
    if args.encounters:
        rows = read_encounters_csv(args.encounters)
        pts = np.array([[row["x"], row["y"]] for row in rows], dtype=float).reshape(-1, 2)
        return LikelihoodData.from_points(grid, pts)
    if args.counts:
        return LikelihoodData.from_counts(grid, read_raster(args.counts, grid))
    return LikelihoodData.from_presence(grid, read_raster(args.presence, grid))


def cmd_fit(args: argparse.Namespace) -> int:
    ms = read_model_spec(args.model)
    data = _likelihood_data(args, ms.model.grid)
    fit = fit_mle(ms.model, data, gtol=ms.gtol, maxiter=ms.maxiter)
    fit = dataclasses.replace(fit, names=ms.parameter_names())
    write_fit_json(fit, args.out)
    tag = "converged" if fit.converged else "NOT converged"
    print(f"fit written to {args.out} ({tag}, loglik {fit.loglik:.6g})")
    return EXIT_OK


def _read_model_fit(args: argparse.Namespace):
    """The model spec and a converged fit matching its names; the ``--fix-*`` values must be finite."""
    for flag, value in (("--fix-effort", args.fix_effort), ("--fix-detection", args.fix_detection)):
        if not np.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
    ms = read_model_spec(args.model)
    fit = read_fit_json(args.fit)
    expected = ms.parameter_names()
    if fit.names != expected:
        raise DataInconsistencyError(
            f"{args.fit}: fit coefficients {fit.names} do not match the model's {expected}"
        )
    if not fit.converged:
        gmax = fit.gradient_max_norm
        raise NotConvergedError(f"{args.fit}: fit not converged, gradient_max_norm {gmax:g}")
    return ms, fit


def cmd_predict(args: argparse.Namespace) -> int:
    ms, fit = _read_model_fit(args)
    surface = predict_intensity(
        ms.model, fit.theta, fix_detection=args.fix_detection, fix_effort=args.fix_effort
    )
    if not args.intensity:
        surface = normalize_ud(surface)
    elif (overflowed := int(np.sum(surface.values == np.inf))) > 0:
        # NaN cells (missing covariates) are written as they are; inf is no intensity
        raise ValueError(f"intensity overflows to inf in {overflowed} cells")
    write_raster(surface, args.out)
    kind = "intensity" if args.intensity else "normalized UD"
    print(f"{kind} raster written to {args.out}")
    return EXIT_OK


def cmd_exceed(args: argparse.Namespace) -> int:
    if not 0 < args.percentile < 100:
        raise ConfigError(f"--percentile must be in (0, 100), got {args.percentile}")
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    if args.cutoff is not None and not 0 <= args.cutoff <= 1:
        raise ConfigError(f"--cutoff must be in [0, 1], got {args.cutoff}")
    ms, fit = _read_model_fit(args)
    rng = np.random.default_rng(args.seed)
    emap = exceedance_map(
        ms.model,
        fit,
        rng,
        percentile=args.percentile,
        n_samples=args.samples,
        cutoff=args.cutoff,
        threshold_mode=args.threshold_mode,
        fix_detection=args.fix_detection,
        fix_effort=args.fix_effort,
    )
    raster = emap.masked() if args.cutoff is not None else emap.probabilities
    write_raster(raster, args.out)
    flagged = int(np.sum(np.nan_to_num(raster.values) > 0))
    print(f"exceedance map written to {args.out} ({flagged} cells flagged)")
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.seed)
    result = run_experiment(cfg, workers=args.workers)
    write_metrics_json(result, args.out_metrics)
    table = summary_table(result)
    if args.out_summary:
        with open(args.out_summary, "w") as fh:
            fh.write(table)
            if not table.endswith("\n"):
                fh.write("\n")
    print(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="effortud",
        description="Effort-corrected utilization distributions from encounter data",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="simulate study replicates to CSV files")
    ps.add_argument("--config", required=True, help="experiment config JSON")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--seed", type=int, default=None, help="override base seed")
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("effort", help="accumulate search effort from a tracks CSV")
    pe.add_argument("--tracks", required=True)
    pe.add_argument("--out", required=True, help="raster output (.csv or .asc)")
    pe.add_argument("--range", type=float, required=True, help="detection range")
    pe.add_argument("--mode", choices=["indicator", "detection"], default="detection")
    pe.add_argument("--overlap", action="store_true", help="joint coverage per trip")
    pe.add_argument("--dt", type=float, default=1.0, dest="step_time",
                    help="time between recorded positions: scales the raster")
    pe.add_argument("--xmin", type=float, default=0.0)
    pe.add_argument("--xmax", type=float, default=100.0)
    pe.add_argument("--ymin", type=float, default=0.0)
    pe.add_argument("--ymax", type=float, default=100.0)
    pe.add_argument("--nx", type=int, default=100)
    pe.add_argument("--ny", type=int, default=100)
    pe.set_defaults(func=cmd_effort)

    pf = sub.add_parser("fit", help="fit a model spec to observed data")
    pf.add_argument("--model", required=True, help="model spec JSON")
    pf.add_argument("--encounters", help="encounters CSV (point data)")
    pf.add_argument("--counts", help="per-cell count raster")
    pf.add_argument("--presence", help="per-cell presence raster")
    pf.add_argument("--out", required=True, help="fit output JSON")
    pf.set_defaults(func=cmd_fit)

    pp = sub.add_parser("predict", help="environment-driven surface from a fit")
    pp.add_argument("--model", required=True)
    pp.add_argument("--fit", required=True, help="fit JSON from the fit subcommand")
    pp.add_argument("--out", required=True, help="raster output (.csv or .asc)")
    pp.add_argument("--intensity", action="store_true", help="raw intensity, skip normalization")
    pp.add_argument("--fix-effort", type=float, default=0.0,
                    help="constant for the effort covariates")
    pp.add_argument("--fix-detection", type=float, default=0.0,
                    help="constant for the detection covariates")
    pp.set_defaults(func=cmd_predict)

    px = sub.add_parser("exceed", help="probability map of exceeding a percentile")
    px.add_argument("--model", required=True)
    px.add_argument("--fit", required=True)
    px.add_argument("--out", required=True)
    px.add_argument("--percentile", type=float, default=70.0)
    px.add_argument("--cutoff", type=float, default=None,
                    help="mask cells with probability below this")
    px.add_argument("--samples", type=int, default=1000)
    px.add_argument("--seed", type=int, default=0)
    px.add_argument("--threshold-mode", choices=["per-draw", "fixed"], default="per-draw")
    px.add_argument("--fix-effort", type=float, default=0.0)
    px.add_argument("--fix-detection", type=float, default=0.0)
    px.set_defaults(func=cmd_exceed)

    pg = sub.add_parser("experiment", help="run a replicated comparison study")
    pg.add_argument("--config", required=True, help="experiment config JSON")
    pg.add_argument("--out-metrics", required=True, help="per-replicate metrics JSON")
    pg.add_argument("--out-summary", default=None, help="summary table text file")
    pg.add_argument("--seed", type=int, default=None, help="override base seed")
    pg.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: EFFORTUD_WORKERS or cpu count)")
    pg.set_defaults(func=cmd_experiment)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # before ValueError: np.linalg.LinAlgError subclasses it
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: not enough memory: {exc or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
