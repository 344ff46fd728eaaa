"""Model-specification and fit-result files.

A model spec is one JSON document naming the grid and the covariate
rasters of each model component:

    {
      "region": {"xmin": 0, "xmax": 100, "ymin": 0, "ymax": 100},
      "grid": {"nx": 100, "ny": 100},
      "intercept": true,
      "env": {"builtin": "quadratic"},
      "detection": {"link": "logistic",
                    "covariates": [{"name": "visibility", "path": "vis.csv"}]},
      "effort_covariates": [{"name": "daylight", "path": "day.csv"}],
      "offset": {"path": "effort.csv", "log": true, "floor": 0.0},
      "rename": {"env:x": "shared:x"},
      "optimizer": {"gtol": 1e-8, "maxiter": 500}
    }

Raster paths are resolved relative to the model file; ".asc" files are
read as ASCII grids, anything else as raster CSV, and every raster must
lie on the spec's grid. The "env" section is
either the built-in scaled quadratic surface or an explicit covariate
list like the detection block. When "log" is true the offset raster holds
effort, which must not be negative; it is floored then logged, and with a
floor of 0 empty cells become -inf and drop out of the fitted integral.
The optional "rename" map aliases qualified coefficient names so several
components of a joint fit can share them.
Entries keep their JSON types: "intercept" and "log" are true or false,
"maxiter" is an integer and "gtol" and "floor" are numbers.

Fit results serialize to JSON carrying the coefficient estimates,
standard errors, covariance, log likelihood, and convergence record; a
fit whose log likelihood is not finite is refused rather than written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .analysis import QuadraticDesign, is_covariance
from .effort import floored_log_offset
from .errors import (
    ConfigError,
    GridMismatchError,
    NotConvergedError,
    check_positive,
    config_entry,
    is_number,
    read_json_object,
)
from .geometry import Grid, Raster, grid_from_doc
from .inference import CovariateBlock, FitResult, IntensityModel, renamed_names
from .raster_io import (
    read_ascii_grid,
    read_raster_csv,
    same_cell_centers,
    write_ascii_grid,
    write_raster_csv,
)


@dataclass
class ModelSpec:
    """A parsed model file: the model plus fitting options."""

    model: IntensityModel
    gtol: float = 1e-8
    maxiter: int = 500
    rename: dict[str, str] | None = None

    def parameter_names(self) -> list[str]:
        """The model's qualified coefficient names after ``rename``."""
        return renamed_names(self.model, self.rename)


def read_raster(path: str | Path, grid: Grid) -> Raster:
    """Read an ASCII grid (".asc") or, for any other suffix, a raster CSV on ``grid``.

    The file's shape and cell centers must match the grid's up to rounding
    (``raster_io.same_cell_centers``); the values are then returned on
    ``grid`` itself, so rounding in the file's coordinates (or a single
    column, which carries no spacing) does not change it.
    """
    raster = read_ascii_grid(path) if Path(path).suffix.lower() == ".asc" else read_raster_csv(path)
    if not same_cell_centers(raster.grid, grid):
        raise GridMismatchError(f"{path}: raster on {raster.grid} does not lie on the model grid {grid}")
    return Raster(grid, raster.values)


def write_raster(raster: Raster, path: str | Path) -> None:
    """Write an ASCII grid (".asc") or, for any other suffix, a raster CSV."""
    if Path(path).suffix.lower() == ".asc":
        write_ascii_grid(raster, path)
    else:
        write_raster_csv(raster, path)


def _covariate_block(entries: Any, base: Path, grid: Grid, what: str) -> CovariateBlock:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{what} must be a nonempty list of covariate entries")
    names, rasters = [], []
    for e in entries:
        if not isinstance(e, dict) or "name" not in e or "path" not in e:
            raise ConfigError(f"{what} entries need 'name' and 'path', got {e!r}")
        names.append(str(e["name"]))
        rasters.append(read_raster(base / str(e["path"]), grid))
    return CovariateBlock(names, rasters)


def _offset_raster(doc: Any, base: Path, grid: Grid) -> Raster:
    if not isinstance(doc, dict) or "path" not in doc:
        raise ConfigError("offset needs a 'path'")
    path = base / str(doc["path"])
    raster = read_raster(path, grid)
    if not config_entry(doc, "log", True, bool):
        return raster
    floor = config_entry(doc, "floor", 0.0, float)
    if not 0 <= floor < float("inf"):
        raise ConfigError(f"offset floor must be finite and nonnegative, got {floor}")
    if np.any(raster.values < 0.0):
        low = float(np.nanmin(raster.values))
        raise ValueError(f"{path}: effort to log must be nonnegative, got {low!r}")
    return floored_log_offset(raster, floor)


def read_model_spec(path: str | Path) -> ModelSpec:
    """Parse and load a model-spec JSON file, reading referenced rasters."""
    path = Path(path)
    doc = read_json_object(path, "model spec")
    base = path.parent
    try:
        grid = grid_from_doc(doc)

        env = None
        env_doc = doc.get("env")
        if env_doc is not None:
            if isinstance(env_doc, dict) and "builtin" in env_doc:
                if env_doc["builtin"] != "quadratic":
                    raise ConfigError(f"unknown builtin env block {env_doc['builtin']!r}")
                env = QuadraticDesign(grid).block()
            else:
                cov = env_doc.get("covariates") if isinstance(env_doc, dict) else env_doc
                env = _covariate_block(cov, base, grid, "env covariates")

        detection = None
        det_doc = doc.get("detection")
        if det_doc is not None:
            if not isinstance(det_doc, dict):
                raise ConfigError("detection must be an object")
            if det_doc.get("link", "logistic") != "logistic":
                raise ConfigError(f"unsupported detection link {det_doc['link']!r}; only 'logistic'")
            detection = _covariate_block(
                det_doc.get("covariates"), base, grid, "detection covariates"
            )

        effort = None
        if doc.get("effort_covariates") is not None:
            effort = _covariate_block(doc["effort_covariates"], base, grid, "effort_covariates")

        offset = None
        if doc.get("offset") is not None:
            offset = _offset_raster(doc["offset"], base, grid)

        rename = doc.get("rename")
        if rename is not None and not (
            isinstance(rename, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in rename.items())
        ):
            raise ConfigError("rename must map coefficient names to names")

        model = IntensityModel(
            grid=grid,
            env=env,
            detection=detection,
            effort=effort,
            log_effort_offset=offset,
            intercept=config_entry(doc, "intercept", True, bool),
        )
        gtol = config_entry(doc, "optimizer.gtol", 1e-8, float)
        check_positive(gtol, "optimizer.gtol", ConfigError)
        maxiter = config_entry(doc, "optimizer.maxiter", 500, int)
        if maxiter < 1:
            raise ConfigError(f"optimizer.maxiter must be at least 1, got {maxiter}")
        return ModelSpec(model=model, gtol=gtol, maxiter=maxiter, rename=rename)
    except ConfigError:
        raise
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"{path}: bad model spec: {exc}") from exc


def write_fit_json(fit: FitResult, path: str | Path) -> None:
    """Write ``fit`` as JSON; a fit whose log likelihood is not finite raises NotConvergedError."""
    if not np.isfinite(fit.loglik):
        raise NotConvergedError(f"fit has no finite log likelihood ({fit.loglik}); not written")
    se = fit.stderr()
    doc = {
        "names": list(fit.names),
        "theta": [float(v) for v in fit.theta],
        "coefficients": fit.coefficients,
        "stderr": {n: (None if not np.isfinite(s) else s) for n, s in se.items()},
        "loglik": float(fit.loglik),
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "gradient_max_norm": (
            None if not np.isfinite(fit.gradient_max_norm) else float(fit.gradient_max_norm)
        ),
        "singular_information": bool(fit.singular_information),
        "covariance": None if fit.covariance is None else fit.covariance.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _is_numbers(v: Any, n: int) -> bool:
    return isinstance(v, list) and len(v) == n and all(is_number(x) for x in v)


_REQUIRED = object()


def read_fit_json(path: str | Path) -> FitResult:
    """Read a fit written by ``write_fit_json``.

    A file that is not UTF-8 JSON or holds no object raises ValueError naming the
    file; a missing or ill-typed entry, a non-finite theta or a covariance that is not
    (finite and) symmetric positive semidefinite raises ValueError naming its key.
    """
    doc = read_json_object(path, "fit JSON", ValueError)

    def entry(key: str, ok, default: Any = _REQUIRED) -> Any:
        if key not in doc:
            if default is _REQUIRED:
                raise ValueError(f"{path}: fit JSON has no {key!r}")
            return default
        if not ok(doc[key]):
            raise ValueError(f"{path}: fit JSON has an ill-typed {key!r}: {doc[key]!r}")
        return doc[key]

    names = entry("names", lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v))
    p = len(names)
    theta = entry("theta", lambda v: _is_numbers(v, p) and bool(np.isfinite(v).all()))
    cov = entry(
        "covariance",
        lambda v: v is None
        or (isinstance(v, list) and len(v) == p and all(_is_numbers(r, p) for r in v)),
        None,
    )
    if cov is not None:
        cov = np.asarray(cov, dtype=float).reshape(p, p)
        if not is_covariance(cov):
            raise ValueError(f"{path}: fit JSON 'covariance' is not symmetric positive semidefinite")
    gmax = entry("gradient_max_norm", lambda v: v is None or is_number(v), None)
    return FitResult(
        names=list(names),
        theta=np.asarray(theta, dtype=float),
        loglik=float(entry("loglik", is_number)),
        converged=entry("converged", lambda v: isinstance(v, bool)),
        iterations=entry("iterations", lambda v: isinstance(v, int) and not isinstance(v, bool)),
        covariance=cov,
        singular_information=entry("singular_information", lambda v: isinstance(v, bool), False),
        gradient_max_norm=float("nan") if gmax is None else float(gmax),
    )
