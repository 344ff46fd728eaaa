"""Effort-corrected utilization distributions from encounter data.

Simulate movement and encounter studies, accumulate search effort,
fit effort-corrected Poisson point-process models, and summarize the
resulting utilization distributions.
"""

from .analysis import (
    ExceedanceMap,
    QuadraticDesign,
    RobustInterval,
    exceedance_map,
    mspe,
    normalize_ud,
    robust_interval,
    ud_center_bias,
)
from .effort import (
    overlap_corrected_effort,
    path_integral_effort,
    trip_grouped_effort,
)
from .encounters import (
    Encounter,
    EncounterDataset,
    ObserverSpec,
    TripRecord,
    run_study,
)
from .errors import (
    ConfigError,
    DataInconsistencyError,
    DegenerateSpecError,
    GridMismatchError,
    MissingDataError,
    NonConcaveFitError,
    OutOfDomainError,
    SingularCovarianceError,
)
from .geometry import (
    Grid,
    Point,
    Raster,
    StudyRegion,
    build_grid,
    cells_of,
    constant_raster,
    raster_from_function,
)
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
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
from .inference import (
    CovariateBlock,
    FitResult,
    IntensityModel,
    LikelihoodData,
    fit_mle,
    loglik,
    predict_intensity,
)
from .model_io import ModelSpec, read_fit_json, read_model_spec, write_fit_json
from .movement import (
    BivariateNormalPotential,
    CustomPotential,
    HalfNormalYPotential,
    MovementSpec,
    Trajectory,
    analytic_ud,
    drift,
    sample_initial,
    simulate_trajectory,
)
from .raster_io import read_ascii_grid, read_raster_csv, write_ascii_grid, write_raster_csv

__version__ = "0.1.0"
