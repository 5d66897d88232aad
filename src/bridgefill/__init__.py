"""Fill gaps in 2-D location trajectories with Brownian bridges.

The package estimates a diffusion coefficient from the observed points by
maximum likelihood, reconstructs the missing window with an
exact-endpoint bridge or a straight line (``fill_gap``), and reports the
gap's expected path length (closed form) and radius of gyration (Monte
Carlo). A CLI
(``bridgefill``) exposes simulation of five synthetic movement models, gap
handling, and the two batch experiments.
"""

from ._version import __version__
from ._kernels import BACKEND
from .bridge import (
    BridgeParams,
    bridge_marginal,
    expected_path_length,
    sample_bridge,
    sample_bridge_many,
    sample_path_lengths,
)
from .errors import (
    BridgefillError,
    CsvFormatError,
    DegenerateDataError,
    DomainError,
    InvalidSpecError,
    NonFiniteError,
    NonMonotonicTimeError,
    OutOfRangeError,
    TimeMismatchError,
    TooFewPointsError,
)
from .estimator import (
    BridgeTriple,
    SearchConfig,
    SigmaEstimate,
    closed_form_sigma,
    estimate_sigma,
    extract_triples,
    log_likelihood,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    default_config,
    run_experiment,
    write_records_csv,
    write_summary_json,
)
from .gapfill import (
    GapRogEstimate,
    estimate_gap_length,
    estimate_gap_rog,
    fill_gap,
)
from .generators import (
    AngularWalk,
    DiscreteBrownian,
    FixedVelocity,
    InternalStateTable,
    InternalStateWalk,
    ModelSpec,
    RunTumble,
    default_internal_state_table,
    generate,
    spec_from_dict,
    spec_to_dict,
)
from .metrics import GapMetrics, gap_metrics, path_length, radius_of_gyration
from .seeding import child_seed, make_rng
from .special import (
    RiceParams,
    bessel_i,
    bessel_i_scaled,
    laguerre_half,
    rice_mean,
)
from .trajectory import (
    GappedTrajectory,
    TimedPoint,
    Trajectory,
    build_trajectory,
    excise_gap,
    read_trajectory_csv,
    splice_fill,
    write_trajectory_csv,
)

__all__ = [
    "__version__",
    "BACKEND",
    # trajectory
    "TimedPoint", "Trajectory", "GappedTrajectory", "build_trajectory",
    "excise_gap", "splice_fill", "read_trajectory_csv", "write_trajectory_csv",
    # special functions
    "RiceParams", "bessel_i", "bessel_i_scaled", "laguerre_half", "rice_mean",
    # bridge
    "BridgeParams", "bridge_marginal", "sample_bridge", "sample_bridge_many",
    "expected_path_length", "sample_path_lengths",
    # estimator
    "BridgeTriple", "SearchConfig", "SigmaEstimate", "extract_triples",
    "log_likelihood", "closed_form_sigma", "estimate_sigma",
    # generators
    "ModelSpec", "DiscreteBrownian", "FixedVelocity", "AngularWalk",
    "InternalStateWalk", "RunTumble", "InternalStateTable",
    "default_internal_state_table", "generate", "spec_to_dict", "spec_from_dict",
    # metrics
    "GapMetrics", "path_length", "radius_of_gyration", "gap_metrics",
    # gapfill
    "GapRogEstimate", "fill_gap", "estimate_gap_length", "estimate_gap_rog",
    # experiments
    "ExperimentConfig", "ExperimentReport", "default_config", "run_experiment",
    "write_records_csv", "write_summary_json",
    # seeding
    "child_seed", "make_rng",
    # errors
    "BridgefillError", "NonMonotonicTimeError", "NonFiniteError",
    "OutOfRangeError", "TimeMismatchError", "TooFewPointsError",
    "DegenerateDataError", "DomainError", "InvalidSpecError", "CsvFormatError",
]
