"""Fill gaps in 2-D location trajectories with Brownian bridges.

A gap (``GappedTrajectory``) is the observed trajectory plus the index at
which its one missing window sits. The package estimates a diffusion
coefficient from the observed points by maximum likelihood, reconstructs
the missing window with an exact-endpoint bridge from the gap's left anchor
to its right one (``fill_gap``; the straight line is the bridge at
``sigma_m = 0``), and reports the gap's expected path length (closed form,
``expected_path_length``) and radius of gyration (Monte Carlo,
``estimate_gap_rog``). Every bridge, in the CLI and in the experiments, is
drawn by one array kernel, ``_kernels.bridge_paths``. Path length and
radius of gyration take a stack of paths (``path_lengths``,
``radii_of_gyration``). A CLI (``bridgefill``) exposes simulation of five
synthetic movement models, gap handling, and the two batch experiments.
"""

from ._version import __version__
from ._kernels import BACKEND
from .bridge import expected_path_length, rice_mean
from .errors import (
    BridgefillError,
    CsvFormatError,
    DomainError,
    InvalidSpecError,
    NonFiniteError,
    NonMonotonicTimeError,
    OutOfRangeError,
    TimeMismatchError,
    TooFewPointsError,
)
from .estimator import SigmaEstimate, estimate_sigma
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
    InternalStateWalk,
    ModelSpec,
    RunTumble,
    generate,
    spec_from_dict,
    spec_to_dict,
)
from .metrics import path_lengths, radii_of_gyration
from .seeding import child_seed, make_rng
from .trajectory import (
    GappedTrajectory,
    Trajectory,
    excise_gap,
    read_trajectory_csv,
    splice_fill,
    write_trajectory_csv,
)

__all__ = [
    "__version__",
    "BACKEND",
    # trajectory
    "Trajectory", "GappedTrajectory", "excise_gap", "splice_fill",
    "read_trajectory_csv", "write_trajectory_csv",
    # bridge
    "expected_path_length", "rice_mean",
    # estimator
    "SigmaEstimate", "estimate_sigma",
    # generators
    "ModelSpec", "DiscreteBrownian", "FixedVelocity", "AngularWalk",
    "InternalStateWalk", "RunTumble", "generate", "spec_to_dict", "spec_from_dict",
    # metrics
    "path_lengths", "radii_of_gyration",
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
    "DomainError", "InvalidSpecError", "CsvFormatError",
]
