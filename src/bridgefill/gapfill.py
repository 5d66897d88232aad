"""End-to-end gap interpolation: fill the missing window with a Brownian
bridge from the gap's left anchor to its right one with ``fill_gap``, and
estimate the gap's path length (closed form) and radius of gyration (Monte
Carlo) for a given diffusion coefficient. The straight-line fill is the
bridge at ``sigma_m = 0``. Fills are ``(n_missing, 2)`` position arrays,
one row per time of ``gapped.missing_times``, to be inserted into the
observed points at ``gapped.split``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bridge import expected_path_length
from .errors import DomainError, _check_scale
from .metrics import observed_sums, spliced_radii_of_gyration
from .seeding import make_rng
from .trajectory import GappedTrajectory

DEFAULT_ROG_REALISATIONS = 1000
# Bridge points per block of :func:`estimate_gap_rog`'s Monte Carlo: 16
# realisations of a 1000-point gap, 256 KB of noise and as much of fills.
_ROG_BLOCK_POINTS = 1 << 14


def _bridges(
    gapped: GappedTrajectory,
    sigma_m: float,
    n: int,
    rng: int | np.random.Generator,
) -> np.ndarray:
    """``n`` bridges between the gap's anchors at ``gapped.missing_times``;
    shape (n, n_missing, 2)."""
    _check_scale("sigma_m", sigma_m, error=DomainError)
    observed, left = gapped.observed, gapped.split - 1
    shifted = gapped.missing_times - observed.times[left]
    noise = make_rng(rng).standard_normal((n, gapped.n_missing, 2))
    return _kernels.bridge_paths(observed.coords[left], observed.coords[left + 1],
                                 gapped.duration, sigma_m, shifted, noise)


def fill_gap(
    gapped: GappedTrajectory,
    sigma_m: float,
    rng: int | np.random.Generator,
) -> np.ndarray:
    """One Brownian-bridge realisation from the gap's left anchor to its
    right one at ``gapped.missing_times``, shape (n_missing, 2).

    At ``sigma_m = 0`` the fill is the straight line at constant velocity,
    whatever ``rng``.
    """
    return _bridges(gapped, sigma_m, 1, rng)[0]


def estimate_gap_length(gapped: GappedTrajectory, sigma_m: float) -> float:
    """Closed-form expected path length of the gap.

    Discretised with one segment per missing sample plus the arrival step,
    so unit-spaced data gets one point per missing timestamp.
    """
    return expected_path_length(
        sigma_m,
        gapped.duration,
        tuple(gapped.chord),
        gapped.n_missing + 1,
    )


@dataclass(frozen=True)
class GapRogEstimate:
    """Monte-Carlo estimate of the filled path's radius of gyration."""

    mean: float
    std_error: float
    realisations: int


def estimate_gap_rog(
    gapped: GappedTrajectory,
    sigma_m: float,
    realisations: int = DEFAULT_ROG_REALISATIONS,
    rng: int | np.random.Generator = 0,
) -> GapRogEstimate:
    """Mean radius of gyration of the spliced path over independent bridge
    fills.

    The fills are drawn and scored a block of about
    :data:`_ROG_BLOCK_POINTS` bridge points at a time, each block drawing on
    from ``rng`` where the last stopped, so the draws and the radii equal
    those of one draw of all ``realisations`` fills, and memory does not grow
    with ``realisations`` beyond one float per realisation.
    ``metrics.spliced_radii_of_gyration`` scores each block against sums
    taken once about the observed centroid, in O(n + m k) for n observed
    points, m realisations and k missing points. Aggregation uses exact
    summation, so the result does not depend on the order realisations are
    processed in. ``std_error`` is NaN for a single realisation.

    Raises DomainError when the ``realisations`` fills would be too many for
    one float array, as one draw of them all would be.
    """
    if realisations < 1:
        raise DomainError(f"realisations must be >= 1, got {realisations}")
    k = gapped.n_missing
    # max(k, 1): an empty gap draws nothing, but holds one radius per fill
    if realisations * max(k, 1) * 2 * 8 > np.iinfo(np.intp).max:
        raise DomainError(f"{realisations} bridges of {k} points are too many "
                          "for one float array")
    rng = make_rng(rng)
    observed = observed_sums(gapped.observed.coords)
    rogs = np.empty(realisations)
    block = max(1, _ROG_BLOCK_POINTS // max(k, 1))
    for lo in range(0, realisations, block):
        fills = _bridges(gapped, sigma_m, min(block, realisations - lo), rng)
        rogs[lo:lo + block] = spliced_radii_of_gyration(observed, fills)
    mean = math.fsum(rogs) / realisations
    with np.errstate(over="ignore", invalid="ignore"):
        squares = (rogs - mean) ** 2
    var = math.fsum(squares) / (realisations - 1) if realisations > 1 else math.nan
    std_error = math.sqrt(var / realisations)
    return GapRogEstimate(mean=mean, std_error=std_error, realisations=realisations)
