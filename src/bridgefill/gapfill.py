"""End-to-end gap interpolation: fill the missing window by bridge or
straight line with ``fill_gap``, and estimate the gap's path length (closed
form) and radius of gyration (Monte Carlo) for a given diffusion
coefficient. Fills are ``(n_missing, 2)`` position arrays at the gap's
missing times, ready for ``splice_fill``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import (
    BridgeParams,
    expected_path_length,
    sample_bridge,
    sample_bridge_many,
)
from .errors import DomainError
from .trajectory import GappedTrajectory

DEFAULT_ROG_REALISATIONS = 1000
METHODS = ("bridge", "linear")
ANCHOR_MODES = ("gap", "loop")


def fill_gap(
    gapped: GappedTrajectory,
    method: str,
    sigma_m: float,
    rng: int | np.random.Generator,
    anchors: str = "gap",
) -> np.ndarray:
    """Fill positions at ``gapped.missing_times``, shape (n_missing, 2).

    The fill runs from a start point to the right anchor over the gap's own
    time geometry. ``anchors="gap"`` starts at the left anchor;
    ``anchors="loop"`` starts at the final observed point, so a leading gap
    closes the observed remainder into a loop. ``method="linear"`` moves at
    constant velocity and ignores ``sigma_m`` and ``rng``;
    ``method="bridge"`` draws one Brownian-bridge realisation.
    """
    if method not in METHODS or anchors not in ANCHOR_MODES:
        raise DomainError(f"unknown fill {method!r} with anchors {anchors!r}")
    start = (gapped.after if anchors == "loop" else gapped.before).coords[-1]
    end = gapped.after.coords[0]
    duration = gapped.duration
    shifted = gapped.missing_times - gapped.before.times[-1]
    if method == "linear":
        return start + np.outer(shifted / duration, end - start)
    return sample_bridge(BridgeParams(start, end, duration, sigma_m), shifted, rng)


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

    Aggregation uses exact summation, so the result does not depend on the
    order realisations are processed in. ``std_error`` is NaN for a single
    realisation.
    """
    if realisations < 1:
        raise DomainError(f"realisations must be >= 1, got {realisations}")
    shifted = gapped.missing_times - gapped.before.times[-1]
    k = len(shifted)
    params = BridgeParams(gapped.before.coords[-1], gapped.after.coords[0],
                          gapped.duration, sigma_m)
    fills = sample_bridge_many(params, shifted, realisations, rng)
    observed = np.concatenate([gapped.before.coords, gapped.after.coords])
    n_total = len(observed) + k
    rogs = np.empty(realisations)
    for i in range(realisations):
        pts = np.concatenate([observed, fills[i]]) if k else observed
        centred = pts - pts.mean(axis=0)
        rogs[i] = np.sqrt((centred ** 2).sum(axis=1).sum() / n_total)
    mean = math.fsum(rogs) / realisations
    if realisations == 1:
        return GapRogEstimate(mean=mean, std_error=math.nan, realisations=1)
    var = math.fsum((r - mean) ** 2 for r in rogs) / (realisations - 1)
    std_error = math.sqrt(var / realisations)
    return GapRogEstimate(mean=mean, std_error=std_error, realisations=realisations)
