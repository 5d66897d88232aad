"""End-to-end gap interpolation: estimate the diffusion coefficient from the
observed points, fill the missing window by bridge or straight line, and
estimate the gap's path length (closed form) and radius of gyration
(Monte Carlo)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bridge import (
    BridgeParams,
    expected_path_length,
    sample_bridge,
    sample_bridge_many,
)
from .errors import DomainError
from .trajectory import GappedTrajectory, TimedPoint

DEFAULT_ROG_REALISATIONS = 1000


@dataclass(frozen=True)
class LinearFill:
    """Constant-velocity straight line between the anchors."""


@dataclass(frozen=True)
class BridgeFill:
    """Brownian-bridge fill; ``sigma_override`` skips estimation."""

    realisations: int = 1
    sigma_override: float | None = None

    def __post_init__(self) -> None:
        if self.realisations < 1:
            raise DomainError(
                f"realisations must be >= 1, got {self.realisations}"
            )
        if self.sigma_override is not None and not (
            math.isfinite(self.sigma_override) and self.sigma_override > 0.0
        ):
            raise DomainError(
                f"sigma_override must be > 0, got {self.sigma_override!r}"
            )


FillMethod = Union[LinearFill, BridgeFill]


def fill_linear(gapped: GappedTrajectory) -> list[TimedPoint]:
    """Constant-velocity points at the missing times."""
    left = gapped.left_anchor
    chord = gapped.chord
    duration = gapped.duration
    out = []
    for t in gapped.missing_times:
        frac = (t - left.t) / duration
        out.append(TimedPoint(float(t), left.x + frac * chord[0],
                              left.y + frac * chord[1]))
    return out


def _bridge_params(gapped: GappedTrajectory, sigma_m: float) -> BridgeParams:
    left, right = gapped.left_anchor, gapped.right_anchor
    return BridgeParams(
        start=(left.x, left.y),
        end=(right.x, right.y),
        duration=gapped.duration,
        sigma_m=sigma_m,
    )


def fill_bridge(
    gapped: GappedTrajectory,
    sigma_m: float,
    rng: int | np.random.Generator,
) -> list[TimedPoint]:
    """One bridge realisation at the missing times (anchors pinned)."""
    params = _bridge_params(gapped, sigma_m)
    shifted = gapped.missing_times - gapped.left_anchor.t
    points = sample_bridge(params, shifted, rng)
    return [
        TimedPoint(float(t), float(p[0]), float(p[1]))
        for t, p in zip(gapped.missing_times, points)
    ]


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
    shifted = gapped.missing_times - gapped.left_anchor.t
    k = len(shifted)
    fills = sample_bridge_many(
        _bridge_params(gapped, sigma_m), shifted, realisations, rng
    )
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
