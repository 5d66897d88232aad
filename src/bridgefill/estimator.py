"""Maximum-likelihood estimation of the diffusion coefficient.

Every other observed point anchors an independent bridge and the skipped
point in between is treated as a realisation of that bridge at its own
timestamp. The likelihood of sigma_m over those midpoint realisations is
unimodal (strictly concave in log sigma_m), so a ternary search on the log
scale converges to the analytic maximizer; the closed-form maximizer is kept
available as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, DomainError, TooFewPointsError
from .trajectory import TimedPoint, Trajectory

_LOG_2PI = math.log(2.0 * math.pi)

# Triples whose midpoint variance weight falls at or below this are skipped:
# with real-world jitter tau can collide with 0 or the full span, and one
# such triple would otherwise dominate the likelihood.
VARIANCE_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class BridgeTriple:
    """One (anchor, midpoint, anchor) observation triple."""

    left: TimedPoint
    mid: TimedPoint
    right: TimedPoint

    @property
    def duration(self) -> float:
        """Time spanned by the bridge between the two anchors."""
        return self.right.t - self.left.t

    @property
    def mid_offset(self) -> float:
        """Time from the left anchor to the midpoint observation."""
        return self.mid.t - self.left.t

    @property
    def displacement(self) -> np.ndarray:
        return np.array([self.right.x - self.left.x, self.right.y - self.left.y])

    @property
    def variance_weight(self) -> float:
        """Midpoint variance per unit sigma_m^2: tau (T - tau) / T."""
        tau = self.mid_offset
        return tau * (self.duration - tau) / self.duration

    @property
    def deviation(self) -> float:
        """Distance from the midpoint to the chord-interpolated position."""
        frac = self.mid_offset / self.duration
        ex = self.left.x + frac * (self.right.x - self.left.x)
        ey = self.left.y + frac * (self.right.y - self.left.y)
        return math.hypot(self.mid.x - ex, self.mid.y - ey)


@dataclass(frozen=True)
class SearchConfig:
    """Ternary-search interval and stopping rule (log-scale bracket)."""

    sigma_min: float = 1e-6
    sigma_max: float = 1e4
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.sigma_min < self.sigma_max):
            raise DomainError("need 0 < sigma_min < sigma_max")
        if not (0.0 < self.tolerance < 1.0):
            raise DomainError("tolerance must be in (0, 1)")


@dataclass(frozen=True)
class SigmaEstimate:
    """A fitted sigma_m. ``n_triples`` triples entered the likelihood;
    ``n_skipped`` more were left out for a variance weight at or below
    ``VARIANCE_WEIGHT_FLOOR``."""

    sigma_m: float
    log_likelihood_at_max: float
    n_triples: int
    clamped: bool
    n_skipped: int = 0


def extract_triples(traj: Trajectory) -> list[BridgeTriple]:
    """Non-overlapping triples (z0,z1,z2), (z2,z3,z4), ...

    A trailing point that completes no triple is dropped. Triples with a
    degenerate variance weight are skipped. Raises TooFewPointsError below
    three points.
    """
    if len(traj) < 3:
        raise TooFewPointsError(
            f"need at least 3 points to form a triple, got {len(traj)}"
        )
    triples = []
    for i in range(0, len(traj) - 2, 2):
        triple = BridgeTriple(traj.point(i), traj.point(i + 1), traj.point(i + 2))
        if triple.variance_weight > VARIANCE_WEIGHT_FLOOR:
            triples.append(triple)
    return triples


def _stats(traj: Trajectory) -> tuple[int, int, float, float]:
    """(n_kept, n_skipped, sum log a_k, sum r_k^2 / a_k) over the triples."""
    t = traj.times
    xy = traj.coords
    n_pairs = (len(t) - 1) // 2
    li = np.arange(n_pairs) * 2
    spans = t[li + 2] - t[li]
    taus = t[li + 1] - t[li]
    weights = taus * (spans - taus) / spans
    frac = taus / spans
    expect = xy[li] + frac[:, None] * (xy[li + 2] - xy[li])
    dev_sq = ((xy[li + 1] - expect) ** 2).sum(axis=1)
    keep = weights > VARIANCE_WEIGHT_FLOOR
    n_kept = int(keep.sum())
    sum_log_a = float(np.log(weights[keep]).sum())
    quad = float((dev_sq[keep] / weights[keep]).sum())
    return n_kept, n_pairs - n_kept, sum_log_a, quad


def log_likelihood(sigma_m: float, triples: Sequence[BridgeTriple]) -> float:
    """Log of the product of midpoint densities under the bridge model."""
    if not (math.isfinite(sigma_m) and sigma_m > 0.0):
        raise DomainError(f"sigma_m must be > 0, got {sigma_m!r}")
    if not triples:
        raise TooFewPointsError("need at least one triple")
    total = 0.0
    var_scale = sigma_m * sigma_m
    for tr in triples:
        s2 = var_scale * tr.variance_weight
        r = tr.deviation
        total += -_LOG_2PI - math.log(s2) - r * r / (2.0 * s2)
    return total


def closed_form_sigma(triples: Sequence[BridgeTriple]) -> float:
    """Analytic maximizer of the likelihood: sqrt(sum(r^2/a) / (2N)).

    Serves as the independent oracle for the search-based estimator. Raises
    DegenerateDataError when every midpoint sits exactly on its chord.
    """
    if not triples:
        raise TooFewPointsError("need at least one triple")
    quad = sum(tr.deviation ** 2 / tr.variance_weight for tr in triples)
    if quad == 0.0:
        raise DegenerateDataError("all midpoints are on their chords")
    return math.sqrt(quad / (2.0 * len(triples)))


def _log_likelihood_from_stats(
    sigma_m: float, n: int, sum_log_a: float, quad: float
) -> float:
    return (
        -n * _LOG_2PI
        - sum_log_a
        - 2.0 * n * math.log(sigma_m)
        - quad / (2.0 * sigma_m * sigma_m)
    )


def estimate_sigma(
    traj: Trajectory, search: SearchConfig = SearchConfig()
) -> SigmaEstimate:
    """Estimate sigma_m by ternary search of the log-likelihood.

    The search runs on log(sigma_m) over [sigma_min, sigma_max] until the
    bracket's relative width drops below the configured tolerance. Perfectly
    chord-aligned data has no interior maximum; the estimate then clamps to
    the boundary and ``clamped`` is set.
    """
    n_kept, n_skipped, sum_log_a, quad = (
        _stats(traj) if len(traj) >= 3 else (0, 0, 0.0, 0.0))
    if len(traj) < 3 or n_kept == 0:
        raise TooFewPointsError("trajectory yields no usable triple")

    def objective(u: float) -> float:
        return _log_likelihood_from_stats(math.exp(u), n_kept, sum_log_a, quad)

    lo = math.log(search.sigma_min)
    hi = math.log(search.sigma_max)
    lo0, hi0 = lo, hi
    while hi - lo > search.tolerance:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if objective(m1) < objective(m2):
            lo = m1
        else:
            hi = m2
    sigma = math.exp(0.5 * (lo + hi))
    clamped = lo == lo0 or hi == hi0
    return SigmaEstimate(
        sigma_m=sigma,
        log_likelihood_at_max=_log_likelihood_from_stats(
            sigma, n_kept, sum_log_a, quad
        ),
        n_triples=n_kept,
        clamped=clamped,
        n_skipped=n_skipped,
    )
