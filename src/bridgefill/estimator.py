"""Maximum-likelihood estimation of the diffusion coefficient.

Every other observed point anchors an independent bridge and the skipped
point in between is treated as a realisation of that bridge at its own
timestamp (the Brownian-bridge movement model of Horne et al., 2007). A
midpoint ``tau`` after its left anchor on a bridge of span ``T`` lies about
the chord with variance ``sigma_m^2 a``, ``a = tau (T - tau) / T``. With
``r`` its distance from the chord, the log-likelihood over ``N`` triples

    -N log(2 pi) - sum(log a) - 2 N log(sigma_m) - sum(r^2 / a) / (2 sigma_m^2)

has the exact maximiser ``sigma_m = sqrt(sum(r^2 / a) / (2 N))``. It has no
upper bound, so the estimate keeps the units of the data. Data whose
midpoints all sit on their chords has no finite maximiser; the estimate is
then raised to ``SIGMA_FLOOR`` and marked ``clamped``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, TooFewPointsError
from .trajectory import Trajectory

_LOG_2PI = math.log(2.0 * math.pi)

# Triples whose midpoint variance weight falls at or below this are skipped:
# with real-world jitter tau can collide with 0 or the full span, and one
# such triple would otherwise dominate the likelihood.
VARIANCE_WEIGHT_FLOOR = 1e-12

# Least sigma_m returned, so chord-aligned data (sum r^2 / a == 0) still
# gets a finite estimate and a finite log-likelihood.
SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class SigmaEstimate:
    """A fitted sigma_m. ``n_triples`` triples entered the likelihood;
    ``n_skipped`` more were left out for a variance weight at or below
    ``VARIANCE_WEIGHT_FLOOR``. ``clamped`` is set when the maximiser lies
    below ``SIGMA_FLOOR`` and ``sigma_m`` was raised to it."""

    sigma_m: float
    log_likelihood_at_max: float
    n_triples: int
    clamped: bool
    n_skipped: int = 0


def _stats(times: np.ndarray, coords: np.ndarray) -> tuple[int, int, float, np.ndarray]:
    """(n_kept, n_skipped, sum log a_k, sum r_k^2 / a_k) over the triples
    (z0,z1,z2), (z2,z3,z4), ... of m paths sampled at the same ``times``
    (n,), ``coords`` (m, n, 2); a trailing point completing none is dropped.
    The last sum has one entry per path. Raises TooFewPointsError when no
    triple is kept."""
    n_pairs = (len(times) - 1) // 2
    left, mid, right = (np.s_[i:i + 2 * n_pairs:2] for i in range(3))
    t0, t1, t2 = times[left], times[mid], times[right]
    # Far-apart finite points can overflow; estimate_sigma rejects that fit.
    with np.errstate(over="ignore", invalid="ignore"):
        spans = t2 - t0
        taus = t1 - t0
        weights = taus * (spans - taus) / spans
        frac = taus / spans
        # Per coordinate plane, so no loop runs along the 2-long axis, and
        # x then y, so one plane's deviations are alive at a time.
        dev_sq = 0.0
        for z in (coords[..., 0], coords[..., 1]):
            dev_sq = dev_sq + (
                z[:, mid] - (z[:, left] + frac * (z[:, right] - z[:, left]))) ** 2
        keep = weights > VARIANCE_WEIGHT_FLOOR
        n_kept = int(keep.sum())
        if n_kept == 0:
            raise TooFewPointsError("trajectory yields no usable triple")
        sum_log_a = float(np.log(weights[keep]).sum())
        # A row reduced as one contiguous run takes numpy's pairwise sum of
        # a 1-D array, so each path's sum equals its one-path value; a
        # strided layout would sum in another order.
        quad = np.ascontiguousarray(dev_sq[:, keep] / weights[keep]).sum(axis=1)
    return n_kept, n_pairs - n_kept, sum_log_a, quad


def estimate_sigmas(times: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """``estimate_sigma(...).sigma_m`` of m paths sampled at the same
    ``times`` (n,), ``coords`` (m, n, 2); returns (m,), equal bit for bit to
    the one-path estimates, but a row whose fit overflows gets inf or NaN."""
    n_kept, _, _, quad = _stats(times, coords)
    return np.maximum(np.sqrt(quad / (2.0 * n_kept)), SIGMA_FLOOR)


def estimate_sigma(traj: Trajectory) -> SigmaEstimate:
    """Maximum-likelihood sigma_m, ``sqrt(sum(r^2 / a) / (2 N))``.

    The result is raised to ``SIGMA_FLOOR`` (and ``clamped`` set) when the
    maximiser is smaller. Raises TooFewPointsError when the trajectory has
    fewer than three points or every triple has a degenerate variance
    weight, and NonFiniteError when the maximiser or its log-likelihood
    overflows a double.
    """
    n_kept, n_skipped, sum_log_a, quads = _stats(traj.times, traj.coords[None])
    quad = float(quads[0])
    mle = math.sqrt(quad / (2.0 * n_kept))
    sigma = max(mle, SIGMA_FLOOR)
    log_lik = (-n_kept * _LOG_2PI - sum_log_a - 2.0 * n_kept * math.log(sigma)
               - quad / (2.0 * sigma * sigma))
    if not (math.isfinite(sigma) and math.isfinite(log_lik)):
        raise NonFiniteError("the sigma_m fit overflows: the points are too far apart")
    return SigmaEstimate(
        sigma_m=sigma,
        log_likelihood_at_max=log_lik,
        n_triples=n_kept,
        clamped=mle < SIGMA_FLOOR,
        n_skipped=n_skipped,
    )
