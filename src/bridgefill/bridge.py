"""General 2-D Brownian bridge: exact sampling and the closed-form expected
length of its discretisation.

A bridge runs from ``start`` at time 0 to ``end`` at time ``duration`` with
diffusion coefficient ``sigma_m``; at time t its position is Gaussian around
the chord point with per-coordinate variance sigma_m^2 t (duration - t) /
duration. Sampling is exact at any interior times, with pinned endpoints.
Conditioning each point on the previous one and the endpoint adds step
noise sd_i n_i; unrolled, that recursion puts the point at t_j at the chord
plus D_j = (T - t_j) * sum_{i<=j} sd_i n_i / (T - t_i), the discrete form
of X_t = (T - t) * integral_0^t dW_s / (T - s) (Glasserman, *Monte Carlo
Methods in Financial Engineering*, 2004, section 3.1). One cumulative sum
over the noise builds all paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .seeding import make_rng
from .special import rice_mean


@dataclass(frozen=True)
class BridgeParams:
    """Everything needed to sample or evaluate one bridge."""

    start: tuple[float, float]
    end: tuple[float, float]
    duration: float
    sigma_m: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", tuple(map(float, self.start)))
        object.__setattr__(self, "end", tuple(map(float, self.end)))
        coords = (*self.start, *self.end)
        if len(coords) != 4 or not all(map(math.isfinite, coords)):
            raise DomainError("start and end must be finite 2-D points")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise DomainError(f"duration must be > 0, got {self.duration!r}")
        if not (math.isfinite(self.sigma_m) and self.sigma_m >= 0.0):
            raise DomainError(f"sigma_m must be >= 0, got {self.sigma_m!r}")


def _check_times(times: np.ndarray, duration: float) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DomainError("times must be a 1-D sequence")
    if len(times) == 0:
        return times
    if not (np.diff(times) > 0).all():
        raise DomainError("times must be strictly increasing")
    if not (times[0] > 0.0 and times[-1] < duration):
        raise DomainError(f"times must lie strictly inside (0, {duration})")
    return times


def sample_bridge(
    params: BridgeParams,
    times: np.ndarray,
    rng: int | np.random.Generator,
) -> np.ndarray:
    """One joint realisation of the bridge at the given interior times.

    Returns an array of shape (len(times), 2). Deterministic for a fixed
    seed; the two coordinates are driven by independent noise.
    """
    return sample_bridge_many(params, times, 1, rng)[0]


def sample_bridge_many(
    params: BridgeParams,
    times: np.ndarray,
    n_paths: int,
    rng: int | np.random.Generator,
) -> np.ndarray:
    """``n_paths`` independent joint realisations, shape (n_paths, k, 2)."""
    times = _check_times(times, params.duration)
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    if len(times) == 0:
        return np.empty((n_paths, 0, 2))
    rng = make_rng(rng)
    noise = rng.standard_normal((n_paths, len(times), 2))
    return _kernels.bridge_paths(
        params.start, params.end, params.duration, params.sigma_m, times, noise,
    )


def expected_path_length(
    sigma_m: float,
    duration: float,
    displacement: tuple[float, float],
    segments: int,
) -> float:
    """Expected length of an equally spaced ``segments``-piece discretised
    bridge covering ``displacement`` in time ``duration``.

    Equals the Rice mean with location ||displacement|| and per-coordinate
    variance sigma_m^2 duration (segments - 1); degenerates to
    ||displacement|| when that variance is 0: a single segment, a zero
    diffusion coefficient, or one so small that its square underflows.
    """
    if not isinstance(segments, (int, np.integer)) or segments < 1:
        raise DomainError(f"segments must be an integer >= 1, got {segments!r}")
    if not (math.isfinite(duration) and duration > 0.0):
        raise DomainError(f"duration must be > 0, got {duration!r}")
    if not (math.isfinite(sigma_m) and sigma_m >= 0.0):
        raise DomainError(f"sigma_m must be >= 0, got {sigma_m!r}")
    dx, dy = map(float, displacement)
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise DomainError("displacement must be finite")
    d_norm = math.hypot(dx, dy)
    var = sigma_m * sigma_m * duration * (segments - 1)
    if var == 0.0:
        return d_norm
    return rice_mean(d_norm, var)

