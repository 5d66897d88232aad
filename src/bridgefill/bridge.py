"""Closed-form expected length of a discretised 2-D Brownian bridge.

A bridge covering a displacement in time ``duration`` with diffusion
coefficient ``sigma_m``, cut into equally spaced segments, has an expected
length that is a Rice mean, so it needs no sampling. Realisations, where a
caller needs them, come from ``_kernels.bridge_paths``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .special import rice_mean


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

