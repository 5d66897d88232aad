"""Closed-form expected length of a discretised 2-D Brownian bridge.

A bridge covering a displacement in time ``duration`` with diffusion
coefficient ``sigma_m``, cut into equally spaced segments, has an expected
length that is a Rice mean, so it needs no sampling. Realisations, where a
caller needs them, come from ``_kernels.bridge_paths``.

The Rice mean is scalar, dependency-free arithmetic, so results are
bit-reproducible across platforms. Its exponentially scaled Bessel functions
use the ascending power series for small arguments and the large-argument
asymptotic expansion beyond ``SERIES_ASYM_SEAM``; the seam was placed where
both branches agree to better than 1e-12, so no accuracy cliff exists at the
switchover.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Argument at which the Bessel sums switch from power series to asymptotics.
SERIES_ASYM_SEAM = 16.0

# rice_mean switches to the two-term expansion a + b/(2a) once
# a^2/(4b) exceeds this; the neglected terms are O((b/a^2)^2) ~ 6e-18 there.
RICE_MEAN_ASYMPTOTIC_CUT = 1.0e8

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def _series(order: int, x: float) -> float:
    # I_n(x) = sum_k (x/2)^(2k+n) / (k! (k+n)!) for n = 0, 1; all terms
    # positive, no cancellation.
    q = 0.25 * x * x
    term = 1.0 if order == 0 else 0.5 * x
    total = term
    k = 0
    while True:
        k += 1
        term *= q / (k * (k + order))
        total += term
        if term <= total * 1e-18:
            return total


def _asym(order: int, x: float) -> float:
    # e^-x I_n(x) for x >= SERIES_ASYM_SEAM, from the terms
    # prod_{j<=k} ((2j-1)^2 - 4n^2) / (8jx), summed until they stop
    # decreasing (optimal truncation, error ~ e^-2x relative). For n = 1
    # the first term is negative and the later factors positive, so all
    # corrections share its sign.
    inv8x = 1.0 / (8.0 * x)
    mu = 4.0 * order * order
    term = 1.0
    total = 1.0
    k = 1
    while True:
        nxt = term * ((2 * k - 1) * (2 * k - 1) - mu) * inv8x / k
        if abs(nxt) >= abs(term) or abs(nxt) <= total * 1e-18:
            if abs(nxt) < abs(term):
                total += nxt
            break
        term = nxt
        total += term
        k += 1
    return total / math.sqrt(2.0 * math.pi * x)


def _ive(order: int, x: float) -> float:
    # e^-x I_order(x) for order 0 or 1 and finite x >= 0; never overflows.
    if x <= SERIES_ASYM_SEAM:
        return _series(order, x) * math.exp(-x)
    return _asym(order, x)


def rice_mean(a: float, b: float) -> float:
    """Mean of ||Z|| for Z ~ N2((a, 0), b * I2): ``a`` is the norm of the
    Gaussian's mean, ``b`` its per-coordinate variance.

    Closed form sqrt(b) sqrt(pi/2) L_half(-2z) with z = a^2/(4b), where the
    order-1/2 Laguerre function is L_half(-2z) = (1 + 2z) e^-z I0(z) +
    2z e^-z I1(z); for z beyond ``RICE_MEAN_ASYMPTOTIC_CUT`` the two-term
    expansion a + b/(2a) is used instead (the distribution is then a
    near-point-mass at a).
    """
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"a must be finite and >= 0, got {a!r}")
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError(f"b must be finite and > 0, got {b!r}")
    if a * a > 4.0 * RICE_MEAN_ASYMPTOTIC_CUT * b:
        return a + b / (2.0 * a)
    z = 0.5 * ((a * a) / (2.0 * b))
    if not math.isfinite(z):
        # a * a and 4e8 * b both overflowed, so the cut test above failed.
        raise DomainError(f"a^2 / (4b) must be finite, got {z!r}")
    laguerre = (1.0 + 2.0 * z) * _ive(0, z) + 2.0 * z * _ive(1, z)
    return math.sqrt(b) * _SQRT_HALF_PI * laguerre


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
