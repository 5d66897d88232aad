"""Exponentially scaled modified Bessel functions, the order-1/2 Laguerre
function, and the mean of the Rice distribution.

Everything here is scalar, dependency-free arithmetic so results are
bit-reproducible across platforms. ``bessel_i_scaled`` uses the ascending
power series for small arguments and the large-argument asymptotic
expansion beyond ``SERIES_ASYM_SEAM``; the seam was placed where both
branches agree to better than 1e-12 so no accuracy cliff exists at the
switchover.
"""

from __future__ import annotations

import math

from .errors import DomainError

# |x| at which bessel evaluation switches from power series to asymptotics.
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


def bessel_i_scaled(order: int, x: float) -> float:
    """Exponentially scaled modified Bessel function e^-|x| I_order(x).

    Never overflows; accurate to ~1e-14 relative for any finite x.
    """
    if order not in (0, 1):
        raise DomainError(f"order must be 0 or 1, got {order!r}")
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    ax = abs(x)
    if ax <= SERIES_ASYM_SEAM:
        value = _series(order, ax) * math.exp(-ax)
    else:
        value = _asym(order, ax)
    if order == 1 and x < 0.0:
        value = -value
    return value


def laguerre_half(x: float) -> float:
    """Laguerre function of order 1/2 on the non-positive half line.

    Evaluated as e^(x/2) [ (1-x) I0(-x/2) - x I1(-x/2) ], rearranged onto the
    scaled Bessel functions so nothing overflows however negative x gets.
    """
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    if x > 0.0:
        raise DomainError(f"laguerre_half is only defined for x <= 0, got {x!r}")
    z = -0.5 * x
    return (1.0 + 2.0 * z) * bessel_i_scaled(0, z) + 2.0 * z * bessel_i_scaled(1, z)


def rice_mean(a: float, b: float) -> float:
    """Mean of ||Z|| for Z ~ N2((a, 0), b * I2): ``a`` is the norm of the
    Gaussian's mean, ``b`` its per-coordinate variance.

    Closed form sqrt(b) sqrt(pi/2) L_half(-a^2 / (2b)); for a^2/(4b) beyond
    ``RICE_MEAN_ASYMPTOTIC_CUT`` the two-term expansion a + b/(2a) is used
    instead (the distribution is then a near-point-mass at a).
    """
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"a must be finite and >= 0, got {a!r}")
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError(f"b must be finite and > 0, got {b!r}")
    if a * a > 4.0 * RICE_MEAN_ASYMPTOTIC_CUT * b:
        return a + b / (2.0 * a)
    return math.sqrt(b) * _SQRT_HALF_PI * laguerre_half(-(a * a) / (2.0 * b))
