"""Closed-form expected length of a discretised 2-D Brownian bridge.

A bridge covering a displacement in time ``duration`` with diffusion
coefficient ``sigma_m``, cut into equally spaced segments, has an expected
length that is a Rice mean, so it needs no sampling. Realisations, where a
caller needs them, come from ``_kernels.bridge_paths``.

The Rice mean is E||Z|| = sqrt(b pi/2) 1F1(-1/2; 1; -x) for Z ~ N2((a, 0),
b I2), with x = a^2 / (2b). It is scalar, dependency-free arithmetic, so
results are bit-reproducible across platforms. Up to ``SERIES_ASYM_SEAM``
it sums Kummer's transform of 1F1, a power series of positive terms; beyond
it, the large-x expansion of 1F1 (DLMF 13.2.39 and 13.7.2). Against a
50-digit reference, the power series is within about 2e-15 at any x but
needs more terms as x grows (48 at x = 10, 92 at x = 32), while the
expansion is within 1.1e-15 from x = 26 on but still 2e-13 off at x = 20;
the seam sits a little above where the expansion becomes that accurate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _check_scale

# x = a^2 / (2b) above which rice_mean sums the large-x expansion.
SERIES_ASYM_SEAM = 32.0

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def rice_mean(a: float, b: float) -> float:
    """Mean of ||Z|| for Z ~ N2((a, 0), b * I2): ``a`` is the norm of the
    Gaussian's mean, ``b`` its per-coordinate variance.

    With x = a^2 / (2b), the mean is sqrt(b pi/2) 1F1(-1/2; 1; -x). Up to
    ``SERIES_ASYM_SEAM`` that is sqrt(b) sqrt(pi/2) e^-x sum_k (3/2)_k x^k /
    (k!)^2, every term positive. Beyond it, the mean is the large-x
    expansion a sum_k ((-1/2)_k)^2 / (k! x^k), also of positive terms,
    stopped at its smallest term; its first two terms are a + b/(2a). An x
    that overflows to inf gives exactly ``a``: the distribution is then a
    point mass at a.
    """
    _check_scale("a", a, error=DomainError)
    _check_scale("b", b, positive=True, error=DomainError)
    x = a / b * a / 2.0  # never NaN: a / b is 0 when a is
    term = total = 1.0
    k = 0
    if x <= SERIES_ASYM_SEAM:
        while term > total * 1e-17:
            k += 1
            term *= (k + 0.5) / (k * k) * x
            total += term
        return math.sqrt(b) * _SQRT_HALF_PI * (math.exp(-x) * total)
    while True:
        k += 1
        nxt = term * (k - 1.5) * (k - 1.5) / (k * x)
        if nxt >= term or nxt <= total * 1e-17:
            return a * total
        term = nxt
        total += term


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
    _check_scale("duration", duration, positive=True, error=DomainError)
    _check_scale("sigma_m", sigma_m, error=DomainError)
    dx, dy = map(float, displacement)
    d_norm = math.hypot(dx, dy)
    if not math.isfinite(d_norm):
        raise DomainError(
            f"displacement must be finite in norm, got ({dx!r}, {dy!r}) of norm "
            f"{d_norm!r}")
    var = sigma_m * sigma_m * duration * (segments - 1)
    if not math.isfinite(var):
        raise DomainError(
            f"sigma_m^2 * duration * (segments - 1) must be finite, got sigma_m "
            f"{sigma_m!r}, duration {duration!r} and segments - 1 = {segments - 1}")
    if var == 0.0:
        return d_norm
    return rice_mean(d_norm, var)
