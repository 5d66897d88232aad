import math

import numpy as np
import pytest

from bridgefill.bridge import SERIES_ASYM_SEAM, expected_path_length, rice_mean
from bridgefill.errors import DomainError

from .oracles import rice_mean_bessel, rice_mean_quadrature

LAGUERRE_MINUS_ONE = 1.4464913440831718

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

# (a, b, float.hex of rice_mean(a, b)), pinned so that a rewrite cannot move
# a bit of the closed form. For b = 1 and 0.037, x = a^2/(2b) runs over 0,
# 2e-3, 2, 32 (SERIES_ASYM_SEAM), 200, 2e4, 1.998e8 and 2.002e8, then one
# ulp of a either side of the seam.
RICE_PINS = [
    (0.0, 1.0, "0x1.40d931ff62705p+0"),
    (0.06324555320336758, 1.0, "0x1.412b4fdd541b4p+0"),
    (2.0, 1.0, "0x1.22dd75cdc388ep+1"),
    (8.0, 1.0, "0x1.02020ca2e4a13p+3"),
    (20.0, 1.0, "0x1.406676d88e9aep+4"),
    (200.0, 1.0, "0x1.900147ae9ab3ep+7"),
    (19989.997498749217, 1.0, "0x1.3857fd76de767p+14"),
    (20009.997501249218, 1.0, "0x1.38a7fd77848eap+14"),
    (7.999999999999999, 1.0, "0x1.02020ca2e4a16p+3"),
    (8.000000000000002, 1.0, "0x1.02020ca2e4a14p+3"),
    (0.0, 0.037, "0x1.edbb3d6307483p-3"),
    (0.01216552506059644, 0.037, "0x1.ee399a7b4b3f5p-3"),
    (0.3847076812334269, 0.037, "0x1.bf97952e16804p-2"),
    (1.5388307249337076, 0.037, "0x1.8d07d86829c71p+0"),
    (3.8470768123342687, 0.037, "0x1.ed0ab027fd9e1p+1"),
    (38.47076812334269, 0.037, "0x1.33c51e33926a9p+5"),
    (3845.1527928029077, 0.037, "0x1.e0a4e3b7d2773p+11"),
    (3848.9998700961264, 0.037, "0x1.e11ffef9a6d42p+11"),
    (1.5388307249337074, 0.037, "0x1.8d07d86829c76p+0"),
    (1.5388307249337079, 0.037, "0x1.8d07d86829c72p+0"),
]

# ((sigma_m, duration, displacement, segments), float.hex of
# expected_path_length), frozen with RICE_PINS; the first two take the
# zero-variance shortcut.
EXPECTED_LENGTH_PINS = [
    ((0.0, 2.0, (3.0, 4.0), 5), "0x1.4000000000000p+2"),
    ((1.3, 2.0, (3.0, -4.0), 1), "0x1.4000000000000p+2"),
    ((1.3, 2.0, (3.0, -4.0), 9), "0x1.fc5744005e280p+2"),
    ((0.25, 7.5, (0.0, 0.0), 12), "0x1.6c480402b8741p+1"),
    ((0.01, 3.0, (-40.0, 25.0), 50), "0x1.795c49317f226p+5"),
    ((3.0, 0.5, (1000.0, 1000.0), 4), "0x1.618df934d7044p+10"),
    ((1e-05, 1.0, (2.0, 1.0), 3), "0x1.1e3779b997e08p+1"),
]


class TestLaguerreHalf:
    # The order-1/2 Laguerre function, read off the Rice mean:
    # L(-a^2 / (2b)) = rice_mean(a, b) / (sqrt(b) sqrt(pi/2)).
    def test_at_zero(self):
        assert rice_mean(0.0, 1.0) == SQRT_HALF_PI

    def test_frozen_minus_one(self):
        laguerre = rice_mean(math.sqrt(2.0), 1.0) / SQRT_HALF_PI
        assert laguerre == pytest.approx(LAGUERRE_MINUS_ONE, rel=1e-8)

    def test_minus_one_against_quadrature(self):
        via_quad = rice_mean_quadrature(math.sqrt(2.0), 1.0) / SQRT_HALF_PI
        laguerre = rice_mean(math.sqrt(2.0), 1.0) / SQRT_HALF_PI
        assert laguerre == pytest.approx(via_quad, rel=1e-8)

    def test_large_argument_limit(self):
        # sqrt(pi/(2x)) L(-x/2) = rice_mean(sqrt(x), 1) / sqrt(x) -> 1 from
        # above as x grows.
        previous = None
        for x in [1e2, 1e4, 1e6]:
            g = rice_mean(math.sqrt(x), 1.0) / math.sqrt(x)
            assert g > 1.0
            if previous is not None:
                assert g < previous
            previous = g
        assert previous == pytest.approx(1.0, abs=1e-3)


class TestRicePins:
    # Ids from the arguments alone, so a re-pin keeps every case's name.
    @pytest.mark.parametrize("a,b,expected", RICE_PINS,
                             ids=[f"{a!r}-{b!r}" for a, b, _ in RICE_PINS])
    def test_rice_mean_bits(self, a, b, expected):
        assert rice_mean(a, b).hex() == expected

    @pytest.mark.parametrize("args,expected", EXPECTED_LENGTH_PINS, ids=[
        f"{s!r}-{t!r}-({dx!r},{dy!r})-{n}"
        for (s, t, (dx, dy), n), _ in EXPECTED_LENGTH_PINS])
    def test_expected_path_length_bits(self, args, expected):
        assert expected_path_length(*args).hex() == expected


class TestRiceMean:
    @pytest.mark.parametrize("b", [1e-4, 1.0, 4.0, 1e4])
    def test_rayleigh_case(self, b):
        assert rice_mean(0.0, b) == pytest.approx(
            math.sqrt(math.pi * b / 2.0), rel=1e-12
        )

    def test_frozen_quadrature_value(self):
        # rice_mean_quadrature(3, 4) frozen from the oracle in oracles.py.
        assert rice_mean(3.0, 4.0) == pytest.approx(3.7498714988104322, rel=1e-9)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 3.0, 10.0, 100.0])
    @pytest.mark.parametrize("b", [1e-4, 1.0, 1e4])
    def test_against_quadrature(self, a, b):
        assert rice_mean(a, b) == pytest.approx(
            rice_mean_quadrature(a, b), rel=1e-6
        )

    def test_jensen_lower_bounds(self):
        for a in [0.0, 0.3, 2.0, 50.0, 500.0]:
            for b in [1e-6, 1e-2, 1.0, 1e3]:
                m = rice_mean(a, b)
                assert m >= a
                assert m >= math.sqrt(math.pi * b / 2.0) * (1 - 1e-15)

    def test_monotone_in_both_parameters(self):
        a_grid = [0.0, 0.2, 1.0, 4.0, 20.0, 100.0]
        b_grid = [1e-4, 1e-2, 1.0, 1e2, 1e4]
        for b in b_grid:
            values = [rice_mean(a, b) for a in a_grid]
            assert all(x <= y for x, y in zip(values, values[1:]))
        for a in a_grid:
            values = [rice_mean(a, b) for b in b_grid]
            assert all(x <= y for x, y in zip(values, values[1:]))

    def test_vanishing_variance_limit(self):
        assert rice_mean(5.0, 1e-12) == pytest.approx(5.0, abs=1e-6)

    @pytest.mark.parametrize("b", [1e-6, 0.037, 1.0, 7.5, 1e6])
    def test_seam_is_continuous(self, b):
        # The largest a that sums the power series and the next float up,
        # which sums the large-x expansion: one ulp of a apart, so their
        # means may differ by about that and each one's rounding.
        a = math.sqrt(2.0 * b * SERIES_ASYM_SEAM)
        while a / b * a / 2.0 > SERIES_ASYM_SEAM:
            a = math.nextafter(a, 0.0)
        while (above := math.nextafter(a, math.inf)) / b * above / 2.0 <= SERIES_ASYM_SEAM:
            a = above
        assert rice_mean(above, b) == pytest.approx(rice_mean(a, b), rel=3e-15)

    def test_matches_bessel_oracle(self):
        # 2000 seeded log-uniform (a, b) with x = a^2/(2b) from 1e-6 to 1e12,
        # and one ulp of a either side of the seam; the 3e-15 bound was fixed
        # before the first run.
        rng = np.random.default_rng(25)
        b = 10.0 ** rng.uniform(-6.0, 6.0, 2000)
        a = np.sqrt(2.0 * b * 10.0 ** rng.uniform(-6.0, 12.0, 2000))
        at_seam = np.sqrt(2.0 * b[:20] * SERIES_ASYM_SEAM)
        a = np.concatenate([a, np.nextafter(at_seam, 0.0), at_seam,
                            np.nextafter(at_seam, np.inf)])
        b = np.concatenate([b, b[:20], b[:20], b[:20]])
        ours = np.array([rice_mean(float(ai), float(bi)) for ai, bi in zip(a, b)])
        expected = rice_mean_bessel(a, b)
        assert np.max(np.abs(ours / expected - 1.0)) <= 3e-15

    def test_triangle_and_jensen_bounds(self):
        # max(a, sqrt(pi b/2)) <= E||Z|| <= min(a + sqrt(pi b/2),
        # sqrt(a^2 + 2b)): Jensen's inequality for ||.|| and for sqrt, and
        # the triangle inequality, on both series, two ulps of a either
        # side of the seam, and x up to inf.
        rng = np.random.default_rng(26)
        pairs = [(float(math.sqrt(2.0 * b * x)), float(b)) for x, b in zip(
            10.0 ** rng.uniform(-8.0, 15.0, 500), 10.0 ** rng.uniform(-6.0, 6.0, 500))]
        for b in [1e-6, 0.037, 1.0, 1e6]:
            a = math.sqrt(2.0 * b * SERIES_ASYM_SEAM)
            for _ in range(2):
                a = math.nextafter(a, 0.0)
            for _ in range(5):
                pairs.append((a, b))
                a = math.nextafter(a, math.inf)
        pairs += [(1e200, 1e-200), (1.0, 5e-324), (1e308, 1e-10)]  # x = inf
        slack = 1e-15
        for a, b in pairs:
            m = rice_mean(a, b)
            rayleigh = math.sqrt(math.pi * b / 2.0)
            assert m >= max(a, rayleigh) * (1 - slack)
            assert m <= min(a + rayleigh, math.hypot(a, math.sqrt(2.0 * b))) * (1 + slack)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            rice_mean(-1.0, 1.0)
        with pytest.raises(DomainError):
            rice_mean(1.0, 0.0)
        with pytest.raises(DomainError, match="a must be finite"):
            rice_mean(math.inf, 1.0)
        with pytest.raises(DomainError, match="b must be finite"):
            rice_mean(1.0, math.nan)

    @pytest.mark.parametrize("a,b", [(1e200, 1e308), (1e200, 1e300)])
    def test_overflowing_argument_rejected(self, a, b):
        # a * a overflows, but x = a / b * a / 2 does not, and at x near
        # 1e100 the mean is a to within a double's precision.
        assert rice_mean(a, b) == pytest.approx(a, rel=1e-15)
        assert expected_path_length(math.sqrt(b), 1.0, (a, 0.0), 2) == pytest.approx(
            a, rel=1e-15)
