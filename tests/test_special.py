import math

import numpy as np
import pytest
import scipy.special

from bridgefill.bridge import (
    RICE_MEAN_ASYMPTOTIC_CUT,
    SERIES_ASYM_SEAM,
    _asym,
    _ive,
    expected_path_length,
    rice_mean,
)
from bridgefill.errors import DomainError

from .oracles import bessel_series, rice_mean_quadrature

# Unscaled I_order(x), cross-checked against arbitrary-precision evaluation
# (30+ digits); the tests compare e^-x times these.
FROZEN_BESSEL = [
    (0, 0.5, 1.0634833707413235),
    (1, 0.5, 0.2578943053908963),
    (0, 1.0, 1.2660658777520082),
    (1, 1.0, 0.5651591039924850),
    (0, 16.0, 893446.2279201050),
    (1, 16.0, 865059.4358548395),
    (0, 100.0, 1.0737517071310738e42),
    (1, 100.0, 1.0683693903381625e42),
    (0, 700.0, 1.5295933476718737e302),
    (1, 700.0, 1.5285003902339007e302),
]

LAGUERRE_MINUS_ONE = 1.4464913440831718

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

# (a, b, float.hex of rice_mean(a, b)), pinned so that a rewrite cannot move
# a bit of the closed form. For b = 1 and 0.037, z = a^2/(4b) runs over 0,
# 1e-3, 1, 16 (the series/asymptotic seam), 100, 1e4 and 0.999 and 1.001
# times RICE_MEAN_ASYMPTOTIC_CUT, then one ulp of a either side of the seam.
RICE_PINS = [
    (0.0, 1.0, "0x1.40d931ff62705p+0"),
    (0.06324555320336758, 1.0, "0x1.412b4fdd541b4p+0"),
    (2.0, 1.0, "0x1.22dd75cdc388fp+1"),
    (8.0, 1.0, "0x1.02020ca2e4a13p+3"),
    (20.0, 1.0, "0x1.406676d88e9aep+4"),
    (200.0, 1.0, "0x1.900147ae9ab3cp+7"),
    (19989.997498749217, 1.0, "0x1.3857fd76de766p+14"),
    (20009.997501249218, 1.0, "0x1.38a7fd77848e9p+14"),
    (7.999999999999999, 1.0, "0x1.02020ca2e4a12p+3"),
    (8.000000000000002, 1.0, "0x1.02020ca2e4a0fp+3"),
    (0.0, 0.037, "0x1.edbb3d6307483p-3"),
    (0.01216552506059644, 0.037, "0x1.ee399a7b4b3f5p-3"),
    (0.3847076812334269, 0.037, "0x1.bf97952e16804p-2"),
    (1.5388307249337076, 0.037, "0x1.8d07d86829c6bp+0"),
    (3.8470768123342687, 0.037, "0x1.ed0ab027fd9e2p+1"),
    (38.47076812334269, 0.037, "0x1.33c51e33926a8p+5"),
    (3845.1527928029077, 0.037, "0x1.e0a4e3b7d2771p+11"),
    (3848.9998700961264, 0.037, "0x1.e11ffef9a6d42p+11"),
    (1.5388307249337074, 0.037, "0x1.8d07d86829c70p+0"),
    (1.5388307249337079, 0.037, "0x1.8d07d86829c6bp+0"),
]

# ((sigma_m, duration, displacement, segments), float.hex of
# expected_path_length), frozen with RICE_PINS; the first two take the
# zero-variance shortcut.
EXPECTED_LENGTH_PINS = [
    ((0.0, 2.0, (3.0, 4.0), 5), "0x1.4000000000000p+2"),
    ((1.3, 2.0, (3.0, -4.0), 1), "0x1.4000000000000p+2"),
    ((1.3, 2.0, (3.0, -4.0), 9), "0x1.fc5744005e27fp+2"),
    ((0.25, 7.5, (0.0, 0.0), 12), "0x1.6c480402b8741p+1"),
    ((0.01, 3.0, (-40.0, 25.0), 50), "0x1.795c49317f226p+5"),
    ((3.0, 0.5, (1000.0, 1000.0), 4), "0x1.618df934d7046p+10"),
    ((1e-05, 1.0, (2.0, 1.0), 3), "0x1.1e3779b997e08p+1"),
]


class TestBesselI:
    # _ive(order, x) is e^-x I_order(x), defined for x >= 0 only.
    def test_at_zero(self):
        assert _ive(0, 0.0) == 1.0
        assert _ive(1, 0.0) == 0.0

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.0, 3.0, 8.0, 15.0, 16.0, 22.0, 30.0])
    @pytest.mark.parametrize("order", [0, 1])
    def test_against_series_oracle(self, order, x):
        assert _ive(order, x) == pytest.approx(
            bessel_series(order, x) * math.exp(-x), rel=1e-12
        )

    @pytest.mark.parametrize("order,x,expected", FROZEN_BESSEL)
    def test_frozen_values(self, order, x, expected):
        assert _ive(order, x) == pytest.approx(expected * math.exp(-x), rel=1e-10)

    @pytest.mark.parametrize("order", [0, 1])
    def test_against_scipy(self, order):
        for x in np.geomspace(0.01, 1e6, 80):
            assert _ive(order, float(x)) == pytest.approx(
                float(scipy.special.ive(order, x)), rel=1e-10
            )

    def test_branches_agree_at_seam(self):
        # Both evaluation branches must match where the implementation
        # switches between them.
        x = SERIES_ASYM_SEAM
        assert _asym(0, x) * math.exp(x) == pytest.approx(
            bessel_series(0, x), rel=1e-10
        )
        assert _asym(1, x) * math.exp(x) == pytest.approx(
            bessel_series(1, x), rel=1e-10
        )

    def test_scaled_matches_unscaled(self):
        # e^-x times the unscaled series oracle, on both branches and
        # past where the unscaled I0 and I1 overflow a double's range.
        for order in (0, 1):
            for x in [0.5, 10.0, 200.0]:
                assert _ive(order, x) == pytest.approx(
                    bessel_series(order, x) * math.exp(-x), rel=1e-12
                )

    def test_scaled_never_overflows(self):
        assert 0.0 < _ive(0, 1e12) < 1.0
        assert 0.0 < _ive(1, 1e300) < 1.0


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
    @pytest.mark.parametrize("a,b,expected", RICE_PINS)
    def test_rice_mean_bits(self, a, b, expected):
        assert rice_mean(a, b).hex() == expected

    @pytest.mark.parametrize("args,expected", EXPECTED_LENGTH_PINS)
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

    def test_asymptotic_cut_is_seamless(self):
        # Pick (a, b) pairs straddling the two-term switchover.
        a = 1.0
        b_cut = a * a / (4.0 * RICE_MEAN_ASYMPTOTIC_CUT)
        below = rice_mean(a, b_cut * 0.999)
        above = rice_mean(a, b_cut * 1.001)
        assert below == pytest.approx(above, rel=1e-9)

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
        # a * a and 4e8 * b both overflow, so a^2/(4b) is NaN or inf; the
        # Bessel sums would then loop forever or return NaN.
        with pytest.raises(DomainError, match="must be finite"):
            rice_mean(a, b)
        with pytest.raises(DomainError, match="must be finite"):
            expected_path_length(math.sqrt(b), 1.0, (a, 0.0), 2)
