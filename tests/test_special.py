import math

import numpy as np
import pytest
import scipy.special

from bridgefill.errors import DomainError
from bridgefill.special import (
    RICE_MEAN_ASYMPTOTIC_CUT,
    SERIES_ASYM_SEAM,
    _asym,
    bessel_i_scaled,
    laguerre_half,
    rice_mean,
)

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


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i_scaled(0, 0.0) == 1.0
        assert bessel_i_scaled(1, 0.0) == 0.0

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.0, 3.0, 8.0, 15.0, 16.0, 22.0, 30.0])
    @pytest.mark.parametrize("order", [0, 1])
    def test_against_series_oracle(self, order, x):
        assert bessel_i_scaled(order, x) == pytest.approx(
            bessel_series(order, x) * math.exp(-x), rel=1e-12
        )

    @pytest.mark.parametrize("order,x,expected", FROZEN_BESSEL)
    def test_frozen_values(self, order, x, expected):
        assert bessel_i_scaled(order, x) == pytest.approx(
            expected * math.exp(-x), rel=1e-10
        )

    @pytest.mark.parametrize("order", [0, 1])
    def test_against_scipy(self, order):
        for x in np.geomspace(0.01, 1e6, 80):
            for signed in (float(x), -float(x)):
                assert bessel_i_scaled(order, signed) == pytest.approx(
                    float(scipy.special.ive(order, signed)), rel=1e-10
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

    def test_symmetry(self):
        for x in [3.0, 200.0]:
            assert bessel_i_scaled(0, -x) == bessel_i_scaled(0, x)
            assert bessel_i_scaled(1, -x) == -bessel_i_scaled(1, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_i_scaled(2, 1.0)
        with pytest.raises(DomainError):
            bessel_i_scaled(0, math.nan)

    def test_scaled_matches_unscaled(self):
        # e^-|x| times the unscaled series oracle, on both branches and
        # past where the unscaled I0 and I1 overflow a double's range.
        for order in (0, 1):
            for x in [0.5, 10.0, 200.0, -200.0]:
                assert bessel_i_scaled(order, x) == pytest.approx(
                    bessel_series(order, x) * math.exp(-abs(x)), rel=1e-12
                )

    def test_scaled_never_overflows(self):
        assert 0.0 < bessel_i_scaled(0, 1e12) < 1.0
        assert 0.0 < bessel_i_scaled(1, 1e300) < 1.0


class TestLaguerreHalf:
    def test_at_zero(self):
        assert laguerre_half(0.0) == 1.0

    def test_positive_argument_rejected(self):
        with pytest.raises(DomainError):
            laguerre_half(1e-9)

    def test_frozen_minus_one(self):
        assert laguerre_half(-1.0) == pytest.approx(LAGUERRE_MINUS_ONE, rel=1e-8)

    def test_minus_one_against_quadrature(self):
        # L(-1) relates to the Rice mean at a = sqrt(2), b = 1.
        via_quad = rice_mean_quadrature(math.sqrt(2.0), 1.0) / math.sqrt(math.pi / 2)
        assert laguerre_half(-1.0) == pytest.approx(via_quad, rel=1e-8)

    def test_large_argument_limit(self):
        # sqrt(pi/(2x)) L(-x/2) -> 1 from above as x grows.
        previous = None
        for x in [1e2, 1e4, 1e6]:
            g = math.sqrt(math.pi / (2.0 * x)) * laguerre_half(-0.5 * x)
            assert g > 1.0
            if previous is not None:
                assert g < previous
            previous = g
        assert previous == pytest.approx(1.0, abs=1e-3)


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
