import math

import numpy as np
import pytest
from scipy import stats

from bridgefill import _kernels
from bridgefill.bridge import expected_path_length
from bridgefill.errors import DomainError, NonMonotonicTimeError
from bridgefill.gapfill import estimate_gap_rog, fill_gap
from bridgefill.seeding import make_rng
from bridgefill.trajectory import GappedTrajectory, Trajectory

from .oracles import bridge_marginal, polyline_length, sample_path_lengths


def draw(start, end, duration, sigma, times, n, seed):
    """``n`` kernel bridges at ``times``, driven by one draw from ``seed``."""
    noise = make_rng(seed).standard_normal((n, len(times), 2))
    return _kernels.bridge_paths(start, end, duration, sigma, times, noise)


def gap(start, end, duration, missing):
    """A gap from ``start`` at 0 to ``end`` at ``duration``."""
    return GappedTrajectory(Trajectory([0.0, duration], [start, end]), 1,
                            np.asarray(missing, dtype=float))


class TestBridgeMarginal:
    def test_pinned_endpoints(self):
        mean0, var0 = bridge_marginal((1, 2), (3, -4), 10.0, 1.5, 0.0)
        meanT, varT = bridge_marginal((1, 2), (3, -4), 10.0, 1.5, 10.0)
        assert np.array_equal(mean0, [1, 2]) and var0 == 0.0
        assert np.array_equal(meanT, [3, -4]) and varT == 0.0

    def test_reference_midpoint(self):
        # sigma_m = 2, duration 100, displacement (30, 15): halfway the mean
        # is (15, 7.5) and the per-coordinate variance 4 * 50 * 50 / 100.
        mean, var = bridge_marginal((0, 0), (30, 15), 100.0, 2.0, 50.0)
        assert mean == pytest.approx([15.0, 7.5])
        assert var == pytest.approx(100.0)

    def test_variance_peaks_at_halftime(self):
        _, var = bridge_marginal((0, 0), (1, 1), 42.0, 0.7, 21.0)
        assert var == pytest.approx(0.7 ** 2 * 42.0 / 4.0)

    @pytest.mark.parametrize("t", [-0.1, 10.1])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            bridge_marginal((0, 0), (1, 1), 10.0, 1.0, t)


class TestSampleBridge:
    def test_zero_sigma_is_straight_line(self):
        times = np.arange(1.0, 10.0)
        [pts] = draw((1, 1), (11, 6), 10.0, 0.0, times, 1, 0)
        expected = np.array([1, 1]) + np.outer(times / 10.0, [10, 5])
        assert pts == pytest.approx(expected, abs=1e-12)

    def test_empty_times(self):
        assert draw((0, 0), (1, 1), 10.0, 1.0, np.array([]), 3, 0).shape == (3, 0, 2)
        assert fill_gap(gap((0, 0), (1, 1), 10.0, []), 1.0, 0).shape == (0, 2)

    def test_deterministic(self):
        gapped = gap((0, 0), (1, 1), 10.0, np.arange(1.0, 10.0))
        assert np.array_equal(fill_gap(gapped, 1.0, 7),
                              fill_gap(gapped, 1.0, 7))
        assert not np.array_equal(fill_gap(gapped, 1.0, 7),
                                  fill_gap(gapped, 1.0, 8))

    @pytest.mark.parametrize("times", [[5.0, 5.0], [9.0, 3.0], [0.0, 5.0], [5.0, 10.0]])
    def test_bad_times(self, times):
        # The gap is the only check on a bridge's missing times.
        with pytest.raises(NonMonotonicTimeError):
            gap((0, 0), (1, 1), 10.0, times)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_bad_sigma_rejected(self, sigma):
        gapped = gap((0, 0), (1, 1), 10.0, [5.0])
        with pytest.raises(DomainError, match="sigma_m must be >= 0"):
            fill_gap(gapped, sigma, 0)
        with pytest.raises(DomainError, match="sigma_m must be >= 0"):
            estimate_gap_rog(gapped, sigma, 10, 0)

    def test_midpoint_marginal_statistics(self):
        # 10^4 joint draws at t = T/2 with sigma_m = 1, T = 100: each
        # coordinate should have variance 25 (within 5%).
        pts = draw((0, 0), (30, 15), 100.0, 1.0, np.array([50.0]), 10_000, 123)[:, 0, :]
        mean, var = bridge_marginal((0, 0), (30, 15), 100.0, 1.0, 50.0)
        assert pts.mean(axis=0) == pytest.approx(mean, abs=4 * 5 / 100)
        assert pts[:, 0].var() == pytest.approx(var, rel=0.05)
        assert pts[:, 1].var() == pytest.approx(var, rel=0.05)

    def test_increment_distribution_matches_direct_sample(self):
        # For equal spacing, consecutive increments are distributed like the
        # bridge itself evaluated at the spacing (two-sample check).
        duration, sigma, spacing = 100.0, 1.3, 10.0
        times = np.arange(spacing, duration, spacing)
        paths = draw((0, 0), (20, -8), duration, sigma, times, 10_000, 99)
        increments = paths[:, 1, 0] - paths[:, 0, 0]
        direct = draw((0, 0), (20, -8), duration, sigma, np.array([spacing]),
                      10_000, 1234)[:, 0, 0]
        # recentre both on their analytic means before comparing
        increments -= spacing / duration * 20
        direct -= spacing / duration * 20
        assert stats.ks_2samp(increments, direct).pvalue > 1e-3


class TestExpectedPathLength:
    def test_vanishing_sigma_gives_chord(self):
        assert expected_path_length(1e-9, 100.0, (3, 4), 100) == pytest.approx(
            5.0, abs=1e-6
        )
        assert expected_path_length(0.0, 100.0, (3, 4), 100) == 5.0

    def test_underflowing_variance_gives_chord(self):
        # sigma_m^2 underflows to 0, so the Rice variance is 0
        assert expected_path_length(1e-200, 1.0, (3, 4), 10) == 5.0

    def test_round_trip_rayleigh_case(self):
        expected = 2.0 * math.sqrt((math.pi / 2.0) * 100.0 * 50.0)
        assert expected_path_length(2.0, 100.0, (0, 0), 51) == pytest.approx(expected)
        assert expected == pytest.approx(177.2454, abs=1e-4)

    def test_single_segment_is_chord(self):
        assert expected_path_length(3.0, 10.0, (6, 8), 1) == 10.0

    def test_chord_lower_bound(self):
        for sigma in [0.01, 0.5, 2.0, 25.0]:
            for n in [2, 10, 100]:
                assert expected_path_length(sigma, 50.0, (7, -24), n) >= 25.0

    def test_monotonicity(self):
        d = (30, 15)
        sig = [expected_path_length(s, 100.0, d, 100) for s in [0.1, 0.5, 1, 5, 20]]
        assert all(a < b for a, b in zip(sig, sig[1:]))
        dur = [expected_path_length(1.0, t, d, 100) for t in [1, 10, 100, 1000]]
        assert all(a < b for a, b in zip(dur, dur[1:]))
        seg = [expected_path_length(1.0, 100.0, d, n) for n in [1, 2, 10, 100, 1000]]
        assert all(a < b for a, b in zip(seg, seg[1:]))

    def test_spatial_scale_equivariance(self):
        for c in [0.01, 3.0, 1e3]:
            assert expected_path_length(
                c * 1.2, 77.0, (c * 3, c * 4), 50
            ) == pytest.approx(
                c * expected_path_length(1.2, 77.0, (3, 4), 50), rel=1e-12
            )

    def test_validation(self):
        with pytest.raises(DomainError):
            expected_path_length(1.0, 10.0, (1, 1), 0)
        with pytest.raises(DomainError):
            expected_path_length(1.0, -1.0, (1, 1), 5)
        with pytest.raises(DomainError):
            expected_path_length(-1.0, 1.0, (1, 1), 5)


class TestSampledLengths:
    def test_monte_carlo_agreement(self):
        sigma, duration, d, n = 2.0, 100.0, (30, 15), 100
        lengths = sample_path_lengths(sigma, duration, d, n, 20_000, 17)
        closed = expected_path_length(sigma, duration, d, n)
        se = lengths.std(ddof=1) / math.sqrt(len(lengths))
        assert abs(lengths.mean() - closed) < 3 * se

    def test_lengths_match_sampled_paths(self):
        # The oracle's lengths measure what the package's paths measure,
        # from the same seed.
        sigma, duration, n = 1.5, 10.0, 10
        times = duration * np.arange(1, n) / n
        paths = draw((0, 0), (3, 4), duration, sigma, times, 50, 5)
        manual = []
        for path in paths:
            pts = np.vstack([[0, 0], path, [3, 4]])
            manual.append(polyline_length(pts))
        direct = sample_path_lengths(sigma, duration, (3, 4), n, 50, make_rng(5))
        assert direct == pytest.approx(manual, rel=1e-12)

    def test_degenerate_cases(self):
        assert np.all(sample_path_lengths(0.0, 10.0, (3, 4), 7, 5, 0) == 5.0)
        assert np.all(sample_path_lengths(2.0, 10.0, (3, 4), 1, 5, 0) == 5.0)
