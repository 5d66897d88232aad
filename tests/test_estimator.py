import math

import numpy as np
import pytest

from bridgefill import _kernels
from bridgefill.errors import DomainError, TooFewPointsError
from bridgefill.estimator import SIGMA_FLOOR, estimate_sigma, estimate_sigmas
from bridgefill.seeding import make_rng
from bridgefill.trajectory import Trajectory

from .oracles import (
    BridgeTriple,
    DegenerateDataError,
    Point,
    closed_form_sigma,
    extract_triples,
    log_likelihood,
)


def triple(points):
    return BridgeTriple(*(Point(*p) for p in points))


def from_rows(rows):
    """Trajectory from (t, x, y) rows."""
    data = np.asarray(rows, dtype=float)
    return Trajectory(data[:, 0], data[:, 1:])


def random_trajectory(rng, n_points=None, scale=1.0):
    n = n_points if n_points is not None else int(rng.integers(5, 40))
    times = np.cumsum(rng.uniform(0.5, 2.0, n))
    coords = scale * rng.standard_normal((n, 2)).cumsum(axis=0)
    return Trajectory(times, coords)


def large_step_walk():
    """501 points, unit times, N(0, 1e5) steps from default_rng(0)."""
    coords = np.random.default_rng(0).normal(0.0, 1e5, (501, 2)).cumsum(axis=0)
    return Trajectory(np.arange(501.0), coords)


def bridge_trajectory(sigma, duration, end, seed, n_interior):
    times = duration * np.arange(1, n_interior + 1) / (n_interior + 1)
    noise = make_rng(seed).standard_normal((1, n_interior, 2))
    [pts] = _kernels.bridge_paths((0, 0), end, duration, sigma, times, noise)
    return Trajectory(np.concatenate([[0.0], times, [duration]]),
                      np.concatenate([[(0.0, 0.0)], pts, [end]]))


class TestExtractTriples:
    @pytest.mark.parametrize("n_points,n_triples", [(3, 1), (4, 1), (5, 2), (7, 3), (8, 3)])
    def test_counts(self, n_points, n_triples):
        traj = from_rows([(t, t * 1.0, 0.0) for t in range(n_points)])
        assert len(extract_triples(traj)) == n_triples

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            extract_triples(from_rows([(0, 0, 0), (1, 1, 1)]))

    def test_anchors_are_every_other_point(self):
        traj = from_rows([(t, float(t), 0.0) for t in range(7)])
        triples = extract_triples(traj)
        assert [(tr.left.t, tr.mid.t, tr.right.t) for tr in triples] == [
            (0, 1, 2), (2, 3, 4), (4, 5, 6),
        ]

    def test_degenerate_variance_weight_skipped(self):
        traj = from_rows([(0, 0, 0), (1e-13, 1, 1), (1, 2, 2)])
        assert extract_triples(traj) == []

    def test_derived_quantities(self):
        tr = triple([(0, 0, 0), (2, 1, 1), (4, 0, 0)])
        assert tr.duration == 4.0
        assert tr.mid_offset == 2.0
        assert tr.variance_weight == 1.0
        assert tr.deviation == pytest.approx(math.sqrt(2.0))
        assert np.array_equal(tr.displacement, [0.0, 0.0])


class TestLogLikelihood:
    def test_hand_computed_value(self):
        # one triple with unit variance weight and deviation sqrt(2) at
        # sigma_m = 1: -log(2 pi) - 0 - 1
        tr = triple([(0, 0, 0), (2, 1, 1), (4, 0, 0)])
        assert log_likelihood(1.0, [tr]) == pytest.approx(
            -math.log(2 * math.pi) - 1.0
        )
        assert log_likelihood(1.0, [tr]) == pytest.approx(-2.837877066, abs=1e-8)

    def test_collinear_midpoint_grows_without_bound(self):
        tr = triple([(0, 0, 0), (1, 1, 0), (2, 2, 0)])  # deviation 0
        values = [log_likelihood(s, [tr]) for s in [1.0, 0.1, 0.01, 0.001]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_maximised_at_closed_form(self):
        rng = make_rng(42)
        for _ in range(25):
            triples = extract_triples(random_trajectory(rng))
            sigma_hat = closed_form_sigma(triples)
            at_max = log_likelihood(sigma_hat, triples)
            assert at_max >= log_likelihood(0.5 * sigma_hat, triples)
            assert at_max >= log_likelihood(2.0 * sigma_hat, triples)

    def test_domain(self):
        tr = triple([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
        with pytest.raises(DomainError):
            log_likelihood(0.0, [tr])
        with pytest.raises(DomainError):
            log_likelihood(-1.0, [tr])
        with pytest.raises(TooFewPointsError):
            log_likelihood(1.0, [])


class TestClosedFormSigma:
    def test_single_triple(self):
        # deviation 2, variance weight 1 gives sigma = sqrt(4 / 2)
        tr = triple([(0, 0, 0), (2, 2, 0), (4, 0, 0)])
        assert tr.deviation == pytest.approx(2.0)
        assert closed_form_sigma([tr]) == pytest.approx(math.sqrt(2.0))

    def test_spatial_scaling(self):
        rng = make_rng(3)
        traj = random_trajectory(rng, n_points=15)
        base = closed_form_sigma(extract_triples(traj))
        for c in [0.5, 10.0]:
            scaled = Trajectory(traj.times, c * traj.coords)
            assert closed_form_sigma(extract_triples(scaled)) == pytest.approx(
                c * base, rel=1e-12
            )

    def test_degenerate(self):
        tr = triple([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
        with pytest.raises(DegenerateDataError):
            closed_form_sigma([tr, tr])


class TestEstimateSigma:
    def test_matches_closed_form(self):
        rng = make_rng(7)
        for _ in range(200):
            traj = random_trajectory(rng)
            est = estimate_sigma(traj)
            oracle = closed_form_sigma(extract_triples(traj))
            assert abs(est.sigma_m - oracle) / oracle < 1e-12
            assert not est.clamped
            assert est.n_triples == len(extract_triples(traj))

    def test_counts_skipped_triples(self):
        # The first midpoint sits 1e-13 after its left anchor, so its
        # variance weight is below VARIANCE_WEIGHT_FLOOR.
        traj = from_rows(
            [(0, 0, 0), (1e-13, 1, 1), (1, 2, 2), (2, 3, 1), (3, 5, 5)])
        est = estimate_sigma(traj)
        assert (est.n_triples, est.n_skipped) == (1, 1)
        assert est.sigma_m == pytest.approx(
            closed_form_sigma(extract_triples(traj)), rel=1e-12)
        assert estimate_sigma(random_trajectory(make_rng(3))).n_skipped == 0

    def test_loglik_field_consistent(self):
        traj = random_trajectory(make_rng(11), n_points=21)
        est = estimate_sigma(traj)
        assert est.log_likelihood_at_max == pytest.approx(
            log_likelihood(est.sigma_m, extract_triples(traj)), rel=1e-9
        )

    def test_collinear_clamps_to_lower_bound(self):
        traj = from_rows([(t, 2.0 * t, t) for t in range(9)])
        est = estimate_sigma(traj)
        assert est.clamped
        assert est.sigma_m == SIGMA_FLOOR
        assert math.isfinite(est.log_likelihood_at_max)

    def test_translation_and_rotation_invariance(self):
        traj = random_trajectory(make_rng(21), n_points=25)
        base = estimate_sigma(traj).sigma_m
        shifted = Trajectory(traj.times, traj.coords + [123.0, -456.0])
        assert estimate_sigma(shifted).sigma_m == pytest.approx(base, rel=1e-12)
        phi = 0.7
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        rotated = Trajectory(traj.times, traj.coords @ rot.T)
        assert estimate_sigma(rotated).sigma_m == pytest.approx(base, rel=1e-12)

    def test_time_rescaling(self):
        traj = random_trajectory(make_rng(13), n_points=25)
        base = estimate_sigma(traj).sigma_m
        for c in [4.0, 0.25]:
            stretched = Trajectory(c * traj.times, traj.coords)
            assert estimate_sigma(stretched).sigma_m == pytest.approx(
                base / math.sqrt(c), rel=1e-12
            )

    def test_recovers_generating_coefficient(self):
        # 201-point bridge data with sigma_m = 1: the estimate should land
        # within ordinary statistical scatter of the truth.
        estimates = [
            estimate_sigma(bridge_trajectory(1.0, 200.0, (5, 5), seed, 199)).sigma_m
            for seed in range(20)
        ]
        assert 0.9 < np.mean(estimates) < 1.1
        assert all(0.8 < s < 1.2 for s in estimates)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            estimate_sigma(from_rows([(0, 0, 0), (1, 1, 1)]))

    def test_only_triple_degenerate(self):
        # the midpoint sits 1e-13 after its left anchor, so the one triple
        # has a variance weight below VARIANCE_WEIGHT_FLOOR
        traj = from_rows([(0, 0, 0), (1e-13, 1, 1), (1, 2, 2)])
        with pytest.raises(TooFewPointsError, match="no usable triple"):
            estimate_sigma(traj)

    def test_large_steps_not_clamped(self):
        # the estimate has no upper bound: it keeps the units of the data
        traj = large_step_walk()
        est = estimate_sigma(traj)
        oracle = closed_form_sigma(extract_triples(traj))
        assert oracle == pytest.approx(1.0018e5, rel=1e-3)
        assert est.sigma_m == pytest.approx(oracle, rel=1e-12)
        assert not est.clamped


class TestEstimateSigmas:
    @pytest.mark.parametrize("n", [5, 6, 101, 500])
    def test_rows_equal_single_estimates(self, n):
        # Uneven times with one near-degenerate triple, paths from 1e-9 to
        # 1e4 in scale, one on its chords (clamped to the floor).
        rng = np.random.default_rng(n)
        times = np.cumsum(rng.uniform(0.5, 2.0, n))
        times[1] = times[0] + 1e-13
        scales = np.logspace(-9, 4, 40)[:, None, None]
        coords = scales * rng.standard_normal((40, n, 2)).cumsum(axis=1)
        coords[0] = np.column_stack([times, times])
        got = estimate_sigmas(times, coords)
        for row, sigma in zip(coords, got):
            assert sigma == estimate_sigma(Trajectory(times, row)).sigma_m
        assert got[0] == SIGMA_FLOOR

    def test_no_usable_triple(self):
        with pytest.raises(TooFewPointsError):
            estimate_sigmas(np.arange(2.0), np.zeros((3, 2, 2)))
