import math

import numpy as np
import pytest

from bridgefill.bridge import BridgeParams, sample_bridge
from bridgefill.errors import DomainError
from bridgefill.gapfill import estimate_gap_rog, fill_gap
from bridgefill.metrics import radius_of_gyration
from bridgefill.trajectory import Trajectory, excise_gap

from .oracles import bridge_paths_sequential


def _gapped(count):
    walk = np.cumsum(np.random.default_rng(4).standard_normal((60, 2)), axis=0)
    traj = Trajectory(np.arange(60.0), walk + (100.0, -50.0))
    return excise_gap(traj, 10, count)


def _spliced_rogs(gapped, sigma, realisations, seed):
    # Redraw the estimator's noise from the same seed, build the fills with
    # the sequential oracle and splice each one in by hand.
    left, right = gapped.left_anchor, gapped.right_anchor
    shifted = gapped.missing_times - left.t
    noise = np.random.default_rng(seed).standard_normal(
        (realisations, len(shifted), 2))
    fills = bridge_paths_sequential((left.x, left.y), (right.x, right.y),
                                    gapped.duration, sigma, shifted, noise)
    times = np.concatenate(
        [gapped.before.times, gapped.missing_times, gapped.after.times])
    return [
        radius_of_gyration(Trajectory(times, np.concatenate(
            [gapped.before.coords, fill, gapped.after.coords])))
        for fill in fills
    ]


class TestEstimateGapRog:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_single_realisation_is_spliced_rog(self, seed):
        gapped = _gapped(25)
        est = estimate_gap_rog(gapped, 1.3, 1, np.random.default_rng(seed))
        [rog] = _spliced_rogs(gapped, 1.3, 1, seed)
        assert est.mean == pytest.approx(rog, rel=1e-12)
        assert est.realisations == 1
        assert math.isnan(est.std_error)

    def test_realisations_match_spliced_rogs(self):
        gapped = _gapped(25)
        est = estimate_gap_rog(gapped, 1.3, 20, np.random.default_rng(9))
        rogs = np.array(_spliced_rogs(gapped, 1.3, 20, 9))
        assert est.mean == pytest.approx(rogs.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(
            rogs.std(ddof=1) / math.sqrt(20), rel=1e-9)

    def test_empty_gap_is_observed_rog(self):
        gapped = _gapped(0)
        rng = np.random.default_rng(5)
        est = estimate_gap_rog(gapped, 1.3, 4, rng)
        assert est.mean == pytest.approx(
            radius_of_gyration(gapped.observed()), rel=1e-12)
        assert est.std_error == 0.0
        # nothing is drawn for an empty gap
        assert rng.random() == np.random.default_rng(5).random()


def _on_line(start, end, gapped):
    frac = (gapped.missing_times - gapped.before.times[-1]) / gapped.duration
    return start + frac[:, None] * (end - start)


class TestFillGap:
    @pytest.mark.parametrize("method", ["bridge", "linear"])
    @pytest.mark.parametrize("anchors", ["gap", "loop"])
    @pytest.mark.parametrize("count", [0, 1, 25])
    def test_shape(self, method, anchors, count):
        fill = fill_gap(_gapped(count), method, 1.3, 0, anchors)
        assert fill.shape == (count, 2)

    def test_linear_gap_lies_on_anchor_chord(self):
        gapped = _gapped(25)
        fill = fill_gap(gapped, "linear", 1.3, 0, "gap")
        expected = _on_line(gapped.before.coords[-1], gapped.after.coords[0], gapped)
        np.testing.assert_allclose(fill, expected, rtol=0, atol=1e-12)

    def test_linear_loop_runs_from_last_point_to_right_anchor(self):
        gapped = _gapped(25)
        fill = fill_gap(gapped, "linear", 1.3, 0, "loop")
        expected = _on_line(gapped.after.coords[-1], gapped.after.coords[0], gapped)
        np.testing.assert_allclose(fill, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("anchors", ["gap", "loop"])
    def test_bridge_is_one_sample_between_the_same_anchors(self, anchors):
        gapped = _gapped(25)
        last = gapped.after if anchors == "loop" else gapped.before
        start = last.coords[-1]
        params = BridgeParams(start, gapped.after.coords[0], gapped.duration, 1.3)
        shifted = gapped.missing_times - gapped.before.times[-1]
        assert np.array_equal(fill_gap(gapped, "bridge", 1.3, 8, anchors),
                              sample_bridge(params, shifted, 8))

    @pytest.mark.parametrize("anchors", ["gap", "loop"])
    def test_zero_sigma_bridge_is_linear(self, anchors):
        gapped = _gapped(25)
        np.testing.assert_allclose(fill_gap(gapped, "bridge", 0.0, 3, anchors),
                                   fill_gap(gapped, "linear", 0.0, 3, anchors),
                                   rtol=0, atol=1e-9)

    @pytest.mark.parametrize("method,anchors", [("spline", "gap"), ("linear", "edge")])
    def test_unknown_method_or_anchors_rejected(self, method, anchors):
        with pytest.raises(DomainError):
            fill_gap(_gapped(5), method, 1.3, 0, anchors)
