import math

import numpy as np
import pytest

from bridgefill.gapfill import estimate_gap_rog
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
