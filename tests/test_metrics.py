import numpy as np
import pytest

from bridgefill.errors import TimeMismatchError
from bridgefill.metrics import (
    gap_metrics,
    path_length,
    path_lengths,
    radii_of_gyration,
    radius_of_gyration,
)
from bridgefill.trajectory import Trajectory, excise_gap


def _walk(n=40, seed=2):
    coords = np.cumsum(np.random.default_rng(seed).standard_normal((n, 2)), axis=0)
    return Trajectory(np.arange(float(n)), coords)


class TestGapMetrics:
    def test_fill_equal_to_removed_points_scores_one(self):
        original = _walk()
        gapped = excise_gap(original, 10, 15)
        m = gap_metrics(original, gapped, Trajectory(original.times, original.coords))
        assert m.rog_error == 1.0
        assert m.length_ratio == 1.0
        assert m.rog_before == m.rog_after
        assert m.true_segment_length == path_length(original.segment(9, 26))

    def test_mismatched_times_rejected(self):
        original = _walk()
        gapped = excise_gap(original, 10, 15)
        shifted = Trajectory(original.times + 0.5, original.coords)
        with pytest.raises(TimeMismatchError):
            gap_metrics(original, gapped, shifted)
        with pytest.raises(TimeMismatchError):
            gap_metrics(original, gapped, original.segment(0, 30))

    def test_expected_gap_length_is_used_as_given(self):
        original = _walk()
        gapped = excise_gap(original, 10, 15)
        m = gap_metrics(original, gapped, original, expected_gap_length=3)
        assert m.estimated_length == 3.0
        assert m.length_ratio == 3.0 / m.true_segment_length


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_batched_metrics_equal_single_paths(n):
    coords = 1e3 * np.random.default_rng(n).standard_normal((9, n, 2)).cumsum(axis=1)
    lengths, rogs = path_lengths(coords), radii_of_gyration(coords)
    for row, length, rog in zip(coords, lengths, rogs):
        traj = Trajectory(np.arange(float(n)), row)
        assert length == path_length(traj)
        assert rog == radius_of_gyration(traj)
