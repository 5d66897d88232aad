import numpy as np
import pytest

from bridgefill.metrics import (
    path_length,
    path_lengths,
    radii_of_gyration,
    radius_of_gyration,
)
from bridgefill.trajectory import Trajectory


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_batched_metrics_equal_single_paths(n):
    coords = 1e3 * np.random.default_rng(n).standard_normal((9, n, 2)).cumsum(axis=1)
    lengths, rogs = path_lengths(coords), radii_of_gyration(coords)
    for row, length, rog in zip(coords, lengths, rogs):
        traj = Trajectory(np.arange(float(n)), row)
        assert length == path_length(traj)
        assert rog == radius_of_gyration(traj)
