import math

import numpy as np
import pytest

from bridgefill.metrics import path_lengths, radii_of_gyration


def _loop_metrics(points):
    """Path length and radius of gyration of one path, point by point."""
    length = math.fsum(math.hypot(x1 - x0, y1 - y0)
                       for (x0, y0), (x1, y1) in zip(points, points[1:]))
    cx = math.fsum(x for x, _ in points) / len(points)
    cy = math.fsum(y for _, y in points) / len(points)
    rog = math.sqrt(math.fsum((x - cx) ** 2 + (y - cy) ** 2 for x, y in points)
                    / len(points))
    return length, rog


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_batched_metrics_equal_single_paths(n):
    coords = 1e3 * np.random.default_rng(n).standard_normal((9, n, 2)).cumsum(axis=1)
    lengths, rogs = path_lengths(coords), radii_of_gyration(coords)
    assert lengths.shape == rogs.shape == (9,)
    for row, length, rog in zip(coords, lengths, rogs):
        # a row of the stack is that row computed alone, bit for bit
        assert length == path_lengths(row)
        assert rog == radii_of_gyration(row)
        want_length, want_rog = _loop_metrics(row.tolist())
        assert length == pytest.approx(want_length, rel=1e-12, abs=0.0)
        assert rog == pytest.approx(want_rog, rel=1e-12, abs=0.0)
