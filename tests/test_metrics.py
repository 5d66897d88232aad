import math

import numpy as np
import pytest

from bridgefill.metrics import path_lengths, radii_of_gyration

from .oracles import radii_of_gyration_interleaved


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
    walks = 1e3 * np.random.default_rng(n).standard_normal((9, n, 2)).cumsum(axis=1)
    # a (2, 9, n, 2) stack: the walks as drawn and moved 1e6 from the origin
    coords = np.array([walks, walks + 1e6])
    lengths, rogs = path_lengths(coords), radii_of_gyration(coords)
    assert lengths.shape == rogs.shape == (2, 9)
    for row, length, rog in zip(coords.reshape(-1, n, 2), lengths.ravel(), rogs.ravel()):
        # a row of the stack is that row computed alone, bit for bit
        assert length == path_lengths(row)
        assert rog == radii_of_gyration(row)
        want_length, want_rog = _loop_metrics(row.tolist())
        assert length == pytest.approx(want_length, rel=1e-12, abs=0.0)
        assert rog == pytest.approx(want_rog, rel=1e-12, abs=0.0)
    # the (..., n, 2) layout's formula, bit for bit, at every batch shape,
    # with one path holding inf
    coords[1, 4, n // 2, 1] = math.inf
    for stack in (coords, coords[1], coords[1, 4], coords[0, 0]):
        assert np.array_equal(radii_of_gyration(stack),
                              radii_of_gyration_interleaved(stack), equal_nan=True)
