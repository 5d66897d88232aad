import math

import numpy as np
import pytest

from bridgefill.gapfill import fill_gap
from bridgefill.generators import AngularWalk, generate
from bridgefill.metrics import (
    observed_sums,
    path_lengths,
    radii_of_gyration,
    spliced_radii_of_gyration,
)
from bridgefill.trajectory import Trajectory, excise_gap

from .oracles import gap_rogs_interleaved, loop_gap, radii_of_gyration_interleaved


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


def _walks(seed, shape, start):
    """Random walks of shape ``shape`` (..., k, 2) from ``start`` (..., 2)."""
    steps = np.random.default_rng(seed).standard_normal(shape)
    return np.asarray(start)[..., None, :] + steps.cumsum(axis=-2)


@pytest.mark.parametrize("k", [0, 1, 25])
def test_spliced_rogs_equal_interleaved_reference(k):
    # Bit for bit the running sums of the (..., 2) layout, at the fill
    # command's call shape, (n, 2) with (m, k, 2), and at the rog
    # experiment's, (m, n, 2) with (2, m, k, 2), one row at a time.
    observed = _walks(1, (3, 40, 2), [[0.0, 0.0], [1e6, -1e6], [-50.0, 20.0]])
    fills = _walks(2, (2, 3, k, 2), observed[:, -1])
    single = spliced_radii_of_gyration(observed_sums(observed[0]), fills[0].copy())
    assert np.array_equal(single, gap_rogs_interleaved(observed[0], fills[0]))
    batched = spliced_radii_of_gyration(observed_sums(observed), fills.copy())
    assert batched.shape == (2, 3)
    for j, i in np.ndindex(2, 3):
        assert batched[j, i] == gap_rogs_interleaved(observed[i], fills[j, i][None])[0]


@pytest.mark.parametrize("anchors", ["left", "loop"])
def test_spliced_rogs_equal_rogs_of_spliced_paths(anchors):
    # Against each spliced path built in full, 1e7 from the origin, for a
    # gap in the middle filled from its left anchor and for the rog
    # experiment's leading gap closed into a loop. The threshold was fixed
    # before the first run.
    traj = generate(AngularWalk(sigma=0.5), 400, 3)
    traj = Trajectory(traj.times, traj.coords + 1e7)
    gapped = excise_gap(traj, 1, 199) if anchors == "loop" else excise_gap(traj, 150, 100)
    source = loop_gap(gapped) if anchors == "loop" else gapped
    fills = np.stack([fill_gap(source, sigma, seed)
                      for sigma in (0.0, 0.5, 3.0) for seed in range(4)])
    coords, split = gapped.observed.coords, gapped.split
    paths = np.array([np.concatenate([coords[:split], fill, coords[split:]])
                      for fill in fills])
    np.testing.assert_allclose(spliced_radii_of_gyration(observed_sums(coords), fills),
                               radii_of_gyration(paths), rtol=1e-13, atol=0.0)
