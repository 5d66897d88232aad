"""Path length and radius of gyration of one path, ``coords`` (n, 2), or
of a stack of paths, (..., n, 2), at once; for a trajectory pass
``traj.coords``.

Inputs stay (..., n, 2), but both functions compute on the x and y planes,
``coords[..., 0]`` and ``coords[..., 1]``, never looping along the 2-long
axis. A centroid is a cumulative sum's last entry per plane: that keeps the
sequential order of ``coords.mean(axis=-2)`` and so every bit.
"""

from __future__ import annotations

import numpy as np


def path_lengths(coords: np.ndarray) -> np.ndarray:
    """Sum of consecutive Euclidean distances along the point axis of
    ``coords`` (..., n, 2); 0 for a single point."""
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(coords, axis=-2)
        return np.hypot(steps[..., 0], steps[..., 1]).sum(axis=-1)


def radii_of_gyration(coords: np.ndarray) -> np.ndarray:
    """Root-mean-square distance of the points ``coords`` (..., n, 2) from
    their centroid, one value per path. All points weigh equally; with
    unit-spaced timestamps this matches the time-weighted reading."""
    n = coords.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = (z - np.cumsum(z, axis=-1)[..., -1:] / n
                  for z in (coords[..., 0], coords[..., 1]))
        return np.sqrt((dx * dx + dy * dy).mean(axis=-1))

