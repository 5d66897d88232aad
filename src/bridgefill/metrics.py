"""Path length and radius of gyration of one path, ``coords`` (n, 2), or
of a stack of paths, (..., n, 2), at once; for a trajectory pass
``traj.coords``."""

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
    with np.errstate(over="ignore", invalid="ignore"):
        centred = coords - coords.mean(axis=-2, keepdims=True)
        return np.sqrt((centred ** 2).sum(axis=-1).mean(axis=-1))

