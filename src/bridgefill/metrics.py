"""Path length and radius of gyration, of one trajectory or of a stack of
paths at once."""

from __future__ import annotations

import numpy as np

from .trajectory import Trajectory


def path_lengths(coords: np.ndarray) -> np.ndarray:
    """Sum of consecutive Euclidean distances along the point axis of
    ``coords`` (..., n, 2); 0 for a single point."""
    steps = np.diff(coords, axis=-2)
    return np.hypot(steps[..., 0], steps[..., 1]).sum(axis=-1)


def radii_of_gyration(coords: np.ndarray) -> np.ndarray:
    """Root-mean-square distance of the points ``coords`` (..., n, 2) from
    their centroid, one value per path."""
    centred = coords - coords.mean(axis=-2, keepdims=True)
    return np.sqrt((centred ** 2).sum(axis=-1).mean(axis=-1))


def path_length(traj: Trajectory) -> float:
    """Sum of consecutive Euclidean distances; 0 for a single point."""
    return float(path_lengths(traj.coords))


def radius_of_gyration(traj: Trajectory) -> float:
    """Root-mean-square distance of all points from their centroid.

    All points weigh equally; with unit-spaced timestamps this matches the
    time-weighted reading.
    """
    return float(radii_of_gyration(traj.coords))
