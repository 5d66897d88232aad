"""Path length and radius of gyration of one path, ``coords`` (n, 2), or
of a stack of paths, (..., n, 2), at once; for a trajectory pass
``traj.coords``. ``spliced_radii_of_gyration`` scores fills spliced into
observed points without building the spliced paths: ``fill``'s Monte-Carlo
estimate, its ``rog_filled`` and the ``rog`` experiment all call it.

Inputs stay (..., n, 2), but the functions compute on the x and y planes,
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


def spliced_radii_of_gyration(observed: np.ndarray, fills: np.ndarray) -> np.ndarray:
    """Radius of gyration of the observed points ``observed`` (..., n, 2)
    with the fill ``fills`` (..., k, 2) spliced in, one value per path of
    the broadcast leading shape. Where the fill sits among the observed
    points does not matter, so no spliced path is built.

    Every point is taken relative to the observed centroid ``c``, which keeps
    the sums small at large coordinates. The observed points enter through
    ``S2 = sum |o - c|^2`` and ``S1 = sum (o - c)``, computed once per
    observed path; each fill's ``N = n + k`` points then have
    ``RoG^2 = (S2 + sum |f - c|^2) / N - |(S1 + sum (f - c)) / N|^2``, so
    m fills of one observed path cost O(n + m k), not O(m (n + k)).

    Overwrites ``fills``: callers pass an array they do not read again.
    """
    n, k = observed.shape[-2], fills.shape[-2]
    centred = np.empty_like(observed)
    with np.errstate(over="ignore", invalid="ignore"):
        # A cumulative sum's last entry sums the points in numpy's sequential
        # order; centring runs per coordinate plane.
        for i in range(2):
            centre = np.cumsum(observed[..., i], axis=-1)[..., -1:] / n
            np.subtract(observed[..., i], centre, out=centred[..., i])
            fills[..., i] -= centre
        sum_sq = (centred ** 2).sum(axis=(-2, -1)) + (fills ** 2).sum(axis=(-2, -1))
        # In place: neither array is read again.
        np.cumsum(centred, axis=-2, out=centred)
        np.cumsum(fills, axis=-2, out=fills)
        offset = (centred[..., -1, :] + (fills[..., -1, :] if k else 0.0)) / (n + k)
        return np.sqrt(sum_sq / (n + k) - (offset[..., 0] ** 2 + offset[..., 1] ** 2))
