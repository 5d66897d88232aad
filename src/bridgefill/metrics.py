"""Path length and radius of gyration of one path, ``coords`` (n, 2), or
of a stack of paths, (..., n, 2), at once; for a trajectory pass
``traj.coords``. ``spliced_radii_of_gyration`` scores fills spliced into
observed points without building the spliced paths, against sums that
``observed_sums`` takes once over the observed points: ``fill``'s
Monte-Carlo estimate, a block of fills at a time, its ``rog_filled`` and the
``rog`` experiment, both fill methods against one pass, all call it.

Inputs stay (..., n, 2), but the functions compute on the x and y planes,
``coords[..., 0]`` and ``coords[..., 1]``, never looping along the 2-long
axis. A centroid is a cumulative sum's last entry per plane: that keeps the
sequential order of ``coords.mean(axis=-2)`` and so every bit.
"""

from __future__ import annotations

from typing import NamedTuple

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


class ObservedSums(NamedTuple):
    """The observed points' part of a spliced radius of gyration, from
    :func:`observed_sums`: the centroid ``c`` as its x and y planes, each
    (..., 1), ``S2 = sum |o - c|^2`` (...), ``S1 = sum (o - c)`` (..., 2) and
    the point count ``n``."""

    centre: tuple[np.ndarray, np.ndarray]
    s2: np.ndarray
    s1: np.ndarray
    n: int


def observed_sums(observed: np.ndarray) -> ObservedSums:
    """The sums about their centroid that :func:`spliced_radii_of_gyration`
    scores fills of the observed points ``observed`` (..., n, 2) against, one
    set per observed path. Computed once, they serve every fill of those
    paths."""
    n = observed.shape[-2]
    centred = np.empty_like(observed)
    centre = []
    with np.errstate(over="ignore", invalid="ignore"):
        # A cumulative sum's last entry sums the points in numpy's sequential
        # order; centring runs per coordinate plane.
        for i in range(2):
            centre.append(np.cumsum(observed[..., i], axis=-1)[..., -1:] / n)
            np.subtract(observed[..., i], centre[i], out=centred[..., i])
        s2 = (centred ** 2).sum(axis=(-2, -1))
        # In place, and the last row copied, so ``centred`` is freed on return.
        np.cumsum(centred, axis=-2, out=centred)
    return ObservedSums(tuple(centre), s2, centred[..., -1, :].copy(), n)


def spliced_radii_of_gyration(observed: ObservedSums, fills: np.ndarray) -> np.ndarray:
    """Radius of gyration of the observed points, given by their
    :func:`observed_sums`, with the fill ``fills`` (..., k, 2) spliced in,
    one value per path of the broadcast leading shape. Where the fill sits
    among the observed points does not matter, so no spliced path is built.

    Every point is taken relative to the observed centroid ``c``, which keeps
    the sums small at large coordinates. Each fill's ``N = n + k`` points
    have ``RoG^2 = (S2 + sum |f - c|^2) / N - |(S1 + sum (f - c)) / N|^2``,
    so m fills of one observed path cost O(n + m k), not O(m (n + k)), and
    fills scored a block at a time give the bits of one call over them all.

    Overwrites ``fills``: callers pass an array they do not read again.
    """
    n, k = observed.n, fills.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(2):
            fills[..., i] -= observed.centre[i]
        sum_sq = observed.s2 + (fills ** 2).sum(axis=(-2, -1))
        # In place: callers do not read ``fills`` again.
        np.cumsum(fills, axis=-2, out=fills)
        offset = (observed.s1 + (fills[..., -1, :] if k else 0.0)) / (n + k)
        return np.sqrt(sum_sq / (n + k) - (offset[..., 0] ** 2 + offset[..., 1] ** 2))
