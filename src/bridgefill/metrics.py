"""Path length, radius of gyration, and gap-reconstruction error ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TimeMismatchError
from .trajectory import GappedTrajectory, Trajectory


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


@dataclass(frozen=True)
class GapMetrics:
    """Per-replicate comparison of a filled gap against the original path.

    Ratios are estimated over true: ``length_ratio`` compares gap-segment
    path lengths, ``rog_error`` compares whole-path radii of gyration.
    """

    true_segment_length: float
    estimated_length: float
    length_ratio: float
    rog_before: float
    rog_after: float
    rog_error: float


def _ratio(estimated: float, true: float) -> float:
    if true == 0.0:
        return 1.0 if estimated == 0.0 else math.inf
    return estimated / true


def _anchor_index(original: Trajectory, t: float) -> int:
    i = int(np.searchsorted(original.times, t))
    if i >= len(original) or original.times[i] != t:
        raise TimeMismatchError(f"anchor time {t!r} not found in the original path")
    return i


def gap_metrics(
    original: Trajectory,
    gapped: GappedTrajectory,
    filled: Trajectory,
    expected_gap_length: float | None = None,
) -> GapMetrics:
    """Compare a filled path against the complete original.

    The true segment length is measured on the original between the two
    anchors (inclusive); the estimated one on the same window of the filled
    path, unless a closed-form ``expected_gap_length`` is supplied.
    """
    if not np.array_equal(filled.times, original.times):
        raise TimeMismatchError("filled path times differ from the original's")
    i_left = _anchor_index(original, gapped.left_anchor.t)
    i_right = _anchor_index(original, gapped.right_anchor.t)
    true_segment = path_length(original.segment(i_left, i_right + 1))
    if expected_gap_length is None:
        estimated = path_length(filled.segment(i_left, i_right + 1))
    else:
        estimated = float(expected_gap_length)
    rog_before = radius_of_gyration(original)
    rog_after = radius_of_gyration(filled)
    return GapMetrics(
        true_segment_length=true_segment,
        estimated_length=estimated,
        length_ratio=_ratio(estimated, true_segment),
        rog_before=rog_before,
        rog_after=rog_after,
        rog_error=_ratio(rog_after, rog_before),
    )
