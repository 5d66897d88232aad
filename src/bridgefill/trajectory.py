"""Trajectory data model: timed 2-D points, gap excision and splicing, CSV IO.

A trajectory is an ordered sequence of (t, x, y) samples with strictly
increasing, finite timestamps. A gapped trajectory is the pair of observed
sub-trajectories around one missing time window. All values are immutable
after construction (backing arrays are marked read-only), so they can be
shared freely across threads.

CSV schema: header ``t,x,y`` for plain trajectories, ``t,x,y,source`` for
filled ones (``source`` in {observed, bridge, linear}). Floats are written
with ``repr``, which round-trips doubles exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    CsvFormatError,
    NonFiniteError,
    NonMonotonicTimeError,
    OutOfRangeError,
    TimeMismatchError,
)

SOURCE_OBSERVED = "observed"


class TimedPoint(NamedTuple):
    """A single time-stamped position."""

    t: float
    x: float
    y: float


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Trajectory:
    """Ordered, validated sequence of timed 2-D positions.

    Parameters
    ----------
    times : array, shape (n,)
        Strictly increasing, finite timestamps.
    coords : array, shape (n, 2)
        Finite positions, one row per timestamp.
    sources : tuple of str, optional
        Per-point provenance labels (e.g. "observed", "bridge", "linear").
    """

    times: np.ndarray
    coords: np.ndarray
    sources: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        times = _freeze(np.atleast_1d(self.times))
        coords = _freeze(np.atleast_2d(self.coords))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coords", coords)
        if times.ndim != 1 or coords.shape != (times.shape[0], 2):
            raise ValueError(
                f"shape mismatch: times {times.shape}, coords {coords.shape}"
            )
        if len(times) < 1:
            raise ValueError("a trajectory needs at least one point")
        if not np.isfinite(times).all() or not np.isfinite(coords).all():
            raise NonFiniteError("timestamps and coordinates must be finite")
        if len(times) > 1 and not (np.diff(times) > 0).all():
            raise NonMonotonicTimeError("timestamps must be strictly increasing")
        if self.sources is not None:
            sources = tuple(self.sources)
            object.__setattr__(self, "sources", sources)
            if len(sources) != len(times):
                raise ValueError("one source label per point required")

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[TimedPoint]:
        for i in range(len(self)):
            yield self.point(i)

    def point(self, i: int) -> TimedPoint:
        return TimedPoint(float(self.times[i]), *map(float, self.coords[i]))

    def segment(self, start: int, stop: int) -> "Trajectory":
        """Sub-trajectory over point indices [start, stop)."""
        sources = self.sources[start:stop] if self.sources is not None else None
        return Trajectory(self.times[start:stop], self.coords[start:stop], sources)


def build_trajectory(rows: Iterable[tuple[float, float, float]]) -> Trajectory:
    """Validate (t, x, y) rows into a Trajectory, preserving input order.

    Raises NonMonotonicTimeError if timestamps ever fail to increase and
    NonFiniteError on NaN or infinite values.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("rows must be non-empty")
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError("each row must be (t, x, y)")
    return Trajectory(data[:, 0], data[:, 1:])


@dataclass(frozen=True)
class GappedTrajectory:
    """Observed points around one missing time window.

    ``before`` ends at the gap's left anchor, ``after`` starts at its right
    anchor, and ``missing_times`` lists the timestamps to reconstruct,
    strictly between the anchors.
    """

    before: Trajectory
    after: Trajectory
    missing_times: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        missing = _freeze(np.atleast_1d(self.missing_times))
        object.__setattr__(self, "missing_times", missing)
        t_left = self.before.times[-1]
        t_right = self.after.times[0]
        if not t_left < t_right:
            raise NonMonotonicTimeError("left anchor must precede right anchor")
        if len(missing) > 0:
            if not (np.diff(missing) > 0).all():
                raise NonMonotonicTimeError("missing times must be strictly increasing")
            if not (missing[0] > t_left and missing[-1] < t_right):
                raise NonMonotonicTimeError(
                    "missing times must lie strictly between the anchors"
                )

    @property
    def left_anchor(self) -> TimedPoint:
        return self.before.point(len(self.before) - 1)

    @property
    def right_anchor(self) -> TimedPoint:
        return self.after.point(0)

    @property
    def duration(self) -> float:
        """Time between the anchors."""
        return self.right_anchor.t - self.left_anchor.t

    @property
    def chord(self) -> np.ndarray:
        """Displacement vector from left anchor to right anchor."""
        return self.after.coords[0] - self.before.coords[-1]

    @property
    def n_missing(self) -> int:
        return len(self.missing_times)

    def observed(self) -> Trajectory:
        """All observed points, both sides of the gap, as one trajectory."""
        return Trajectory(
            np.concatenate([self.before.times, self.after.times]),
            np.concatenate([self.before.coords, self.after.coords]),
        )


def excise_gap(traj: Trajectory, from_index: int, count: int) -> GappedTrajectory:
    """Remove ``count`` consecutive points starting at ``from_index``.

    Both anchors must survive: ``1 <= from_index`` and
    ``from_index + count <= len(traj) - 1``, otherwise OutOfRangeError.
    """
    n = len(traj)
    if count < 0:
        raise OutOfRangeError(f"count must be >= 0, got {count}")
    if from_index < 1 or from_index + count > n - 1:
        raise OutOfRangeError(
            f"removing [{from_index}, {from_index + count}) of {n} points "
            "would delete an anchor"
        )
    return GappedTrajectory(
        before=traj.segment(0, from_index),
        after=traj.segment(from_index + count, n),
        missing_times=traj.times[from_index:from_index + count],
    )


def splice_fill(
    gapped: GappedTrajectory,
    coords: np.ndarray,
    source: str = "fill",
) -> Trajectory:
    """Merge observed points and fill positions into one labelled trajectory.

    ``coords`` holds one (x, y) row per missing time, shape
    ``(gapped.n_missing, 2)``, otherwise TimeMismatchError; the fill takes
    its timestamps from ``missing_times``. Observed points are labelled
    "observed" and fill points with ``source``.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (gapped.n_missing, 2):
        raise TimeMismatchError(
            f"fill has shape {coords.shape}, the gap needs "
            f"({gapped.n_missing}, 2)"
        )
    times = np.concatenate(
        [gapped.before.times, gapped.missing_times, gapped.after.times])
    merged = np.concatenate([gapped.before.coords, coords, gapped.after.coords])
    sources = (
        (SOURCE_OBSERVED,) * len(gapped.before)
        + (source,) * gapped.n_missing
        + (SOURCE_OBSERVED,) * len(gapped.after)
    )
    return Trajectory(times, merged, sources)


def _format(v: float) -> str:
    return repr(float(v))


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Write ``t,x,y`` CSV (plus ``source`` column when labels are present)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if traj.sources is None:
            writer.writerow(["t", "x", "y"])
            for i in range(len(traj)):
                writer.writerow(
                    [_format(traj.times[i]), _format(traj.coords[i, 0]),
                     _format(traj.coords[i, 1])]
                )
        else:
            writer.writerow(["t", "x", "y", "source"])
            for i in range(len(traj)):
                writer.writerow(
                    [_format(traj.times[i]), _format(traj.coords[i, 0]),
                     _format(traj.coords[i, 1]), traj.sources[i]]
                )


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory CSV written by :func:`write_trajectory_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header == ["t", "x", "y"]:
            with_source = False
        elif header == ["t", "x", "y", "source"]:
            with_source = True
        else:
            raise CsvFormatError(
                f"{path}: expected header 't,x,y' or 't,x,y,source', got {header}"
            )
        rows = []
        sources = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            expected = 4 if with_source else 3
            if len(row) != expected:
                raise CsvFormatError(f"{path}:{lineno}: expected {expected} fields")
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise CsvFormatError(f"{path}:{lineno}: {exc}") from None
            if with_source:
                sources.append(row[3])
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{path}: non-finite values")
    return Trajectory(
        data[:, 0], data[:, 1:], tuple(sources) if with_source else None
    )
