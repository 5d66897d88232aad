"""Trajectory data model: time-stamped 2-D positions as arrays, gap excision
and splicing, CSV IO.

A trajectory is an ordered sequence of (t, x, y) samples with strictly
increasing, finite timestamps. A gapped trajectory is the observed
trajectory plus the index ``split`` at which one missing time window sits:
the window lies between the observed points ``split - 1`` and ``split``,
and a fill is inserted there. All values are immutable after construction
(backing arrays are marked read-only), so they can be shared freely across
threads.

CSV schema: header ``t,x,y`` for plain trajectories, ``t,x,y,source`` for
filled ones (``source`` in {observed, bridge, linear}). Floats are written
with ``repr``, which round-trips doubles exactly.

CSV dialect: comma-separated rows ending in CRLF, no quoting and no comment
lines. The reader accepts any line ending, skips empty lines and parses the
rows with ``np.loadtxt``, which also sets the accepted number syntax.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CsvFormatError,
    NonFiniteError,
    NonMonotonicTimeError,
    OutOfRangeError,
    TimeMismatchError,
)

SOURCE_OBSERVED = "observed"


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
        if not (times[1:] > times[:-1]).all():
            raise NonMonotonicTimeError("timestamps must be strictly increasing")
        if self.sources is not None:
            sources = tuple(self.sources)
            object.__setattr__(self, "sources", sources)
            if len(sources) != len(times):
                raise ValueError("one source label per point required")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class GappedTrajectory:
    """Observed points around one missing time window.

    The gap sits between observed point ``split - 1``, its left anchor, and
    observed point ``split``, its right anchor, so ``1 <= split <
    len(observed)``, otherwise OutOfRangeError. The time span and the chord
    between the anchors must be finite doubles, otherwise NonFiniteError.
    ``missing_times`` lists the timestamps to reconstruct, strictly between
    the anchors.
    """

    observed: Trajectory
    split: int
    missing_times: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.split < len(self.observed):
            raise OutOfRangeError(
                f"split must lie in [1, {len(self.observed)}), got {self.split}"
            )
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.duration) and np.isfinite(self.chord).all()
        if not finite:
            raise NonFiniteError("the time span and chord of a gap must be finite")
        missing = _freeze(np.atleast_1d(self.missing_times))
        object.__setattr__(self, "missing_times", missing)
        if len(missing) > 0:
            t_left, t_right = self.observed.times[self.split - 1:self.split + 1]
            if not (missing[1:] > missing[:-1]).all():
                raise NonMonotonicTimeError("missing times must be strictly increasing")
            if not (missing[0] > t_left and missing[-1] < t_right):
                raise NonMonotonicTimeError(
                    "missing times must lie strictly between the anchors"
                )

    @property
    def duration(self) -> float:
        """Time between the anchors."""
        times = self.observed.times
        return float(times[self.split] - times[self.split - 1])

    @property
    def chord(self) -> np.ndarray:
        """Displacement vector from left anchor to right anchor."""
        coords = self.observed.coords
        return coords[self.split] - coords[self.split - 1]

    @property
    def n_missing(self) -> int:
        return len(self.missing_times)


def excise_gap(traj: Trajectory, from_index: int, count: int) -> GappedTrajectory:
    """Remove ``count`` consecutive points starting at ``from_index``.

    Both anchors must survive: ``1 <= from_index`` and
    ``from_index + count <= len(traj) - 1``, otherwise OutOfRangeError.
    The observed points keep their source labels, if ``traj`` has them.
    """
    n = len(traj)
    if count < 0:
        raise OutOfRangeError(f"count must be >= 0, got {count}")
    if from_index < 1 or from_index + count > n - 1:
        raise OutOfRangeError(
            f"removing [{from_index}, {from_index + count}) of {n} points "
            "would delete an anchor"
        )
    gap = slice(from_index, from_index + count)
    sources = traj.sources
    if sources is not None:
        sources = sources[:gap.start] + sources[gap.stop:]
    observed = Trajectory(np.delete(traj.times, gap), np.delete(traj.coords, gap, axis=0),
                          sources)
    return GappedTrajectory(observed, from_index, traj.times[gap])


def splice_fill(
    gapped: GappedTrajectory,
    coords: np.ndarray,
    source: str = "fill",
) -> Trajectory:
    """Insert fill positions into the observed points at ``gapped.split``,
    as one labelled trajectory.

    ``coords`` holds one (x, y) row per missing time, shape
    ``(gapped.n_missing, 2)``, otherwise TimeMismatchError; the fill takes
    its timestamps from ``missing_times``. Observed points keep their own
    labels, or are labelled "observed" if they have none, and fill points
    are labelled with ``source``.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (gapped.n_missing, 2):
        raise TimeMismatchError(
            f"fill has shape {coords.shape}, the gap needs "
            f"({gapped.n_missing}, 2)"
        )
    observed, split = gapped.observed, gapped.split
    labels = observed.sources
    if labels is None:
        labels = (SOURCE_OBSERVED,) * len(observed)
    sources = labels[:split] + (source,) * gapped.n_missing + labels[split:]
    return Trajectory(np.insert(observed.times, split, gapped.missing_times),
                      np.insert(observed.coords, split, coords, axis=0), sources)


# Rows formatted per ``writelines`` call: enough to amortise the call, few
# enough that the formatted text stays small next to the trajectory itself.
_WRITE_CHUNK = 4096
# The dialect has no quoting, so a label may not hold a field or row separator.
_SEPARATORS = (",", "\r", "\n")


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Write ``t,x,y`` CSV (plus ``source`` column when labels are present).

    Raises CsvFormatError for a source label holding a comma or line break.
    """
    labels = traj.sources
    if labels is not None:
        bad = sorted(s for s in set(labels) if any(c in s for c in _SEPARATORS))
        if bad:
            raise CsvFormatError(f"source labels {bad} hold a CSV separator")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,x,y\r\n" if labels is None else "t,x,y,source\r\n")
        for start in range(0, len(traj), _WRITE_CHUNK):
            stop = start + _WRITE_CHUNK
            rows = np.column_stack(
                [traj.times[start:stop], traj.coords[start:stop]]).tolist()
            if labels is None:
                fh.writelines(f"{t!r},{x!r},{y!r}\r\n" for t, x, y in rows)
            else:
                fh.writelines(f"{t!r},{x!r},{y!r},{s}\r\n"
                              for (t, x, y), s in zip(rows, labels[start:stop]))


def _bad_row(path: str | Path, n_fields: int) -> str | None:
    """``"line: reason"`` for the first data row of ``path`` that is not
    ``n_fields`` fields with three numbers first, or None if there is none."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 or line == "\n":
                continue
            fields = line.rstrip("\n").split(",")
            if len(fields) != n_fields:
                return f"{lineno}: expected {n_fields} fields"
            try:
                for f in fields[:3]:
                    float(f)
            except ValueError as exc:
                return f"{lineno}: {exc}"
    return None


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory CSV written by :func:`write_trajectory_csv`.

    Raises CsvFormatError on a bad header or row, naming the row's file
    line, or on bytes that do not decode as text, and NonFiniteError on NaN
    or infinite values.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise CsvFormatError(f"{path}: empty file")
            header = [h.strip() for h in header.rstrip("\n").split(",")]
            if header == ["t", "x", "y"]:
                with_source = False
            elif header == ["t", "x", "y", "source"]:
                with_source = True
            else:
                raise CsvFormatError(
                    f"{path}: expected header 't,x,y' or 't,x,y,source', got {header}"
                )
            dtype = [("t", float), ("x", float), ("y", float)]
            if with_source:
                dtype.append(("source", object))
            try:
                with warnings.catch_warnings():
                    # a header-only file is reported below as "no data rows"
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data", UserWarning)
                    rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                                      ndmin=1)
            except ValueError as exc:
                where = _bad_row(path, len(header))
                raise CsvFormatError(
                    f"{path}:{where}" if where else f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not readable as text: {exc}") from None
    if len(rows) == 0:
        raise CsvFormatError(f"{path}: no data rows")
    times = rows["t"]
    coords = np.column_stack([rows["x"], rows["y"]])
    if not (np.isfinite(times).all() and np.isfinite(coords).all()):
        raise NonFiniteError(f"{path}: non-finite values")
    return Trajectory(
        times, coords, tuple(rows["source"]) if with_source else None
    )
