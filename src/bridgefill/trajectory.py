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
filled ones (``source`` in {observed, bridge, linear}).

CSV dialect: comma-separated rows ending in CRLF, no quoting and no comment
lines. The reader accepts any line ending, an optional UTF-8 byte-order
mark and empty lines, which it skips, and parses the rows with
``np.loadtxt``, which also sets the accepted number syntax. Floats the
package computes are written with ``repr``, which round-trips doubles
exactly. The CLI's ``fill`` and ``gap`` copy each observed row's text from
their input instead, ending it in CRLF, so a row keeps its own spelling of
its numbers. They copy blocks of whole lines, each ended on a line break,
and only ``\\n`` (after newline translation) splits a block into rows.
"""

from __future__ import annotations

import contextlib
import os
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BridgefillError,
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


# Rows formatted per ``write`` call. A chunk is held as per-column lists and
# one joined string, so its memory grows with the chunk: on 1e5 labelled rows,
# as ``simulate`` may write, the writer's tracemalloc peak is 0.28 MB at 1024
# rows against 1.08 MB at 4096, at the same speed, as the per-call cost is
# spread thin either way.
_WRITE_CHUNK = 1024
# Characters per block of :func:`_copy_rows`, which reads on from each to the
# next line break. On the 1e5-row benchmark input 8 K blocks copy in 23 ms at a
# tracemalloc peak of 0.30 MB (line by line: 39 ms, 0.28 MB). 64 K blocks copy
# in 19 ms but leave the malloc heap more fragmented, which raised the
# benchmark's peak RSS by up to 3.4 MB against 1.6 MB (ROADMAP, Dead ends).
_COPY_BLOCK = 8192
# The dialect has no quoting, so a label may not hold a field or row separator.
_SEPARATORS = (",", "\r", "\n")


def _write_rows(fh, times: np.ndarray, coords: np.ndarray,
                labels: tuple[str, ...] | None) -> None:
    """Write one CRLF-ended row per point to the text file ``fh``, floats by
    ``repr`` and a ``source`` field when ``labels`` is not None."""
    for start in range(0, len(times), _WRITE_CHUNK):
        stop = start + _WRITE_CHUNK
        columns = [map(repr, times[start:stop].tolist()),
                   map(repr, coords[start:stop, 0].tolist()),
                   map(repr, coords[start:stop, 1].tolist())]
        if labels is not None:
            columns.append(labels[start:stop])
        fh.write("\r\n".join(map(",".join, zip(*columns))))
        # a separate write, so the chunk's text is not copied to end it
        fh.write("\r\n")


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> None:
    """Write ``t,x,y`` CSV (plus ``source`` column when labels are present),
    every float by ``repr``, so that it reads back bit for bit.

    The CLI's ``simulate`` writes through this. ``fill`` and ``gap`` copy the
    rows they keep from their input and format only the fill rows as this
    does (see :func:`_copy_rows`).

    Raises CsvFormatError for a source label holding a comma or line break.
    """
    labels = traj.sources
    if labels is not None:
        bad = sorted(s for s in set(labels) if any(c in s for c in _SEPARATORS))
        if bad:
            raise CsvFormatError(f"source labels {bad} hold a CSV separator")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,x,y\r\n" if labels is None else "t,x,y,source\r\n")
        _write_rows(fh, traj.times, traj.coords, labels)


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
            for f in fields[:3]:
                # np.loadtxt strips Unicode white space, then parses what
                # Python's float does, less underscores and non-ASCII digits.
                number = f.strip()
                try:
                    if "_" in number or not number.isascii():
                        raise ValueError
                    float(number)
                except ValueError:
                    return f"{lineno}: could not convert string to float: {f!r}"
    return None


def read_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory CSV written by :func:`write_trajectory_csv`.

    Every data error names the file: CsvFormatError on a bad header or row,
    naming the row's file line, or on bytes that do not decode as text;
    NonFiniteError on NaN or infinite values; NonMonotonicTimeError on
    timestamps that do not strictly increase.
    """
    try:
        # The codec drops a leading byte-order mark, as spreadsheet
        # "CSV UTF-8" exports write.
        with open(path, encoding="utf-8-sig") as fh:
            header = fh.readline()
            if not header:
                raise CsvFormatError(f"{path}: empty file")
            header = [h.strip() for h in header.rstrip("\n").split(",")]
            if header not in (["t", "x", "y"], ["t", "x", "y", "source"]):
                raise CsvFormatError(
                    f"{path}: expected header 't,x,y' or 't,x,y,source', got {header}"
                )
            with_source = len(header) == 4
            dtype = [(name, object if name == "source" else float) for name in header]
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
    try:
        return Trajectory(rows["t"], np.column_stack([rows["x"], rows["y"]]),
                          tuple(rows["source"]) if with_source else None)
    except BridgefillError as exc:
        raise type(exc)(f"{path}: {exc}") from None


@contextlib.contextmanager
def _replacing(path: str | Path):
    """Open ``path`` to write CSV text through a temporary file beside it,
    which replaces ``path`` only when the block exits without an exception.

    A symbolic link is followed: its target is replaced. A ``path`` that
    exists but is not a regular file, such as ``/dev/null``, is opened and
    written directly.
    """
    try:
        direct = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        direct = False
    if direct:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    # "x" creates the file with the mode "w" gives, and never takes over a
    # file this call did not make.
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _copy_rows(
    src: str | Path,
    src_stat: os.stat_result,
    traj: Trajectory,
    gapped: GappedTrajectory,
    out: str | Path,
    fill: tuple[np.ndarray, str] | None = None,
) -> None:
    """Write the data rows of the trajectory CSV ``src``, read into ``traj``,
    to ``out`` without the rows that ``gapped`` removed from ``traj``, with
    the ``(coords, label)`` rows of ``fill``, if given, at ``gapped.split``
    and the times ``gapped.missing_times``. ``gapped`` comes from
    :func:`excise_gap` on ``traj``, or has ``traj`` as its observed points.

    Kept rows are copied as text, a block at a time. A block is
    :data:`_COPY_BLOCK` characters and the rest of the line that the last of
    them is in, so it ends on a line break. The file is read with universal
    newlines, and only ``\\n`` splits a block into rows, as it splits the
    lines of the file: not ``\\x0c``, ``\\u2028`` or the other breaks of
    ``str.splitlines``. Only the line ending changes, to CRLF, and the empty
    lines that :func:`read_trajectory_csv` skips are dropped. The fill rows
    are formatted as :func:`write_trajectory_csv` formats them. With
    ``fill``, the output has a ``source`` column, and copied rows without
    one are labelled "observed".

    ``src`` must be the file that was read into ``traj`` when ``src_stat``
    was taken: if its size or modification time differ, or its rows do not
    add up to ``len(traj)``, this raises BridgefillError. ``out`` is replaced
    only on success (see :func:`_replacing`), so it may be ``src``, and a
    failure leaves it as it was.
    """
    def changed(fh) -> bool:
        now = os.fstat(fh.fileno())
        return ((now.st_size, now.st_mtime_ns)
                != (src_stat.st_size, src_stat.st_mtime_ns))

    gap = range(gapped.split, gapped.split + len(traj) - len(gapped.observed))
    with _replacing(out) as fout, open(src, encoding="utf-8-sig") as fin:
        if changed(fin):
            raise BridgefillError(f"{src}: changed since it was read")
        labelled = fin.readline().count(",") == 3
        label = fill is not None and not labelled
        fout.write("t,x,y,source\r\n" if labelled or label else "t,x,y\r\n")
        end = f",{SOURCE_OBSERVED}\r\n" if label else "\r\n"
        n = 0  # rows before the block
        while block := fin.read(_COPY_BLOCK) + fin.readline():
            rows = list(filter(None, block.split("\n")))
            # the block holds rows n to n + len(rows): cut the gap out by offset
            before, after = rows[:max(gap.start - n, 0)], rows[max(gap.stop - n, 0):]
            if before:
                fout.write(end.join(before) + end)
            if fill is not None and n <= gap.start < n + len(rows):
                coords, source = fill
                _write_rows(fout, gapped.missing_times, coords,
                            (source,) * gapped.n_missing)
            if after:
                fout.write(end.join(after) + end)
            n += len(rows)
        if n != len(traj) or changed(fin):
            raise BridgefillError(f"{src}: changed since it was read")
