import csv
import io
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgefill import trajectory
from bridgefill.errors import (
    CsvFormatError,
    NonFiniteError,
    NonMonotonicTimeError,
    OutOfRangeError,
)
from bridgefill.metrics import path_lengths
from bridgefill.trajectory import (
    _WRITE_CHUNK,
    GappedTrajectory,
    Trajectory,
    excise_gap,
    read_trajectory_csv,
    write_trajectory_csv,
)

from .oracles import copy_rows_by_line


def unit_path(n, slope=2.0):
    t = np.arange(float(n))
    return Trajectory(t, np.column_stack([slope * t, -t]))


class TestBuildTrajectory:
    """Building a validated Trajectory from times and coordinates."""

    def test_single_point(self):
        traj = Trajectory([0.0], [[0.0, 0.0]])
        assert len(traj) == 1
        assert traj.times.tolist() == [0.0]
        assert traj.coords.tolist() == [[0.0, 0.0]]

    def test_duplicate_timestamp(self):
        with pytest.raises(NonMonotonicTimeError):
            Trajectory([0, 1, 1], [[0, 0], [1, 0], [2, 0]])

    def test_decreasing_timestamp(self):
        with pytest.raises(NonMonotonicTimeError):
            Trajectory([0, 2, 1], [[0, 0], [1, 0], [2, 0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteError):
            Trajectory([0, 1], [[0, 0], [bad, 0]])
        with pytest.raises(NonFiniteError):
            Trajectory([0], [[0, bad]])
        with pytest.raises(NonFiniteError):
            Trajectory([0, bad], [[0, 0], [1, 0]])

    def test_empty(self):
        with pytest.raises(ValueError):
            Trajectory([], np.empty((0, 2)))

    @pytest.mark.parametrize("coords, sources, message", [
        ([[0, 0]], None, "shape mismatch"),
        ([[0, 0], [1, 1]], ("observed",), "one source label per point"),
    ], ids=["coords-short", "sources-short"])
    def test_lengths_must_agree(self, coords, sources, message):
        with pytest.raises(ValueError, match=message):
            Trajectory([0, 1], coords, sources)

    def test_345_triangle_length(self):
        traj = Trajectory([0, 1], [[0, 0], [3, 4]])
        assert path_lengths(traj.coords) == 5.0

    def test_arrays_are_read_only(self):
        traj = unit_path(4)
        with pytest.raises(ValueError):
            traj.times[0] = 99.0
        with pytest.raises(ValueError):
            traj.coords[0, 0] = 99.0

    def test_order_preserved(self):
        traj = Trajectory([0, 2, 5], [[5, 6], [7, 8], [9, 10]])
        assert traj.times.tolist() == [0, 2, 5]
        assert traj.coords.tolist() == [[5, 6], [7, 8], [9, 10]]


class TestExciseGap:
    def test_middle_hundred_of_two_hundred(self):
        traj = unit_path(200)
        gapped = excise_gap(traj, 50, 100)
        assert len(gapped.observed) == 100
        assert gapped.split == 50
        assert list(gapped.missing_times) == [float(t) for t in range(50, 150)]
        assert gapped.observed.times[49] == 49.0
        assert gapped.observed.times[50] == 150.0
        assert gapped.duration == 101.0
        assert gapped.chord.tolist() == [202.0, -101.0]

    def test_zero_count_is_noop_gap(self):
        traj = unit_path(6)
        gapped = excise_gap(traj, 3, 0)
        assert gapped.n_missing == 0
        merged = gapped.observed
        assert np.array_equal(merged.times, traj.times)
        assert np.array_equal(merged.coords, traj.coords)

    def test_first_half_keeps_left_anchor(self):
        traj = unit_path(1000)
        gapped = excise_gap(traj, 1, 499)
        assert gapped.split == 1
        assert gapped.observed.times[:2].tolist() == [0.0, 500.0]
        assert len(gapped.observed) == 501

    def test_kept_points_keep_their_labels(self):
        traj = unit_path(8)
        labelled = Trajectory(traj.times, traj.coords,
                              ("observed", "bridge", "bridge", "observed",
                               "linear", "observed", "bridge", "observed"))
        assert excise_gap(labelled, 2, 3).observed.sources == (
            "observed", "bridge", "observed", "bridge", "observed")
        assert excise_gap(traj, 2, 3).observed.sources is None

    @pytest.mark.parametrize("from_index,count", [(0, 1), (1, 9), (9, 1), (5, 7)])
    def test_anchor_removal_rejected(self, from_index, count):
        with pytest.raises(OutOfRangeError):
            excise_gap(unit_path(10), from_index, count)

    def test_negative_count_rejected(self):
        with pytest.raises(OutOfRangeError):
            excise_gap(unit_path(10), 2, -1)

    @given(
        n=st.integers(min_value=3, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, n, data):
        # inserting the removed points at ``split`` rebuilds the input
        from_index = data.draw(st.integers(min_value=1, max_value=n - 2))
        count = data.draw(st.integers(min_value=0, max_value=n - 1 - from_index))
        traj = unit_path(n)
        gapped = excise_gap(traj, from_index, count)
        removed = traj.coords[from_index:from_index + count]
        times = np.insert(gapped.observed.times, gapped.split, gapped.missing_times)
        coords = np.insert(gapped.observed.coords, gapped.split, removed, axis=0)
        assert np.array_equal(times, traj.times)
        assert np.array_equal(coords, traj.coords)


class TestGappedTrajectory:
    @pytest.mark.parametrize("split", [0, 2, -1])
    def test_split_must_leave_both_anchors(self, split):
        observed = Trajectory([0.0, 5.0], [[0.0, 0.0], [10.0, 0.0]])
        with pytest.raises(OutOfRangeError, match="split must lie in"):
            GappedTrajectory(observed, split, np.array([1.0]))

    @pytest.mark.parametrize("missing, message", [
        ([2.0, 2.0], "strictly increasing"),
        ([0.0, 2.0], "strictly between the anchors"),
        ([2.0, 5.0], "strictly between the anchors"),
    ], ids=["repeated", "at-left-anchor", "at-right-anchor"])
    def test_missing_times_checked_against_split_anchors(self, missing, message):
        observed = Trajectory([-9.0, 0.0, 5.0, 9.0], np.zeros((4, 2)))
        with pytest.raises(NonMonotonicTimeError, match=message):
            GappedTrajectory(observed, 2, np.array(missing))

    @pytest.mark.parametrize("times, x", [
        ([-1e308, 1e308], [0.0, 1.0]),
        ([0.0, 1.0], [-1e308, 1e308]),
    ], ids=["span", "chord"])
    def test_overflowing_span_or_chord_rejected(self, times, x):
        observed = Trajectory(times, np.column_stack([x, [0.0, 0.0]]))
        with pytest.raises(NonFiniteError, match="must be finite"):
            GappedTrajectory(observed, 1, np.array([]))


class TestCsv:
    def test_round_trip_is_bit_identical(self, tmp_path):
        traj = Trajectory(
            [0.0, 0.1 + 1e-17, 7.25],
            [[0.1, -1.0 / 3.0],
             [math.pi, 2.0 ** -1040],
             [-12345.678901234567, 9.87e210]],
        )
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.coords, traj.coords)

    def test_header_and_source_column(self, tmp_path):
        traj = unit_path(5)
        labelled = Trajectory(traj.times, traj.coords,
                              ("observed", "observed", "bridge", "observed", "observed"))
        path = tmp_path / "filled.csv"
        write_trajectory_csv(path, labelled)
        text = path.read_text().splitlines()
        assert text[0] == "t,x,y,source"
        assert text[3].endswith(",bridge")
        back = read_trajectory_csv(path)
        assert back.sources == labelled.sources

    def test_plain_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, unit_path(3))
        assert path.read_text().splitlines()[0] == "t,x,y"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        for header in ("time,x,y", "x,t,y", "t,x", "t,x,source",
                       "t,x,y,source,extra", "source,t,x,y"):
            path.write_text(f"{header}\n0,0,0\n")
            with pytest.raises(CsvFormatError, match="expected header"):
                read_trajectory_csv(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y\n0,zero,0\n")
        with pytest.raises(CsvFormatError):
            read_trajectory_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y\n")
        with pytest.raises(CsvFormatError):
            read_trajectory_csv(path)

    @given(
        values=st.lists(
            st.floats(
                min_value=-1e15, max_value=1e15,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=2, max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_floats(self, values, tmp_path_factory):
        traj = Trajectory(np.arange(float(len(values))),
                          [(v, -v) for v in values])
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_trajectory_csv(path, traj)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.coords, traj.coords)

    def test_written_bytes_use_crlf_and_repr(self, tmp_path):
        traj = Trajectory([0, 2.5], [[0.1, -1.0 / 3.0], [1e300, -0.0]])
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj)
        assert path.read_bytes() == (
            b"t,x,y\r\n0.0,0.1,-0.3333333333333333\r\n2.5,1e+300,-0.0\r\n")
        write_trajectory_csv(path, Trajectory(traj.times, traj.coords,
                                              ("observed", "bridge")))
        assert path.read_bytes() == (
            b"t,x,y,source\r\n0.0,0.1,-0.3333333333333333,observed\r\n"
            b"2.5,1e+300,-0.0,bridge\r\n")

    @pytest.mark.parametrize("labelled", [False, True])
    def test_long_file_matches_csv_module(self, tmp_path, labelled):
        # 9000 rows cross the writer's chunk boundaries.
        rng = np.random.default_rng(2)
        times = np.cumsum(rng.uniform(0.1, 2.0, 9000))
        coords = rng.standard_normal((9000, 2)) * 10.0 ** rng.integers(-5, 9, (9000, 2))
        sources = tuple(rng.choice(["observed", "bridge"], 9000)) if labelled else None
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, Trajectory(times, coords, sources))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["t", "x", "y", "source"][:4 if labelled else 3])
        for i in range(9000):
            row = [repr(float(v)) for v in (times[i], *coords[i])]
            writer.writerow(row + [sources[i]] if labelled else row)
        assert path.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("n", [1, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1,
                                   2 * _WRITE_CHUNK + 1],
                             ids=["one", "chunk-less-one", "chunk", "chunk-plus-one",
                                  "two-chunks-plus-one"])
    def test_chunk_edges_match_csv_module(self, tmp_path, n, labelled):
        rng = np.random.default_rng(n)
        times = np.cumsum(rng.uniform(0.1, 2.0, n))
        coords = rng.standard_normal((n, 2))
        sources = tuple(rng.choice(["observed", "bridge"], n)) if labelled else None
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, Trajectory(times, coords, sources))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["t", "x", "y", "source"][:4 if labelled else 3])
        for i in range(n):
            row = [repr(float(v)) for v in (times[i], *coords[i])]
            writer.writerow(row + [sources[i]] if labelled else row)
        assert path.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("text,line", [
        ("t,x,y\n0,0,0\n1,1\n", 3),
        ("t,x,y\n0,0,0\n\n\n1,1,1,1\n", 5),
        ("t,x,y,source\n0,0,0,observed\n1,1,1\n", 3),
        ("t,x,y,source\n0,0,0,observed\n\n1,1,1,bridge,x\n", 4),
        ("t,x,y\n0,0,0\n1,zero,1\n", 3),
        ("t,x,y\n0,0,0\n\n1,1,\n", 4),
        ("t,x,y,source\n0,0,0,observed\n\n\n1,1,one,bridge\n", 5),
        # Python's float takes these, np.loadtxt does not.
        ("t,x,y\n0,1_000,0\n1,1,1\n", 2),
        ("t,x,y\n0,\u0661,0\n1,1,1\n", 2),
        ("t,x,y\n0,0,0\n\n1,1_0,1\n", 4),
        # np.loadtxt strips this separator as white space; float does not.
        ("t,x,y\n0,\x1c1,0\n1,zero,1\n", 3),
    ], ids=["short", "long", "source-short", "source-long", "word", "empty-field",
            "source-word", "underscore", "arabic-indic-digit", "underscore-after-blank",
            "unicode-space"])
    def test_bad_row_names_its_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=f"bad.csv:{line}: "):
            read_trajectory_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,x,y\n\n0,1,2\n\n\n3,4,5\n\n")
        traj = read_trajectory_csv(path)
        assert traj.times.tolist() == [0.0, 3.0]
        assert traj.coords.tolist() == [[1.0, 2.0], [4.0, 5.0]]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "t.csv"
        path.write_text(f"t,x,y\n0,0,0\n1,{value},1\n")
        with pytest.raises(NonFiniteError) as info:
            read_trajectory_csv(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_repeated_timestamp_names_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t,x,y\n0,0,0\n1,1,1\n1,2,2\n")
        with pytest.raises(NonMonotonicTimeError) as info:
            read_trajectory_csv(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_unlocated_bad_row_keeps_numpy_reason(self, tmp_path, monkeypatch):
        # When no line can be named, the message is the file and numpy's own.
        monkeypatch.setattr(trajectory, "_bad_row", lambda path, n_fields: None)
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y\n0,zero,0\n")
        with pytest.raises(CsvFormatError) as info:
            read_trajectory_csv(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ")
        assert "could not convert string 'zero' to float" in message

    def test_source_labels_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"t,x,y,source\r\n0.0,0.0,0.0,observed\r\n"
                         b"1.0,0.5,-0.5,bridge\r\n2.0,1.0,1.0,linear\r\n")
        traj = read_trajectory_csv(path)
        assert traj.sources == ("observed", "bridge", "linear")
        assert traj.coords.tolist() == [[0.0, 0.0], [0.5, -0.5], [1.0, 1.0]]
        again = tmp_path / "again.csv"
        write_trajectory_csv(again, traj)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("label", ["a,b", "two\nlines", "cr\r"])
    def test_label_with_separator_rejected(self, tmp_path, label):
        traj = Trajectory([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]], ("observed", label))
        with pytest.raises(CsvFormatError, match="separator"):
            write_trajectory_csv(tmp_path / "t.csv", traj)

    @pytest.mark.parametrize("text", ["t,x,y\r\n", "t,x,y\n\n\n",
                                      "t,x,y,source\n", "\ufefft,x,y\r\n"])
    def test_header_only_rejected_without_warning(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="no data rows"):
                read_trajectory_csv(path)


def _through_pipe(data: bytes) -> Trajectory:
    """``read_trajectory_csv`` of ``data`` from a pipe named ``/dev/fd/N``,
    which cannot be opened again, so the reader parses it line by line."""
    read, write = os.pipe()
    try:
        os.write(write, data)  # every input here fits the pipe's buffer
        os.close(write)
        return read_trajectory_csv(f"/dev/fd/{read}")
    finally:
        os.close(read)


def _walk_csv(n: int) -> bytes:
    """A written ``n``-point walk, CRLF rows of ``repr`` floats."""
    coords = np.cumsum(np.random.default_rng(2).standard_normal((n, 2)), axis=0)
    out = io.StringIO(newline="")
    trajectory._write_rows(out, np.arange(float(n)) / 7.0, coords, None)
    return b"t,x,y\r\n" + out.getvalue().encode()


# Inputs of every kind the reader accepts, each read from a regular file by
# name and from a pipe line by line.
_READ_INPUTS = {
    "plain": _walk_csv(700),
    "lf": _walk_csv(30).replace(b"\r\n", b"\n"),
    "labelled": (b"t,x,y,source\r\n0,0,0,observed\r\n1,0.5,-0.5,bridge\r\n"
                 b"2,1,1,linear\r\n"),
    "cr": b"t,x,y\r0,0.1,-0.5\r1, 2.5 ,1e5\r2,-0.0,4",
    "bom": b"\xef\xbb\xbft,x,y\r\n0,0,0\r\n1,1,1\r\n",
    "blank": b"t,x,y\n\n0,0,0\r\n\r\n1,1e300,1\n\n\n2,2,2\r\r\n",
}
_LINUX = pytest.mark.skipif(not sys.platform.startswith("linux"),
                            reason="names a pipe by /dev/fd/N")


def _assert_same(got: Trajectory, want: Trajectory) -> None:
    assert got.times.tobytes() == want.times.tobytes()
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.sources == want.sources


class TestChunkedRead:
    @_LINUX
    @pytest.mark.parametrize("kind", sorted(_READ_INPUTS))
    def test_pipe_reads_as_regular_file(self, tmp_path, kind):
        path = tmp_path / "in.csv"
        path.write_bytes(_READ_INPUTS[kind])
        _assert_same(_through_pipe(_READ_INPUTS[kind]), read_trajectory_csv(path))

    def test_regular_file_is_named(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(_READ_INPUTS["plain"])
        with open(path) as fh:
            assert trajectory._chunked_name(fh, path) == str(path)

    def test_pipe_is_not_named(self):
        read, write = os.pipe()
        try:
            with open(read, closefd=False) as fh:
                assert trajectory._chunked_name(fh, f"/dev/fd/{read}") is None
        finally:
            os.close(read)
            os.close(write)

    # numpy would fetch the URL, or open the file as compressed
    @pytest.mark.parametrize("name", ["http://host/in.csv", "a/b://c.csv",
                                      "in.csv.gz", "in.csv.bz2", "in.csv.xz",
                                      "in.csv.lzma"])
    def test_names_numpy_would_not_open_plainly_are_not_named(self, tmp_path, name):
        path = tmp_path / "in.csv"
        path.write_bytes(_READ_INPUTS["plain"])
        with open(path) as fh:
            assert trajectory._chunked_name(fh, name) is None

    def test_plain_csv_named_as_compressed_reads(self, tmp_path):
        plain, packed = tmp_path / "in.csv", tmp_path / "in.csv.gz"
        plain.write_bytes(_READ_INPUTS["plain"])
        packed.write_bytes(_READ_INPUTS["plain"])
        _assert_same(read_trajectory_csv(packed), read_trajectory_csv(plain))

    def test_removed_current_directory_reads(self, tmp_path, monkeypatch):
        # numpy's DataSource asks for the current directory, which is gone
        path = tmp_path / "in.csv"
        path.write_bytes(_READ_INPUTS["plain"])
        want = read_trajectory_csv(path)
        gone = tmp_path / "gone"
        gone.mkdir()
        monkeypatch.chdir(gone)
        gone.rmdir()
        with open(path) as fh:
            assert trajectory._chunked_name(fh, path) is None
        _assert_same(read_trajectory_csv(path), want)


# White space that the reader strips from a field. All but the space end a
# line for ``str.splitlines``, but not for a file read as text.
_PADS = " \x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _copy_input_rows(n, labelled=False):
    """``n`` data rows of differing widths and spellings. The times jump by 4
    at row ``n // 2``, so three integer times are missing there."""
    rows = []
    for i in range(n):
        t, pad = i + 3 * (i >= n // 2), _PADS[i % len(_PADS)]
        row = f"{t},{pad * (i % 3)}{i / 8},{-3 * i}e-1{pad * (i % 2)}"
        rows.append(row + (",bridge" if i % 2 else ",observed") if labelled else row)
    return rows


def _lines(lines, *endings):
    """``lines`` joined into text, each ended by the next of ``endings`` in turn."""
    return "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))


def _copy_inputs(n):
    rows = _copy_input_rows(n)
    lf = _lines(["t,x,y", *rows], "\n")
    blanks = ["t,x,y", ""]
    for i, row in enumerate(rows):
        blanks += [row, *[""] * ((i % 3 + 1) * (i % 4 == 0))]
    return {
        "lf": lf,
        "cr": _lines(["t,x,y", *rows], "\r"),
        "crlf": _lines(["t,x,y", *rows], "\r\n"),
        "blank-lines": _lines([*blanks, "", ""], "\n", "\r\n", "\r"),
        "bom": "\ufeff" + lf,
        "no-final-break": lf[:-1],
        "labelled": _lines(["t,x,y,source", *_copy_input_rows(n, labelled=True)], "\r\n"),
    }


# Row counts of the inputs: the default block must hold only part of its input.
_COPY_INPUTS = {block: _copy_inputs(60 if block < 100 else 1000)
                for block in (1, 2, 3, 7, trajectory._COPY_BLOCK)}


def _first_block_rows(text, block):
    """The rows in the first block that ``_copy_rows`` reads from ``text``:
    ``block`` characters past the header, then on to the next line break."""
    body = text.lstrip("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    body = body.split("\n", 1)[1]
    stop = body.find("\n", block)
    return sum(1 for line in body[:None if stop < 0 else stop].split("\n") if line)


def _copy_gaps(traj, edge):
    """Gaps in ``traj`` whose rows ``_copy_rows`` drops, by name. ``edge`` is
    the row count of the first block: row ``edge`` starts the second."""
    n, hole, k = len(traj), len(traj) // 2, max(len(traj) // 8, 1)
    return {
        "middle": excise_gap(traj, n // 3, k),
        "first": excise_gap(traj, 1, k),
        "last": excise_gap(traj, n - 1 - k, k),
        "empty": excise_gap(traj, n // 3, 0),
        "from-edge": excise_gap(traj, edge, min(3, n - 1 - edge)),
        "to-edge": excise_gap(traj, max(edge - 3, 1), edge - max(edge - 3, 1)),
        # as ``fill`` detects a gap: the observed points are ``traj``
        "detected": GappedTrajectory(traj, hole, traj.times[hole - 1] + [1.0, 2.0, 3.0]),
        "detected-at-edge": GappedTrajectory(traj, edge, np.empty(0)),
    }


def _assert_copies_by_line(tmp_path, text, block):
    """``_copy_rows`` of ``text`` equals the line-by-line copy byte for byte
    for every gap of :func:`_copy_gaps`, with and without fill rows."""
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_bytes(text.encode("utf-8"))
    traj = read_trajectory_csv(src)
    edge = _first_block_rows(text, block)
    assert 1 <= edge < len(traj)  # the input spans more than one block
    rng = np.random.default_rng(0)
    for name, gapped in _copy_gaps(traj, edge).items():
        for fill in (None, (rng.normal(size=(gapped.n_missing, 2)), "bridge")):
            trajectory._copy_rows(src, os.stat(src), traj, gapped, out, fill)
            assert out.read_bytes() == copy_rows_by_line(src, traj, gapped, fill), \
                (name, fill is not None)


class TestCopyRows:
    """``_copy_rows`` reads its input a block at a time, each block ended on a
    line break, and writes what the line-by-line copy writes."""

    @pytest.mark.parametrize("name", _COPY_INPUTS[1])
    @pytest.mark.parametrize("block", _COPY_INPUTS)
    def test_equals_line_by_line_copy(self, tmp_path, monkeypatch, block, name):
        monkeypatch.setattr(trajectory, "_COPY_BLOCK", block)
        _assert_copies_by_line(tmp_path, _COPY_INPUTS[block][name], block)

    @pytest.mark.parametrize("block", [7, trajectory._COPY_BLOCK])
    @pytest.mark.parametrize("blank", [False, True], ids=["row", "empty-line"])
    @pytest.mark.parametrize("shift", [-1, 0, 1],
                             ids=["break-ends-read", "break-after-read", "row-crosses"])
    @pytest.mark.parametrize("ending", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_line_break_at_block_edge(self, tmp_path, monkeypatch, ending, shift,
                                      blank, block):
        # The first row is ``block + shift`` characters long, so the first
        # read ends on its line break, just before it (splitting a CRLF pair
        # from the row), or inside the row. With ``blank``, the line after it
        # is empty: at the end of the first block, or the start of the next.
        monkeypatch.setattr(trajectory, "_COPY_BLOCK", block)
        first = "0,0," + " " * (block + shift - 5) + "0"
        rows = _copy_input_rows(12)[1:]
        text = _lines(["t,x,y", first, *[""] * blank, *rows], ending)
        _assert_copies_by_line(tmp_path, text, block)
