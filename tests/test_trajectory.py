import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgefill.errors import (
    CsvFormatError,
    NonFiniteError,
    NonMonotonicTimeError,
    OutOfRangeError,
    TimeMismatchError,
)
from bridgefill.metrics import path_length
from bridgefill.trajectory import (
    GappedTrajectory,
    TimedPoint,
    Trajectory,
    build_trajectory,
    excise_gap,
    read_trajectory_csv,
    splice_fill,
    write_trajectory_csv,
)


def unit_path(n, slope=2.0):
    return build_trajectory([(t, slope * t, -t) for t in range(n)])


class TestBuildTrajectory:
    def test_single_point(self):
        traj = build_trajectory([(0, 0, 0)])
        assert len(traj) == 1
        assert traj.point(0) == TimedPoint(0.0, 0.0, 0.0)

    def test_duplicate_timestamp(self):
        with pytest.raises(NonMonotonicTimeError):
            build_trajectory([(0, 0, 0), (1, 1, 0), (1, 2, 0)])

    def test_decreasing_timestamp(self):
        with pytest.raises(NonMonotonicTimeError):
            build_trajectory([(0, 0, 0), (2, 1, 0), (1, 2, 0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteError):
            build_trajectory([(0, 0, 0), (1, bad, 0)])
        with pytest.raises(NonFiniteError):
            build_trajectory([(0, 0, bad)])

    def test_empty(self):
        with pytest.raises(ValueError):
            build_trajectory([])

    def test_345_triangle_length(self):
        traj = build_trajectory([(0, 0, 0), (1, 3, 4)])
        assert path_length(traj) == 5.0

    def test_arrays_are_read_only(self):
        traj = unit_path(4)
        with pytest.raises(ValueError):
            traj.times[0] = 99.0
        with pytest.raises(ValueError):
            traj.coords[0, 0] = 99.0

    def test_order_preserved(self):
        rows = [(0, 5, 6), (2, 7, 8), (5, 9, 10)]
        traj = build_trajectory(rows)
        assert [tuple(p) for p in traj] == [(0, 5, 6), (2, 7, 8), (5, 9, 10)]


class TestExciseGap:
    def test_middle_hundred_of_two_hundred(self):
        traj = unit_path(200)
        gapped = excise_gap(traj, 50, 100)
        assert len(gapped.before) == 50
        assert len(gapped.after) == 50
        assert list(gapped.missing_times) == [float(t) for t in range(50, 150)]
        assert gapped.left_anchor.t == 49.0
        assert gapped.right_anchor.t == 150.0
        assert gapped.duration == 101.0

    def test_zero_count_is_noop_gap(self):
        traj = unit_path(6)
        gapped = excise_gap(traj, 3, 0)
        assert gapped.n_missing == 0
        merged = gapped.observed()
        assert np.array_equal(merged.times, traj.times)
        assert np.array_equal(merged.coords, traj.coords)

    def test_first_half_keeps_left_anchor(self):
        traj = unit_path(1000)
        gapped = excise_gap(traj, 1, 499)
        assert len(gapped.before) == 1
        assert gapped.before.point(0).t == 0.0
        assert gapped.after.point(0).t == 500.0
        assert len(gapped.after) == 500

    @pytest.mark.parametrize("from_index,count", [(0, 1), (1, 9), (9, 1), (5, 7)])
    def test_anchor_removal_rejected(self, from_index, count):
        with pytest.raises(OutOfRangeError):
            excise_gap(unit_path(10), from_index, count)

    def test_negative_count_rejected(self):
        with pytest.raises(OutOfRangeError):
            excise_gap(unit_path(10), 2, -1)


class TestSpliceFill:
    def test_empty_fill_concatenates(self):
        gapped = excise_gap(unit_path(5), 2, 0)
        merged = splice_fill(gapped, np.empty((0, 2)))
        assert len(merged) == 5
        assert merged.sources == ("observed",) * 5

    def test_linear_fill_positions(self):
        gapped = GappedTrajectory(
            before=build_trajectory([(0, 0, 0)]),
            after=build_trajectory([(5, 10, 0)]),
            missing_times=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        from bridgefill.gapfill import fill_gap

        merged = splice_fill(gapped, fill_gap(gapped, "linear", 0.0, 0), "linear")
        assert [p.x for p in merged] == [0, 2, 4, 6, 8, 10]
        assert merged.sources == ("observed",) + ("linear",) * 4 + ("observed",)

    def test_wrong_shape_rejected(self):
        gapped = excise_gap(unit_path(5), 2, 1)
        with pytest.raises(TimeMismatchError):
            splice_fill(gapped, np.zeros((2, 2)))
        with pytest.raises(TimeMismatchError):
            splice_fill(gapped, np.empty((0, 2)))
        with pytest.raises(TimeMismatchError):
            splice_fill(gapped, np.zeros(2))

    @given(
        n=st.integers(min_value=3, max_value=40),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, n, data):
        from_index = data.draw(st.integers(min_value=1, max_value=n - 2))
        count = data.draw(st.integers(min_value=0, max_value=n - 1 - from_index))
        traj = unit_path(n)
        gapped = excise_gap(traj, from_index, count)
        removed = traj.coords[from_index:from_index + count]
        merged = splice_fill(gapped, removed)
        assert np.array_equal(merged.times, traj.times)
        assert np.array_equal(merged.coords, traj.coords)


class TestCsv:
    def test_round_trip_is_bit_identical(self, tmp_path):
        rows = [
            (0.0, 0.1, -1.0 / 3.0),
            (0.1 + 1e-17, math.pi, 2.0 ** -1040),
            (7.25, -12345.678901234567, 9.87e210),
        ]
        traj = build_trajectory(rows)
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.coords, traj.coords)

    def test_header_and_source_column(self, tmp_path):
        gapped = excise_gap(unit_path(5), 2, 1)
        merged = splice_fill(gapped, np.array([[1.5, 2.5]]), "bridge")
        path = tmp_path / "filled.csv"
        write_trajectory_csv(path, merged)
        text = path.read_text().splitlines()
        assert text[0] == "t,x,y,source"
        assert text[3].endswith(",bridge")
        back = read_trajectory_csv(path)
        assert back.sources == merged.sources

    def test_plain_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, unit_path(3))
        assert path.read_text().splitlines()[0] == "t,x,y"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y\n0,0,0\n")
        with pytest.raises(CsvFormatError):
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
        rows = [(float(i), v, -v) for i, v in enumerate(values)]
        traj = build_trajectory(rows)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_trajectory_csv(path, traj)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.coords, traj.coords)
