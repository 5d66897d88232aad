import json

import numpy as np
import pytest

from bridgefill.cli import _detect_gap, main
from bridgefill.errors import BridgefillError
from bridgefill.metrics import radius_of_gyration
from bridgefill.trajectory import Trajectory, read_trajectory_csv

GAP = ["--gap-start", "20", "--gap-count", "10"]


@pytest.fixture
def path_csv(tmp_path):
    path = tmp_path / "in.csv"
    assert main(["simulate", "--model", "angular-walk", "--param", "sigma=0.5",
                 "--steps", "60", "--seed", "1", "--out", str(path)]) == 0
    return path


def _fill(path_csv, out, *flags):
    return main(["fill", "--in", str(path_csv), *GAP, "--realisations", "5",
                 *flags, "--out", str(out)])


class TestFill:
    @pytest.mark.parametrize("method", ["bridge", "linear"])
    def test_simulate_then_fill(self, path_csv, tmp_path, capsys, method):
        out = tmp_path / "filled.csv"
        assert _fill(path_csv, out, "--method", method) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["method"] == method
        assert summary["n_missing"] == 10
        original, filled = read_trajectory_csv(path_csv), read_trajectory_csv(out)
        assert np.array_equal(filled.times, original.times)
        assert filled.sources[20:30] == (method,) * 10
        keep = np.r_[0:20, 30:len(original)]
        assert np.array_equal(filled.coords[keep], original.coords[keep])
        assert summary["rog_filled"] == radius_of_gyration(filled)

    def test_linear_fill_lies_on_anchor_chord(self, path_csv, tmp_path, capsys):
        out = tmp_path / "filled.csv"
        assert _fill(path_csv, out, "--method", "linear") == 0
        c = read_trajectory_csv(out).coords
        frac = (np.arange(20, 30) - 19) / 11
        np.testing.assert_allclose(c[20:30], c[19] + frac[:, None] * (c[30] - c[19]),
                                   rtol=0, atol=1e-12)

    def test_zero_sigma_is_valid(self, path_csv, tmp_path, capsys):
        assert _fill(path_csv, tmp_path / "o.csv", "--sigma", "0") == 0
        assert json.loads(capsys.readouterr().out)["sigma_source"] == "override"

    @pytest.mark.parametrize("flags", [
        ["--realisations", "0"], ["--sigma", "-1"], ["--sigma", "nan"],
    ])
    def test_bad_flags_are_usage_errors(self, path_csv, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            _fill(path_csv, tmp_path / "o.csv", *flags)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x,y\n0,zero,0\n")
        assert main(["fill", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 3
        assert "bridgefill: error:" in capsys.readouterr().err


def _traj(times):
    times = np.asarray(times, dtype=float)
    return Trajectory(times, np.column_stack([times, -times]))


class TestDetectGap:
    def test_one_gap(self):
        gapped = _detect_gap(_traj([0, 1, 2, 5, 6]))
        assert list(gapped.before.times) == [0, 1, 2]
        assert list(gapped.after.times) == [5, 6]
        assert list(gapped.missing_times) == [3, 4]

    @pytest.mark.parametrize("times", [
        [0, 1, 2.5, 4],  # non-integer times
        [0, 2, 4],  # several gaps
        [0, 1, 2, 3],  # no gap
    ], ids=["non-integer", "several", "none"])
    def test_rejected(self, times):
        with pytest.raises(BridgefillError):
            _detect_gap(_traj(times))
