import dataclasses
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bridgefill import cli, trajectory
from bridgefill.cli import _build_parser, _detect_gap, main
from bridgefill.errors import BridgefillError
from bridgefill.generators import MODEL_NAMES, _SPECS, spec_from_dict, spec_to_dict
from bridgefill.metrics import (
    observed_sums,
    radii_of_gyration,
    spliced_radii_of_gyration,
)
from bridgefill.trajectory import (
    Trajectory,
    read_trajectory_csv,
    write_trajectory_csv,
)

from .oracles import closed_form_sigma, extract_triples
from .test_estimator import large_step_walk

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
        rog = summary["rog_filled"]
        fill = filled.coords[20:30].copy()
        assert rog == spliced_radii_of_gyration(observed_sums(filled.coords[keep]), fill)
        assert rog == pytest.approx(radii_of_gyration(filled.coords), rel=1e-13, abs=0)

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
        ["--method", "linear", "--sigma", "1"],
    ])
    def test_bad_flags_are_usage_errors(self, path_csv, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            _fill(path_csv, tmp_path / "o.csv", *flags)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gap-start", "--gap-count"])
    def test_one_gap_flag_is_usage_error(self, path_csv, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["fill", "--in", str(path_csv), flag, "10",
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "--gap-start and --gap-count must be given together" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o.csv").exists()

    def test_linear_skips_sigma(self, path_csv, tmp_path, capsys, monkeypatch):
        def no_fit(traj):
            raise AssertionError("a linear fill needs no sigma")

        monkeypatch.setattr("bridgefill.cli.estimate_sigma", no_fit)
        assert _fill(path_csv, tmp_path / "o.csv", "--method", "linear") == 0
        summary = json.loads(capsys.readouterr().out)
        assert not {"sigma_hat", "sigma_source", "sigma_clamped",
                    "sigma_n_skipped", "rog_estimate"} & summary.keys()
        assert summary["expected_gap_length"] == summary["chord_length"]

    def test_linear_fills_two_observed_points(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("t,x,y\n0,0,0\n2,4,2\n")
        out = tmp_path / "o.csv"
        assert main(["fill", "--in", str(src), "--method", "linear",
                     "--out", str(out)]) == 0
        assert read_trajectory_csv(out).coords.tolist() == [[0, 0], [2, 1], [4, 2]]
        assert main(["fill", "--in", str(src), "--out", str(out)]) == 3
        assert "triple" in capsys.readouterr().err

    def test_reports_skipped_triples(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("t,x,y\n0,0,0\n1e-13,1,1\n1,2,2\n2,3,1\n3,5,5\n"
                       "4,4,4\n5,6,6\n")
        assert main(["estimate", "--in", str(src)]) == 0
        est = json.loads(capsys.readouterr().out)
        assert (est["n_triples"], est["n_skipped"]) == (2, 1)
        assert main(["fill", "--in", str(src), "--gap-start", "5",
                     "--gap-count", "1", "--realisations", "3",
                     "--out", str(tmp_path / "o.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["sigma_source"], summary["sigma_n_skipped"]) == (
            "estimated", 1)

    def test_estimate_keeps_large_scale(self, tmp_path, capsys):
        traj = large_step_walk()
        src = tmp_path / "in.csv"
        write_trajectory_csv(src, traj)
        assert main(["estimate", "--in", str(src)]) == 0
        est = json.loads(capsys.readouterr().out)
        assert not est["clamped"]
        assert est["sigma_hat"] == pytest.approx(
            closed_form_sigma(extract_triples(traj)), rel=1e-12)

    @pytest.mark.parametrize("text, message", [
        ("", ": empty file"),
        # Python's float() takes the underscore but numpy's parser does not;
        # the message still names the file line.
        ("t,x,y\n0,1_000,0\n1,1,1\n", ":2: could not convert string to float: '1_000'"),
    ], ids=["empty", "underscore-digits"])
    def test_unreadable_estimate_input_is_data_error(self, tmp_path, capsys, text,
                                                    message):
        src = tmp_path / "in.csv"
        src.write_text(text)
        assert main(["estimate", "--in", str(src)]) == 3
        assert capsys.readouterr().err.startswith(f"bridgefill: error: {src}{message}")

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x,y\n0,zero,0\n")
        assert main(["fill", "--in", str(bad), "--out", str(tmp_path / "o.csv")]) == 3
        assert "bridgefill: error:" in capsys.readouterr().err

    # The suite turns numpy's RuntimeWarnings into errors, so these also
    # check that an overflow is rejected before any arithmetic warns.
    @pytest.mark.parametrize("rows", [
        "-1e308,0,0\n0,0,0\n1e308,1,0\n",  # the time span overflows
        "0,-1e308,0\n1,0,0\n2,1e308,0\n",  # the chord overflows
    ], ids=["span", "chord"])
    @pytest.mark.parametrize("method", ["bridge", "linear"])
    def test_overflowing_gap_is_data_error(self, tmp_path, capsys, rows, method):
        src = tmp_path / "in.csv"
        src.write_text("t,x,y\n" + rows)
        out = tmp_path / "o.csv"
        assert main(["fill", "--in", str(src), "--method", method,
                     "--gap-start", "1", "--gap-count", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "bridgefill: error: the time span and chord of a gap must be finite" in err
        assert not out.exists()

    def test_overflowing_rice_argument_is_data_error(self, tmp_path, capsys):
        # sigma_m^2 T and the chord are finite, but the chord's square is not:
        # the expected length is finite, the radius of gyration is not.
        src = tmp_path / "in.csv"
        src.write_text("t,x,y\n0,0,0\n1,0,0\n2,2e154,0\n")
        assert main(["fill", "--in", str(src), "--sigma", "9.4e153",
                     "--gap-start", "1", "--gap-count", "1",
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert "bridgefill: error: a result is not finite" in capsys.readouterr().err

    def test_overflowing_chord_norm_is_data_error(self, tmp_path, capsys):
        # Both chord components are finite, but its norm is not.
        src = tmp_path / "in.csv"
        src.write_text("t,x,y\n0,0,0\n1,0,0\n2,1.5e308,1.5e308\n")
        assert main(["fill", "--in", str(src), "--sigma", "1",
                     "--gap-start", "1", "--gap-count", "1",
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert ("bridgefill: error: displacement must be finite in norm, got "
                "(1.5e+308, 1.5e+308) of norm inf") in capsys.readouterr().err

    def test_too_many_realisations_is_data_error(self, path_csv, tmp_path, capsys):
        # numpy refuses this noise array before allocating it
        out = tmp_path / "o.csv"
        assert _fill(path_csv, out, "--realisations", str(10**20)) == 3
        assert capsys.readouterr().err.startswith("bridgefill: error: ")
        assert not out.exists()

    def test_too_many_realisations_of_empty_gap_is_data_error(self, path_csv, tmp_path,
                                                               capsys):
        # nothing is drawn, but one radius per realisation would be held
        out = tmp_path / "o.csv"
        assert main(["fill", "--in", str(path_csv), "--gap-start", "20",
                     "--gap-count", "0", "--realisations", str(10**20),
                     "--out", str(out)]) == 3
        assert "too many for one float array" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_variance_is_data_error(self, path_csv, tmp_path, capsys):
        # sigma_m is finite, but the variance sigma_m^2 T k of a bridge
        # through k missing points is not; the message names its factors.
        out = tmp_path / "o.csv"
        assert _fill(path_csv, out, "--sigma", "1e308") == 3
        assert ("bridgefill: error: sigma_m^2 * duration * (segments - 1) must be "
                "finite, got sigma_m 1e+308, duration 11.0 and segments - 1 = 10"
                ) in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_linear_fill_is_data_error(self, tmp_path, capsys):
        src, out = tmp_path / "in.csv", tmp_path / "o.csv"
        src.write_text("t,x,y\n0,0,0\n1,0,0\n2,2e154,0\n")
        assert main(["fill", "--in", str(src), "--method", "linear",
                     "--gap-start", "1", "--gap-count", "1", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bridgefill: error: a result is not finite" in captured.err
        assert not out.exists()

    def test_overflowing_sigma_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("t,x,y\n0,0,0\n1,1e200,0\n2,0,0\n3,1,0\n4,0,0\n")
        assert main(["estimate", "--in", str(src)]) == 3
        assert main(["fill", "--in", str(src), "--gap-start", "2", "--gap-count", "1",
                     "--out", str(tmp_path / "o.csv")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("bridgefill: error: the sigma_m fit overflows") == 2

    def test_second_fill_keeps_first_fill_labels(self, path_csv, tmp_path, capsys):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert _fill(path_csv, first) == 0
        assert main(["fill", "--in", str(first), "--gap-start", "40",
                     "--gap-count", "5", "--method", "linear",
                     "--out", str(second)]) == 0
        sources = read_trajectory_csv(second).sources
        assert sources[20:30] == ("bridge",) * 10
        assert sources[40:45] == ("linear",) * 5
        assert sources.count("observed") == 61 - 15


@pytest.mark.parametrize("command", ["metrics", "estimate", "gap", "fill"])
@pytest.mark.parametrize("rows", [1, 5000], ids=["header-chunk", "late"])
def test_csv_that_is_not_utf8_is_data_error(tmp_path, capsys, command, rows):
    # The undecodable byte sits in the header's read chunk or far past it.
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"t,x,y\r\n" + b"".join(b"%d,0,0\r\n" % i for i in range(rows))
                    + b"%d,\xff,0\r\n" % rows)
    flags = [] if command in ("metrics", "estimate") else [
        *GAP, "--out", str(tmp_path / "o.csv")]
    assert main([command, "--in", str(bad), *flags]) == 3
    err = capsys.readouterr().err
    assert f"bridgefill: error: {bad}: not readable as text" in err
    assert "Traceback" not in err


# Runs CLI commands given as a JSON list of argument lists and prints their
# exit codes as the last line of stdout.
_CLI_DRIVER = """
import json, sys
from bridgefill.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_text_files_are_utf8_whatever_the_locale(tmp_path):
    # Every open without an explicit encoding raises under these flags.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "rog", "replicates": 2, "steps": 60, "gap_start": 1,
        "gap_count": 29, "models": [{"model": "fixed-velocity"}]}),
        encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x,y\n0,zero,0\n", encoding="utf-8")
    sim, gapped = str(tmp_path / "sim.csv"), str(tmp_path / "gapped.csv")
    commands = [
        ["simulate", "--model", "angular-walk", "--steps", "60", "--out", sim],
        ["gap", "--in", sim, *GAP, "--out", gapped],
        ["fill", "--in", gapped, "--realisations", "5",
         "--out", str(tmp_path / "filled.csv")],
        ["estimate", "--in", sim],
        ["metrics", "--in", sim],
        ["experiment", "--config", str(config), "--out", str(tmp_path / "exp")],
        ["metrics", "--in", str(bad)],
    ]
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", _CLI_DRIVER, json.dumps(commands)],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=120)
    assert "Traceback" not in run.stderr
    assert run.returncode == 0
    assert json.loads(run.stdout.splitlines()[-1]) == [0, 0, 0, 0, 0, 0, 3]


class TestGapAndMetrics:
    def test_gap_writes_input_minus_gap_rows(self, path_csv, tmp_path):
        out = tmp_path / "gapped.csv"
        assert main(["gap", "--in", str(path_csv), *GAP, "--out", str(out)]) == 0
        rows = path_csv.read_bytes().splitlines(keepends=True)
        # the header, then points 0..19 and 30.. (file lines 1..20 and 31..)
        assert out.read_bytes() == b"".join(rows[:21] + rows[31:])

    def test_gap_keeps_source_column(self, path_csv, tmp_path, capsys):
        filled, gapped = tmp_path / "filled.csv", tmp_path / "gapped.csv"
        assert _fill(path_csv, filled) == 0
        assert main(["gap", "--in", str(filled), "--gap-start", "25",
                     "--gap-count", "10", "--out", str(gapped)]) == 0
        rows = filled.read_bytes().splitlines(keepends=True)
        assert gapped.read_bytes() == b"".join(rows[:26] + rows[36:])
        assert rows[0] == b"t,x,y,source\r\n"

    def test_auto_detected_fill_of_gap_output(self, path_csv, tmp_path, capsys):
        gapped, auto, flagged = (tmp_path / n for n in ("g.csv", "a.csv", "f.csv"))
        assert main(["gap", "--in", str(path_csv), *GAP, "--out", str(gapped)]) == 0
        assert main(["fill", "--in", str(gapped), "--realisations", "5",
                     "--seed", "4", "--out", str(auto)]) == 0
        auto_summary = capsys.readouterr().out
        assert _fill(path_csv, flagged, "--seed", "4") == 0
        assert capsys.readouterr().out == auto_summary
        assert auto.read_bytes() == flagged.read_bytes()

    def test_metrics_match_numpy(self, path_csv, capsys):
        assert main(["metrics", "--in", str(path_csv)]) == 0
        got = json.loads(capsys.readouterr().out)
        c = read_trajectory_csv(path_csv).coords
        assert got["point_count"] == 61
        assert got["path_length"] == pytest.approx(
            np.linalg.norm(np.diff(c, axis=0), axis=1).sum(), rel=1e-12)
        assert got["rog"] == pytest.approx(
            np.sqrt(np.mean(np.sum((c - c.mean(axis=0)) ** 2, axis=1))), rel=1e-12)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="names a pipe by /dev/fd/N")
    @pytest.mark.parametrize("command", ["estimate", "metrics"])
    def test_piped_input_reads_as_the_file(self, path_csv, capsys, command):
        # A pipe cannot be opened again by name, so it is parsed line by line.
        assert main([command, "--in", str(path_csv)]) == 0
        from_file = capsys.readouterr().out
        read, write = os.pipe()
        try:
            os.write(write, path_csv.read_bytes())  # within the pipe's buffer
            os.close(write)
            assert main([command, "--in", f"/dev/fd/{read}"]) == 0
        finally:
            os.close(read)
        assert capsys.readouterr().out == from_file

    def test_repeated_timestamp_is_data_error_naming_the_file(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("t,x,y\n0,0,0\n1,1,1\n1,2,2\n")
        assert main(["metrics", "--in", str(src)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"bridgefill: error: {src}: timestamps must be strictly increasing")

    # Numpy's overflow warnings are errors in this suite, so this also checks
    # that the overflowing radius of gyration stays silent.
    def test_overflowing_metrics_are_data_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("t,x,y\n0,0,0\n1,0,0\n2,2e154,0\n")
        assert main(["metrics", "--in", str(src)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bridgefill: error: a result is not finite" in captured.err


class TestExperiment:
    @pytest.mark.parametrize("field", [
        {"replicates": "two"},
        {"steps": 60.7, "gap_start": 1, "gap_count": 29},
        {"models": [["fixed-velocity"]]},
        {"models": None},
        {"master_seed": -1},
        {"kind": "path-length", "fill_anchors": "loop"},
        {"gap_count": -5},
        {"models": []},
        {"gap_start": 0},
        {"steps": 100, "gap_start": 50, "gap_count": 60},
    ], ids=["replicates-string", "steps-fraction", "model-not-mapping",
            "models-null", "master-seed-negative", "path-length-loop-anchors",
            "gap-count-negative", "models-empty", "gap-start-zero",
            "gap-past-end"])
    def test_bad_config_is_data_error(self, tmp_path, capsys, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "rog", "replicates": 1, **field}))
        assert main(["experiment", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 3
        assert "bridgefill: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"kind": "path-length",
         "models": [{"model": "discrete-brownian", "sigma": 1e-300}]},
        {"kind": "path-length",
         "models": [{"model": "discrete-brownian", "sigma": 1e-313}]},
        {"kind": "rog", "models": [{"model": "fixed-velocity", "v": 1e-162}]},
    ], ids=["std-dev-overflows", "mean-overflows", "rog-std-dev-overflows"])
    def test_overflowing_summary_is_data_error(self, tmp_path, capsys, config):
        # Tiny scales give huge ratios: their squared deviations, or their
        # sum, overflow. The suite turns any numpy warning into an error.
        path, out = tmp_path / "config.json", tmp_path / "out"
        path.write_text(json.dumps({**config, "replicates": 20}))
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 3
        assert "bridgefill: error: a result is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 576. GiB for an array", "Unable to allocate 576. GiB"),
        ("", "out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_data_error(self, tmp_path, capsys, monkeypatch,
                                         message, shown):
        # A run too large to allocate, without allocating it.
        def run_experiment(config):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        assert main(["experiment", "--kind", "rog", "--replicates", "1",
                     "--out", str(tmp_path / "out")]) == 3
        assert f"bridgefill: error: {shown}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b'{"kind": "rog", "replicates": ' + b"9" * 5000 + b"}",
        b'{"kind": "rog", "replicates": 1',
        b'{"kind": "\xff"}',
    ], ids=["integer-over-4300-digits", "truncated", "not-utf-8"])
    def test_unreadable_json_is_data_error(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_bytes(text)
        assert main(["experiment", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 3
        assert f"bridgefill: error: {config}: not a JSON config" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [[], ["--replicates", "2"], ["--seed", "3"]])
    def test_config_not_an_object_is_data_error(self, tmp_path, capsys, flags):
        config = tmp_path / "config.json"
        config.write_text("[1]")
        assert main(["experiment", "--config", str(config), *flags,
                     "--out", str(tmp_path / "out")]) == 3
        assert "must be a JSON object" in capsys.readouterr().err

    def test_config_runs(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "rog", "replicates": 2, "steps": 60.0, "gap_start": 1,
            "gap_count": 29, "models": [{"model": "fixed-velocity"}]}))
        assert main(["experiment", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["record_count"] == 4

    def test_config_with_byte_order_mark_runs(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'\xef\xbb\xbf{"kind": "rog", "replicates": 1}')
        assert main(["experiment", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().out)["record_count"] == 6

    @pytest.mark.parametrize("flags, echoed", [
        (["--kind", "rog"], {"kind": "rog"}),
        (["--replicates", "2"], {"replicates": 2}),
        (["--seed", "3"], {"master_seed": 3}),
    ], ids=["kind", "replicates", "seed"])
    def test_flags_override_config(self, tmp_path, capsys, flags, echoed):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "path-length", "replicates": 1, "master_seed": 1,
            "steps": 60, "gap_start": 1, "gap_count": 29,
            "models": [{"model": "fixed-velocity"}]}))
        assert main(["experiment", "--config", str(config), *flags,
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        with open(summary) as fh:
            echo = json.load(fh)["config"]
        assert {key: echo[key] for key in echoed} == echoed

    def test_no_kind_and_no_config_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_config_without_kind_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"replicates": 1}))
        assert main(["experiment", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 3
        assert "kind must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["0.5", True], ids=["string", "bool"])
    def test_non_numeric_model_parameter_is_data_error(self, tmp_path, capsys,
                                                       sigma):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "kind": "rog", "replicates": 1,
            "models": [{"model": "angular-walk", "sigma": sigma}]}))
        assert main(["experiment", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 3
        assert "sigma must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("config, field", [
        ({"kind": "rog", "replicates": 1,
          "models": [{"model": "fixed-velocity", "v": 10 ** 400}]}, "v"),
        ({"kind": "rog", "replicates": 10 ** 400}, "replicates"),
    ], ids=["model-parameter", "count"])
    def test_integer_beyond_float_range_is_data_error(self, tmp_path, capsys,
                                                      config, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert f"{field} is too large for a float" in capsys.readouterr().err


    @pytest.mark.filterwarnings("error")
    def test_rog_summary_of_non_finite_values(self, tmp_path, capsys):
        # every RoG overflows (v 1e200), or every generated point does (v
        # 1e308), so no cell has a finite value to average, and no numpy
        # RuntimeWarning escapes
        for v in [1e200, 1e308]:
            config, out = tmp_path / f"config_{v}.json", tmp_path / f"out_{v}"
            config.write_text(json.dumps({
                "kind": "rog", "replicates": 2,
                "models": [{"model": "fixed-velocity", "v": v}]}))
            assert main(["experiment", "--config", str(config),
                         "--out", str(out)]) == 0
            summary = json.loads((out / "rog_summary.json").read_text())
            for cell in summary["cells"]:
                assert cell["count"] == 0
                assert cell["mean_rog_before"] is None
                assert cell["mean_rog_after"] is None

    @pytest.mark.parametrize("argv, config, message", [
        (["simulate", "--model", "fixed-velocity", "--steps", str(10 ** 30)], None,
         "too many for one float array"),
        (["experiment"], {"kind": "rog", "replicates": 1e30},
         "replicates must lie in [1, 2**32]"),
        (["experiment"], {"kind": "rog", "replicates": 1, "steps": 1e30},
         "too many for one float array"),
    ], ids=["simulate-steps", "config-replicates", "config-steps"])
    def test_oversized_count_is_data_error(self, tmp_path, capsys, argv, config,
                                           message):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(path)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("bridgefill: error: ") and message in err


@pytest.mark.parametrize("argv, flag, value, expected", [
    (["experiment", "--kind", "rog", "--replicates", "1"], "--seed", "-1",
     "a non-negative integer"),
    (["simulate", "--model", "fixed-velocity", "--steps", "5"], "--seed", "-1",
     "a non-negative integer"),
    (["fill", "--in", "in.csv"], "--seed", "-1", "a non-negative integer"),
    (["simulate", "--model", "fixed-velocity", "--steps", "5"], "--seed", "abc",
     "a non-negative integer"),
    (["fill", "--in", "in.csv"], "--realisations", "0", "an integer >= 1"),
    (["fill", "--in", "in.csv"], "--realisations", "x", "an integer >= 1"),
    (["fill", "--in", "in.csv"], "--sigma", "nan", "a finite number >= 0"),
    (["fill", "--in", "in.csv"], "--sigma", "inf", "a finite number >= 0"),
    (["fill", "--in", "in.csv"], "--sigma", "-1", "a finite number >= 0"),
], ids=["experiment", "simulate", "fill", "simulate-not-a-number",
        "realisations-zero", "realisations-not-a-number", "sigma-nan", "sigma-inf",
        "sigma-negative"])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv, flag, value, expected):
    # The seed and the other number flags are refused while parsing, by type.
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}: expected {expected}, got '{value}'" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, param", [
    ("discrete-brownian", "sigma"), ("fixed-velocity", "v"), ("angular-walk", "v"),
    ("internal-state", "step"),
])
def test_overflowing_simulation_is_data_error(tmp_path, capsys, model, param):
    # The suite turns any numpy warning into an error.
    out = tmp_path / "out.csv"
    assert main(["simulate", "--model", model, "--param", f"{param}=1e308",
                 "--steps", "10", "--out", str(out)]) == 3
    assert "bridgefill: error: timestamps and coordinates must be finite" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("param, message", [
    ("sigma", "--param expects key=value, got 'sigma'"),
    ("sigma=abc", "--param sigma: 'abc' is not a number"),
], ids=["no-value", "not-a-number"])
def test_bad_param_is_usage_error(tmp_path, capsys, param, message):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "discrete-brownian", "--param", param,
              "--steps", "5", "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


class TestGolden:
    """Output bytes and the RoG estimate for fixed seeds stay as released."""

    def test_simulate_and_bridge_fill(self, tmp_path, capsys):
        sim, filled = tmp_path / "sim.csv", tmp_path / "filled.csv"
        assert main(["simulate", "--model", "angular-walk", "--steps", "400",
                     "--seed", "1", "--out", str(sim)]) == 0
        assert hashlib.sha256(sim.read_bytes()).hexdigest() == (
            "3308a0530efd5a9d2156a1055169877cc7b6eec3c3dd62ca7a4752a69f5e96ef")
        capsys.readouterr()
        fill = ["fill", "--in", str(sim), "--gap-start", "120", "--gap-count", "90",
                "--method", "bridge", "--seed", "5", "--realisations", "50",
                "--out", str(filled)]
        assert main(fill) == 0
        assert hashlib.sha256(filled.read_bytes()).hexdigest() == (
            "2084a77dc79c5a668e32dcc062c0bc39af03bd90b3aa8921187c77de32591fcb")
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "561600248d83b3bd597f41f4761086225971acc0c7a4a21fbe594a6dbb233e2c")
        summary = json.loads(out)
        # exact: any change to a summation order moves these bits
        assert summary["sigma_hat"] == 0.39949615843538105
        rog = summary["rog_estimate"]
        assert rog["mean"] == 27.483999943205795
        assert rog["std_error"] == 0.007156754659513178
        assert main([*fill, "--sigma", "0.5"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "7c4da60c858fdca39dfe40f6d8b106a62a0e48b4c1b1b85df75d5b3c35b6b338")

    def test_linear_fill_and_metrics(self, tmp_path, capsys):
        sim, filled = tmp_path / "sim.csv", tmp_path / "filled.csv"
        assert main(["simulate", "--model", "angular-walk", "--steps", "400",
                     "--seed", "1", "--out", str(sim)]) == 0
        capsys.readouterr()
        assert main(["fill", "--in", str(sim), "--gap-start", "120",
                     "--gap-count", "90", "--method", "linear", "--seed", "5",
                     "--realisations", "50", "--out", str(filled)]) == 0
        assert hashlib.sha256(filled.read_bytes()).hexdigest() == (
            "85d552b552b072d386d710c0709ff57d797f12233f044f1b3a4dfb9f4b36c04f")
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "b787b26861871b7fd655072683f7cf8f3c2eb9783b84e33e432c6731d6dd34a0")
        assert main(["metrics", "--in", str(sim)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "e6915066b7f16db93e7f1c77e1a483bca3c6c81fbd75d86f6e9216454d3ff662")
        assert main(["estimate", "--in", str(sim)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "73c6a653cfe52d823865f68997f49f3fc48c7581444c5300b7b302a8396d1577")


def _traj(times):
    times = np.asarray(times, dtype=float)
    return Trajectory(times, np.column_stack([times, -times]))


class TestModelSchemaDrift:
    """The model names and keys that the CLI documents and accepts are the
    spec dataclasses' own."""

    def test_model_choices(self):
        subparsers = _build_parser()._subparsers._group_actions[0]
        simulate = subparsers.choices["simulate"]
        (model,) = [a for a in simulate._actions if a.dest == "model"]
        assert tuple(model.choices) == MODEL_NAMES

    def test_docstring_keys(self):
        listing = cli.__doc__.split("Valid keys per model:")[1]
        documented = {}
        for entry in " ".join(listing.split()).rstrip(".").split(";"):
            name, keys = entry.split(":")
            documented[name.strip()] = [k.strip() for k in keys.split(",")]
        assert documented == {
            cls.model: [f.name for f in dataclasses.fields(cls)] for cls in _SPECS}

    @pytest.mark.parametrize("cls", _SPECS, ids=lambda cls: cls.model)
    def test_defaults_round_trip_through_json(self, cls):
        required = {f.name: 1.0 for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING}
        spec = cls(**required)
        assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


class TestDetectGap:
    def test_one_gap(self):
        traj = _traj([0, 1, 2, 5, 6])
        gapped = _detect_gap(traj)
        assert gapped.observed is traj
        assert gapped.split == 3
        assert list(gapped.missing_times) == [3, 4]

    @pytest.mark.parametrize("times", [
        [0, 1, 2.5, 4],  # non-integer times
        [0, 2, 4],  # several gaps
        [0, 1, 2, 3],  # no gap
        [0, 1, 3, 1e19],  # several gaps, one too wide to list
        [0, 1, 1e300],  # one gap too wide to list
        [0, 1, 1e18],  # one gap too large to allocate
        [-1e308, 1e308],  # a step that overflows
        [0, 1, 2, 3, 2.0 ** 63],  # numpy's arange overflows to an empty list
    ], ids=["non-integer", "several", "none", "several-wide", "too-wide",
            "too-large", "overflowing-step", "arange-overflow"])
    def test_rejected(self, times):
        with pytest.raises(BridgefillError):
            _detect_gap(_traj(times))

    def test_unlistable_gap_names_its_anchors_as_plain_floats(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("t,x,y\n-1e308,0,0\n1e308,1,0\n")
        assert main(["fill", "--in", str(src), "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err
        assert "cannot list the missing timestamps between -1e+308 and 1e+308: " in err


# Data rows as hand-written input may spell them: numbers not in ``repr``'s
# spelling and padded with blanks.
SPELLED = ["0,0,0", " 1e0 , 2.5 ,1e5", "2,3,4", "3,4.50,5", "4,7,8"]
SPELLED_INPUTS = {
    "lf": "t,x,y\n" + "\n".join(SPELLED) + "\n",
    "cr": "\r".join(["t,x,y", *SPELLED]) + "\r",
    "crlf": "\r\n".join(["t,x,y", *SPELLED]) + "\r\n",
    "mixed": "t,x,y\r0,0,0\n 1e0 , 2.5 ,1e5\r\n2,3,4\r3,4.50,5\n4,7,8\r\n",
    "empty-lines": "t,x,y\n\n0,0,0\r\n\r\n 1e0 , 2.5 ,1e5\r\r2,3,4\n3,4.50,5\n\n"
                   "4,7,8\n\n\n",
    "no-final-newline": "t,x,y\n" + "\n".join(SPELLED),
    "bom": "\ufefft,x,y\n" + "\n".join(SPELLED) + "\n",
}


def _run(command, src, out, *flags):
    extra = ["--realisations", "5"] if command == "fill" else []
    return main([command, "--in", str(src), *flags, *extra, "--out", str(out)])


def _fill_lines(path, method):
    """The rows labelled ``method`` in the CSV at ``path``, as
    ``write_trajectory_csv`` writes them."""
    traj = read_trajectory_csv(path)
    fill = [i for i, s in enumerate(traj.sources) if s == method]
    rows = path.with_name("fill_rows.csv")
    write_trajectory_csv(rows, Trajectory(traj.times[fill], traj.coords[fill],
                                          (method,) * len(fill)))
    return rows.read_bytes().splitlines(keepends=True)[1:]


class TestCopiedRows:
    """``fill`` and ``gap`` copy each kept row's text from their input."""

    @pytest.mark.parametrize("text", SPELLED_INPUTS.values(), ids=SPELLED_INPUTS)
    def test_rows_keep_their_spelling(self, tmp_path, capsys, text):
        src, gapped, filled = (tmp_path / n for n in ("in.csv", "g.csv", "f.csv"))
        src.write_bytes(text.encode("utf-8"))
        gap = ["--gap-start", "2", "--gap-count", "1"]
        assert _run("gap", src, gapped, *gap) == 0
        kept = SPELLED[:2] + SPELLED[3:]
        assert gapped.read_bytes() == "".join(
            f"{row}\r\n" for row in ["t,x,y", *kept]).encode()
        assert _run("fill", src, filled, *gap, "--method", "linear") == 0
        observed = [f"{row},observed\r\n".encode() for row in kept]
        assert filled.read_bytes() == b"".join(
            [b"t,x,y,source\r\n", *observed[:2], *_fill_lines(filled, "linear"),
             *observed[2:]])

    def test_fill_rows_are_written_as_the_writer_writes_them(self, path_csv, tmp_path,
                                                             capsys):
        out = tmp_path / "filled.csv"
        assert _fill(path_csv, out) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        assert lines[21:31] == _fill_lines(out, "bridge")

    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_labelled_rows_keep_their_one_label(self, tmp_path, capsys, command):
        rows = ["0,0,0,observed", "1, 1.50 ,1e1,bridge", "2,2,2,observed",
                "3,3,3,bridge", "4,4,4,observed"]
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text("t,x,y,source\n" + "\n".join(rows), encoding="utf-8")
        assert _run(command, src, out, "--gap-start", "2", "--gap-count", "1",
                    *(["--method", "linear"] if command == "fill" else [])) == 0
        fill = _fill_lines(out, "linear") if command == "fill" else []
        kept = [f"{row}\r\n".encode() for row in rows[:2] + rows[3:]]
        assert out.read_bytes() == b"".join(
            [b"t,x,y,source\r\n", *kept[:2], *fill, *kept[2:]])


def _append_row(path, traj):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("1e9,0,0\r\n")
    return traj


def _touch(path, traj):
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    return traj


def _drop_last_point(path, traj):
    return Trajectory(traj.times[:-1], traj.coords[:-1])


class TestOutputReplace:
    """The output goes to a temporary file that replaces ``--out`` only when
    the copied input is the one that was read."""

    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_in_place_equals_separate_output(self, path_csv, tmp_path, capsys, command):
        separate = tmp_path / "separate.csv"
        assert _run(command, path_csv, separate, *GAP) == 0
        assert _run(command, path_csv, path_csv, *GAP) == 0
        assert path_csv.read_bytes() == separate.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "separate.csv"]

    @pytest.mark.parametrize("tamper", [_append_row, _touch, _drop_last_point])
    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_input_changed_after_read_is_data_error(self, path_csv, tmp_path, capsys,
                                                    monkeypatch, command, tamper):
        read = cli.read_trajectory_csv
        monkeypatch.setattr(cli, "read_trajectory_csv",
                            lambda path: tamper(path, read(path)))
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept as it was\n")
        assert _run(command, path_csv, out, *GAP) == 3
        assert out.read_bytes() == b"kept as it was\n"
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "out.csv"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bridgefill: error: {path_csv}: changed since it was read" in captured.err

    @pytest.mark.parametrize("tamper", [_append_row, _touch, _drop_last_point])
    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_input_changed_after_read_is_data_error_across_blocks(
            self, path_csv, tmp_path, capsys, monkeypatch, command, tamper):
        # 64 characters hold one or two rows, so a count that is one short
        # shows only after many blocks were written
        monkeypatch.setattr(trajectory, "_COPY_BLOCK", 64)
        self.test_input_changed_after_read_is_data_error(
            path_csv, tmp_path, capsys, monkeypatch, command, tamper)

    def test_undecodable_bytes_appended_during_the_copy_are_data_error(
            self, path_csv, tmp_path, capsys, monkeypatch):
        # The tampers above act before the copy opens --in. These bytes come
        # once it has begun, as the fill rows are written, and do not decode.
        write_rows = trajectory._write_rows

        def append_then_write(*args):
            with open(path_csv, "ab") as fh:
                fh.write(b"\xff\xfe,1,1\r\n")
            write_rows(*args)
        monkeypatch.setattr(trajectory, "_write_rows", append_then_write)
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept as it was\n")
        assert _run("fill", path_csv, out, *GAP) == 3
        assert out.read_bytes() == b"kept as it was\n"
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "out.csv"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bridgefill: error: {path_csv}: changed since it was read" in captured.err

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="names a pipe by /dev/fd/N")
    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_piped_input_is_data_error(self, path_csv, tmp_path, capsys, command):
        # Not a named FIFO: reopening one to copy its rows would wait forever.
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept as it was\n")
        read, write = os.pipe()
        try:
            os.write(write, path_csv.read_bytes())
            os.close(write)
            assert _run(command, f"/dev/fd/{read}", out, *GAP) == 3
        finally:
            os.close(read)
        assert out.read_bytes() == b"kept as it was\n"
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "out.csv"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"bridgefill: error: /dev/fd/{read}: --in is read twice, so it must "
                "be a regular file") in captured.err

    @pytest.mark.skipif(os.name != "posix", reason="makes a named FIFO")
    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_named_fifo_is_refused_unopened(self, tmp_path, capsys, monkeypatch,
                                            command):
        # Opening a FIFO without a writer blocks, so the guard must refuse it
        # by its stat alone. A read fails the test instead of hanging it.
        def read(path):
            raise AssertionError(f"{path} was read")
        monkeypatch.setattr(cli, "read_trajectory_csv", read)
        fifo, out = tmp_path / "in.csv", tmp_path / "out.csv"
        os.mkfifo(fifo)
        out.write_bytes(b"kept as it was\n")
        assert _run(command, fifo, out, *GAP) == 3
        assert out.read_bytes() == b"kept as it was\n"
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "out.csv"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"bridgefill: error: {fifo}: --in is read twice, so it must "
                "be a regular file") in captured.err

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="names a file by /dev/fd/N")
    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_regular_file_named_by_descriptor_is_read(self, path_csv, tmp_path, capsys,
                                                      command):
        # As ``--in /dev/stdin < in.csv`` names it.
        separate, out = tmp_path / "separate.csv", tmp_path / "out.csv"
        assert _run(command, path_csv, separate, *GAP) == 0
        fd = os.open(path_csv, os.O_RDONLY)
        try:
            assert _run(command, f"/dev/fd/{fd}", out, *GAP) == 0
        finally:
            os.close(fd)
        assert out.read_bytes() == separate.read_bytes()

    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_directory_out_is_data_error_leaving_no_file(self, path_csv, tmp_path,
                                                         capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        assert _run(command, path_csv, out, *GAP) == 3
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "out"]
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_device_out_is_written_not_replaced(self, path_csv, tmp_path, capsys,
                                                command):
        out = tmp_path / "null"
        out.symlink_to(os.devnull)
        assert _run(command, path_csv, out, *GAP) == 0
        assert out.is_symlink()
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "null"]

    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_symlinked_out_replaces_its_target(self, path_csv, tmp_path, capsys,
                                               command):
        separate, target, link = (tmp_path / n for n in ("s.csv", "t.csv", "l.csv"))
        assert _run(command, path_csv, separate, *GAP) == 0
        target.write_bytes(b"replaced\n")
        link.symlink_to(target.name)
        assert _run(command, path_csv, link, *GAP) == 0
        assert link.is_symlink()
        assert target.read_bytes() == separate.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["in.csv", "l.csv", "s.csv", "t.csv"]

    @pytest.mark.parametrize("command", ["gap", "fill"])
    def test_new_out_gets_the_mode_open_gives(self, path_csv, tmp_path, capsys,
                                              command):
        out, reference = tmp_path / "out.csv", tmp_path / "reference"
        umask = os.umask(0o027)
        try:
            open(reference, "w", encoding="utf-8").close()
            assert _run(command, path_csv, out, *GAP) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert stat.S_IMODE(reference.stat().st_mode) == 0o640
