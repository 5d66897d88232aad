"""Tests of the benchmark itself: seeded inputs, span arithmetic, and that
every output check rejects a corrupted result.

    python3 -m pytest bench/tests -q
"""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from workloads import FillLarge, PathLength, Rog

SMALL_FILL = dict(steps=3000, gap_start=1200, gap_count=100, realisations=50)


@pytest.fixture(scope="module")
def fill(bf, tmp_path_factory):
    workload = FillLarge(bf, 7, tmp_path_factory.mktemp("fill"), **SMALL_FILL)
    return workload, workload.run(0)


def test_inputs_are_deterministic_per_seed(bf, tmp_path):
    assert PathLength(bf, 5, tmp_path).config(3) == PathLength(bf, 5, tmp_path).config(3)
    assert PathLength(bf, 5, tmp_path).config(3) != PathLength(bf, 6, tmp_path).config(3)
    csv = {}
    for name, seed in (("a", 11), ("b", 11), ("c", 12)):
        (tmp_path / name).mkdir()
        workload = FillLarge(bf, seed, tmp_path / name, **SMALL_FILL)
        csv[name] = workload.in_path.read_bytes()
        assert workload.argv(2)[workload.argv(2).index("--seed") + 1] == str(seed + 2)
    assert csv["a"] == csv["b"] != csv["c"]


def test_self_times_subtract_direct_children():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 40, 0, 0],
        ["b", 15, 25, 1, 0],
        ["a", 50, 60, 0, 0],
        ["root", 200, 230, -1, 1],
    ]
    assert tracing.self_times(spans) == {
        "root": [2, 60 + 30, 130],
        "a": [2, 20 + 10, 40],
        "b": [1, 10, 10],
    }
    # At half speed for op 0; op 1 is left out.
    assert tracing.self_times(spans, {0: 2.0}) == {
        "root": [1, 30, 50],
        "a": [2, 15, 20],
        "b": [1, 5, 5],
    }


def test_tracer_records_nesting_and_restores_patches():
    class Owner:
        pass

    def inner(x):
        return x + 1

    def outer(x):
        return Owner.inner(x) * 2

    Owner.inner, Owner.outer = staticmethod(inner), staticmethod(outer)
    tracer = tracing.Tracer([(Owner, "inner", "inner", None),
                             (Owner, "outer", "outer", None),
                             (Owner, "absent", "absent", None)])
    assert tracer.missing == ["Owner.absent"]
    tracer.install(op=3)
    assert Owner.outer(1) == 4
    tracer.uninstall()
    assert Owner.outer(1) == 4
    assert [(name, parent, op) for name, _, _, parent, op in tracer.spans] == [
        ("outer", -1, 3), ("inner", 0, 3)]
    start, end = tracer.spans[0][1:3]
    assert start <= tracer.spans[1][1] <= tracer.spans[1][2] <= end


def test_traced_op_is_fully_accounted(bf, tmp_path):
    workload = PathLength(bf, 1, tmp_path, replicates=1)
    tracer = tracing.Tracer(tracing.patch_points(bf))
    assert tracer.missing == []
    tracer.install(op=1)
    try:
        result = workload.run(1)
    finally:
        tracer.uninstall()
    assert workload.check(1, result) == []
    metrics = tracing.layer_metrics(tracer, {1: 1.0}, 0.0)
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".share"))
    assert shares == pytest.approx(1.0)
    assert metrics["estimator.estimate_sigma.calls"][0] == 16
    assert metrics["experiments.run_experiment.calls"][0] == 1


def _scaled(records, key, factor):
    return [{**r, key: r[key] * factor} for r in records]


def test_path_length_check_rejects_scaled_sigma(bf, tmp_path):
    workload = PathLength(bf, 2, tmp_path, replicates=2)
    config, report = workload.run(0)
    assert workload.check(0, (config, report)) == []
    bad = replace(report, records=tuple(_scaled(report.records, "sigma_hat", 1.0001)))
    assert any("sigma_hat" in p for p in workload.check(0, (config, bad)))
    records = list(report.records)
    records[1] = {**records[1], "estimated_length": records[1]["estimated_length"] * 1.01}
    bad = replace(report, records=tuple(records))
    assert any("chord" in p for p in workload.check(0, (config, bad)))


def test_rog_check_rejects_wrong_rog_before(bf, tmp_path):
    workload = Rog(bf, 2, tmp_path, replicates=1)
    config, report = workload.run(0)
    assert workload.check(0, (config, report)) == []
    bad = replace(report, records=tuple(_scaled(report.records, "rog_before", 1.001)))
    assert workload.check(0, (config, bad))
    bad = replace(report, records=tuple(_scaled(report.records, "rog_after", math.nan)))
    assert workload.check(0, (config, bad))


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def test_fill_check_accepts_the_program_output(fill):
    workload, result = fill
    assert result[0] == 0
    assert workload.check(0, result) == []


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:500] + lines[501:],                                 # dropped row
    lambda lines: lines[:1250] + lines[1251:],                               # dropped fill row
    lambda lines: lines[:10] + [lines[11], lines[10]] + lines[12:],          # swapped rows
    lambda lines: lines[:20] + [lines[20].replace(",", "1,", 1)] + lines[21:],  # shifted time
    lambda lines: lines[:1250] + [lines[1250].replace("bridge", "observed")] + lines[1251:],
])
def test_fill_check_rejects_corrupted_csv(fill, edit, tmp_path):
    workload, result = fill
    out = tmp_path / "out.csv"
    out.write_bytes(workload.out_path.read_bytes())
    _rewrite(out, edit)
    assert checks.check_fill_csv(workload.in_path, out, workload.gap_start,
                                 workload.gap_count, "bridge")


def test_fill_check_rejects_corrupted_summary(fill):
    workload, (code, stdout) = fill
    summary = json.loads(stdout)
    for key, value in (("sigma_hat", summary["sigma_hat"] * 1.0001),
                       ("expected_gap_length", summary["chord_length"] * 0.99)):
        assert workload.check(0, (code, json.dumps({**summary, key: value})))
    est = summary["rog_estimate"]
    shifted = {**est, "mean": est["mean"] + 10 * est["std_error"]}
    assert workload.check(0, (code, json.dumps({**summary, "rog_estimate": shifted})))
    assert workload.check(0, (3, stdout)) == ["exit code 3"]


def test_bridge_oracle_matches_bridge_moments():
    rng = np.random.default_rng(0)
    times = np.array([1.0, 2.5, 3.0])
    draws = checks.bridge_draws((1.0, 2.0), (5.0, -2.0), 4.0, 0.5, times, 20000, rng)
    frac = times / 4.0
    mean = np.array([1.0, 2.0]) + frac[:, None] * np.array([4.0, -4.0])
    var = 0.25 * times * (4.0 - times) / 4.0
    assert np.allclose(draws.mean(axis=0), mean, atol=0.02)
    assert np.allclose(draws.var(axis=0), np.column_stack([var, var]), rtol=0.05)


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["path-length", "rog", "fill-large"]
    e2e = run.end_to_end(1, 0, [(1, 1_000_000, 1.0)], [(0.1, 1.0)])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, u) for k, (_, u) in e2e.items()]
    layers = tracing.layer_metrics(tracing.Tracer(), {}, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, u) for k, (_, u) in layers.items()]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
