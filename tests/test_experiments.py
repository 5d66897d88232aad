import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats

from bridgefill import experiments
from bridgefill.errors import InvalidSpecError, NonFiniteError, TooFewPointsError
from bridgefill.experiments import (
    _quartiles,
    _summarise_cell,
    config_from_dict,
    config_to_dict,
    default_config,
    run_experiment,
    write_records_csv,
    write_summary_json,
)
from bridgefill.generators import generate, spec_to_dict
from bridgefill.metrics import radii_of_gyration
from bridgefill.seeding import child_seed
from bridgefill.trajectory import excise_gap

from .oracles import expected_rog_squared, experiment_columns


def test_rog_summary_is_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        write_summary_json(run_experiment(default_config("rog", replicates=2)), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_path_length_records_are_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        report = run_experiment(default_config("path-length", replicates=2))
        write_records_csv(report, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("config", [
    default_config("path-length", replicates=3, master_seed=5),
    default_config("rog", replicates=3, master_seed=5),
], ids=["path-length", "rog"])
def test_config_round_trip(config):
    assert config_from_dict(config_to_dict(config)) == config


def test_replicates_beyond_the_seeding_keys_rejected():
    # replicate indices are seeding keys, which lie in [0, 2**32)
    config = default_config("rog")
    assert dataclasses.replace(config, replicates=2 ** 32).replicates == 2 ** 32
    with pytest.raises(InvalidSpecError, match=r"replicates must lie in \[1, 2\*\*32\]"):
        dataclasses.replace(config, replicates=2 ** 32 + 1)


def test_unknown_kind_rejected():
    # config_from_dict fails earlier, in default_config; this is the config's
    # own check.
    with pytest.raises(InvalidSpecError, match="kind must be one of"):
        dataclasses.replace(default_config("rog"), kind="bogus")


@pytest.mark.parametrize("kind", ["path-length", "rog"])
def test_negative_gap_count_rejected(kind):
    with pytest.raises(InvalidSpecError, match="gap_count must be >= 0"):
        dataclasses.replace(default_config(kind), gap_count=-1)


def test_non_finite_summary_writes_no_file(tmp_path):
    report = run_experiment(default_config("rog", replicates=1))
    report.summary["cells"][0]["std_dev"] = math.inf
    path = tmp_path / "summary.json"
    with pytest.raises(NonFiniteError, match="a result is not finite"):
        write_summary_json(report, path)
    assert not path.exists()


def _linear_rog_after(config, cell, rep):
    # Regenerate the replicate's path and replace its gap by points on the
    # straight line from the final observed point to the right anchor.
    traj = generate(config.models[cell], config.steps,
                    child_seed(config.master_seed, cell, rep, 0))
    left, right = config.gap_start - 1, config.gap_start + config.gap_count
    coords = traj.coords.copy()
    start = coords[-1]
    times = traj.times
    frac = (times[left + 1:right] - times[left]) / (times[right] - times[left])
    coords[left + 1:right] = start + frac[:, None] * (coords[right] - start)
    return float(radii_of_gyration(coords))


@pytest.mark.parametrize("gap_start, gap_count", [(1, 49), (40, 30)],
                         ids=["loop", "middle"])
def test_linear_fill_anchoring(gap_start, gap_count):
    # The fill runs from the final observed point to the right anchor over
    # the gap's own time geometry; a leading gap closes a loop.
    config = dataclasses.replace(
        default_config("rog", replicates=2, master_seed=3),
        steps=99, gap_start=gap_start, gap_count=gap_count,
    )
    columns = run_experiment(config).columns
    rog_after = [v for v, method in zip(columns["rog_after"], columns["method"])
                 if method == "linear"]
    assert len(rog_after) == 2 * len(config.models)
    for i, value in enumerate(rog_after):
        cell, rep = divmod(i, config.replicates)
        assert value == pytest.approx(
            _linear_rog_after(config, cell, rep), rel=1e-12)


def test_zero_length_gap_keeps_summary_strict_json(tmp_path):
    # The uniformity-0 internal-state walker stands still through the gap
    # at this seed, so its bridge length ratio is inf.
    report = run_experiment(default_config("path-length", replicates=1, master_seed=7))
    columns = report.columns
    [ratio] = [r for r, params, method in zip(
        columns["length_ratio"], columns["params"], columns["method"])
        if params == "step=1;uniformity=0" and method == "bridge"]
    assert ratio == math.inf
    path = tmp_path / "summary.json"
    write_summary_json(report, path)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads(path.read_text(), parse_constant=reject)
    [cell] = [c for c in summary["cells"]
              if c["params"] == "step=1;uniformity=0" and c["method"] == "bridge"]
    assert cell["count"] == 0
    assert cell["mean_error"] is None and cell["quartiles"] is None


def test_close_parameters_get_distinct_labels():
    # The two sigmas agree to the 6 significant digits of ``:g``.
    config = config_from_dict({
        "kind": "path-length", "replicates": 2,
        "models": [{"model": "angular-walk", "sigma": s} for s in (0.1000001, 0.1000002)]})
    report = run_experiment(config)
    labels = list(dict.fromkeys(report.columns["params"]))
    assert [c["params"] for c in report.summary["cells"]] == [
        label for label in labels for _ in range(2)]
    assert len(labels) == 2
    for label, spec in zip(labels, config.models):
        parsed = dict(pair.split("=") for pair in label.split(";"))
        params = {k: v for k, v in spec_to_dict(spec).items() if k != "model"}
        assert {k: float(v) for k, v in parsed.items()} == params


def test_summary_statistics_skip_non_finite_values():
    values = np.array([math.inf, 2.0, 4.0, math.nan])
    cell = _summarise_cell("path-length", {"length_ratio": values})
    assert cell["count"] == 2
    assert cell["mean_error"] == 3.0
    assert cell["quartiles"] == [2.5, 3.0, 3.5]


def test_overflowing_std_dev_raises():
    # At sigma 1e-300 the bridge's length ratios near 1e294 have a finite
    # mean, but their squared deviations overflow.
    config = config_from_dict({
        "kind": "path-length", "replicates": 20,
        "models": [{"model": "discrete-brownian", "sigma": 1e-300}]})
    with pytest.raises(NonFiniteError, match="a summary sum overflows"):
        run_experiment(config)


@pytest.mark.parametrize("sigma", [1e200, 1e153])
def test_unscorable_bridge_rows_record_nan(sigma):
    # At 1e200 the fitted sigma overflows to inf; at 1e153 it is finite but
    # its bridge variance overflows. Either way the bridge length cannot be
    # scored, while the chord can. Warnings are errors here, so the run
    # must not leak numpy's overflow warning either.
    config = config_from_dict({
        "kind": "path-length", "replicates": 2,
        "models": [{"model": "discrete-brownian", "sigma": sigma}]})
    report = run_experiment(config)
    columns = report.columns
    for method, length, ratio in zip(columns["method"], columns["estimated_length"],
                                     columns["length_ratio"]):
        if method == "bridge":
            assert math.isnan(length) and math.isnan(ratio)
        else:
            assert math.isfinite(length) and math.isfinite(ratio)
    counts = {cell["method"]: cell["count"] for cell in report.summary["cells"]}
    assert counts == {"bridge": 0, "linear": 2}


# sha256 of the reports at the default master seed, at 3 replicates and at
# the default 1000, whose blocks of rows span cells.
GOLDEN = {
    "path-length": (
        default_config("path-length", replicates=3),
        "94a5c49346858ef7832d141fe5bd9d1696362cdff9dd8d827ce2a473f4c3804f",
        "0d10a4e7a116c6bcf5a7de279acff318d357982a3ad72d2a8f7a3bc204416c80",
    ),
    "rog-loop": (
        default_config("rog", replicates=3),
        "fadf58f8513a94170b6c2ee64911a29ba2533133b16901d217b7bff680d80370",
        "6421422dcee57eb427965feec6990cd65b30a64d98793c3347fd7fb0bbd64ebb",
    ),
    "path-length-default": (
        default_config("path-length"),
        "aed2a74ecf65364432a70c03d32ded371ecb70713a4018a369abd20d6da9a4a7",
        "d0ceb2351ea7b3b9ffec998b4e83924bbd25149acdcbdcb85cf0f7a626cfc8f9",
    ),
    "rog-loop-default": (
        default_config("rog"),
        "c50c109cee9ecd4aaab52e00ac1552d114190089400bcc4a079ec473e93e0098",
        "27f455d2e8ebc79a30f4d7a6e749925c0f6c7e531997a9cf605a43509034ea1b",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_reports(name, tmp_path):
    config, records_sha, summary_sha = GOLDEN[name]
    report = run_experiment(config)
    records, summary = tmp_path / "records.csv", tmp_path / "summary.json"
    write_records_csv(report, records)
    write_summary_json(report, summary)
    assert hashlib.sha256(records.read_bytes()).hexdigest() == records_sha
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_sha


def test_bridge_length_is_unbiased_on_brownian_cells():
    # The paper's claim on the four discrete-brownian cells: the bridge's
    # mean length ratio is 1 within 4 standard errors, while the straight
    # line falls short of it.
    config = default_config("path-length", replicates=50)
    config = dataclasses.replace(config, models=config.models[:4])
    cells = run_experiment(config).summary["cells"]
    for bridge, linear in zip(cells[::2], cells[1::2]):
        assert (bridge["method"], linear["method"]) == ("bridge", "linear")
        assert bridge["model"]["model"] == "discrete-brownian"
        se = bridge["std_dev"] / math.sqrt(bridge["count"])
        assert abs(bridge["mean_error"] - 1.0) <= 4.0 * se, bridge["params"]
        assert linear["mean_error"] < bridge["mean_error"], bridge["params"]


def test_sigma_hat_follows_its_exact_law_on_brownian_cells():
    # On Brownian data each of the N observed triples adds an independent
    # chi-squared(2) residual, so an unclamped 2 N sigma_hat^2 / sigma^2 is
    # chi-squared(2 N). The 100 observed points of a path-length replicate
    # give N = 49. The threshold was fixed before the test was first run.
    config = default_config("path-length", replicates=500)
    config = dataclasses.replace(config, models=config.models[:4])
    n = 49
    columns = run_experiment(config).columns
    sigma_hat = np.array([s for s, method in zip(columns["sigma_hat"], columns["method"])
                          if method == "bridge"]).reshape(4, 500)
    for spec, cell in zip(config.models, sigma_hat):
        result = stats.kstest(2 * n * (cell / spec.sigma) ** 2, stats.chi2(2 * n).cdf)
        assert result.pvalue > 1e-3, spec


def _small(kind, **fields):
    config = default_config(kind, replicates=3, master_seed=9)
    return dataclasses.replace(config, **fields)


@pytest.mark.parametrize("config", [
    _small("path-length"),
    _small("rog", steps=199, gap_start=1, gap_count=99),
    _small("rog", steps=199, gap_start=40, gap_count=100),
    _small("path-length", gap_count=0),
    _small("rog", steps=30, gap_start=5, gap_count=0),
    _small("path-length", steps=4, gap_start=1, gap_count=1),
    _small("rog", steps=4, gap_start=2, gap_count=1),
    _small("rog", steps=4, gap_start=3, gap_count=1),
    _small("path-length", master_seed=2 ** 64 + 5),
    _small("rog", steps=199, gap_start=1, gap_count=99, master_seed=2 ** 64 + 5),
], ids=["path-length", "rog-loop", "rog-middle", "path-length-no-gap",
        "rog-no-gap", "path-length-short", "rog-short-loop", "rog-short-end",
        "path-length-three-word-master", "rog-three-word-master"])
def test_records_equal_per_replicate_reference(config):
    assert run_experiment(config).columns == experiment_columns(config)


@pytest.mark.parametrize("kind, scores", [
    ("path-length", ["true_length", "estimated_length", "length_ratio"]),
    ("rog", ["rog_before", "rog_after", "rog_error"]),
], ids=["path-length", "rog"])
def test_columns_are_the_record_table(tmp_path, kind, scores):
    config = default_config(kind, replicates=3, master_seed=4)
    report = run_experiment(config)
    write_records_csv(report, tmp_path / "records.csv")
    # Neither the run nor the CSV builds a row dict.
    assert "records" not in vars(report)
    columns = report.columns
    assert list(columns) == [
        "model", "params", "replicate", "seed", "sigma_hat", "method", *scores]
    assert {len(c) for c in columns.values()} == {2 * len(config.models) * 3}
    assert columns == experiment_columns(config)


def test_rog_bridge_records_match_expected_rog_squared():
    # Given its path, a bridge record's rog_after^2 has the closed-form mean
    # E[RoG^2] of a fill from the path's final point. The threshold, 4
    # standard errors over 300 records, was fixed before the first run.
    config = default_config("rog", replicates=100, master_seed=11)
    columns = run_experiment(config).columns
    differences = []
    for i in range(0, len(columns["method"]), 2):
        assert columns["method"][i] == "bridge"
        spec = config.models[i // (2 * config.replicates)]
        gapped = excise_gap(generate(spec, config.steps, columns["seed"][i]),
                            config.gap_start, config.gap_count)
        expected = expected_rog_squared(gapped, columns["sigma_hat"][i],
                                        start=gapped.observed.coords[-1])
        differences.append(columns["rog_after"][i] ** 2 - expected)
    se = np.std(differences, ddof=1) / math.sqrt(len(differences))
    assert abs(np.mean(differences)) <= 4.0 * se


def test_too_few_observed_points_raise():
    with pytest.raises(TooFewPointsError):
        run_experiment(_small("rog", steps=2, gap_start=1, gap_count=1))


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("config", [
    _small("path-length", models=default_config("path-length").models[2:6]),
    _small("rog", replicates=5, steps=99, gap_start=1, gap_count=49),
], ids=["path-length", "rog"])
def test_replicate_blocks_do_not_change_reports(monkeypatch, config, rows):
    # Blocks of 1, 2 or 5 rows against one block. With 3- or 5-replicate
    # cells, a block can end inside a cell and hold the tail of one cell and
    # the head of the next.
    whole = run_experiment(config)
    monkeypatch.setattr(experiments, "_BLOCK_POINTS", rows * (config.steps + 1))
    blocked = run_experiment(config)
    assert blocked.columns == experiment_columns(config)
    assert blocked.columns == whole.columns
    assert blocked.summary == whole.summary


def test_quartiles_equal_numpy_percentile():
    # Sizes 1 to 60, ties, zeros and magnitudes from 1e-300 to 1e300.
    rng = np.random.default_rng(12)
    for n in [*range(1, 61), 101, 1000]:
        for _ in range(20):
            spread = rng.uniform(0.0, 690.0)
            values = np.exp(rng.uniform(-spread, spread, n))
            values[rng.random(n) < 0.2] = 0.0
            values[rng.random(n) < 0.3] = values[0]
            expected = np.percentile(values, [25.0, 50.0, 75.0]).tolist()
            assert _quartiles(values) == expected
