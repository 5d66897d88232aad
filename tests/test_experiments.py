import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats

from bridgefill import experiments
from bridgefill.errors import InvalidSpecError, TooFewPointsError
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
from bridgefill.generators import generate
from bridgefill.metrics import radii_of_gyration
from bridgefill.seeding import child_seed

from .oracles import experiment_records


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
    records = [r for r in run_experiment(config).records if r["method"] == "linear"]
    assert len(records) == 2 * len(config.models)
    for i, record in enumerate(records):
        cell, rep = divmod(i, config.replicates)
        assert record["rog_after"] == pytest.approx(
            _linear_rog_after(config, cell, rep), rel=1e-12)


def test_zero_length_gap_keeps_summary_strict_json(tmp_path):
    # The uniformity-0 internal-state walker stands still through the gap
    # at this seed, so its bridge length ratio is inf.
    report = run_experiment(default_config("path-length", replicates=1, master_seed=7))
    [record] = [r for r in report.records
                if r["params"] == "step=1;uniformity=0" and r["method"] == "bridge"]
    assert record["length_ratio"] == math.inf
    path = tmp_path / "summary.json"
    write_summary_json(report, path)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads(path.read_text(), parse_constant=reject)
    [cell] = [c for c in summary["cells"]
              if c["params"] == "step=1;uniformity=0" and c["method"] == "bridge"]
    assert cell["count"] == 0
    assert cell["mean_error"] is None and cell["quartiles"] is None


def test_summary_statistics_skip_non_finite_values():
    spec = default_config("path-length").models[0]
    values = np.array([math.inf, 2.0, 4.0])
    cell = _summarise_cell("path-length", spec, "bridge", {"length_ratio": values})
    assert cell["count"] == 2
    assert cell["mean_error"] == 3.0
    assert cell["quartiles"] == [2.5, 3.0, 3.5]


# sha256 of the reports at the default master seed, 3 replicates.
GOLDEN = {
    "path-length": (
        default_config("path-length", replicates=3),
        "1c816e48c5f1f0f6350c17e86601d557b72f150e20fe65a4357aeeec5520505e",
        "26ab9d1503c37f5a70568f6cca26a84a0b8f0fe310131950b3e98e8f4617530a",
    ),
    "rog-loop": (
        default_config("rog", replicates=3),
        "89675a3b1d2b67dfdd99e1d7b78ebeea7aa6591255a027973add875f6aaa3eb8",
        "1b331038ad4466e8367470fab46ff984474df710156787e13dd584be7695b733",
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
    sigma_hat = np.array([r["sigma_hat"] for r in run_experiment(config).records
                          if r["method"] == "bridge"]).reshape(4, 500)
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
    assert list(run_experiment(config).records) == experiment_records(config)


def test_too_few_observed_points_raise():
    with pytest.raises(TooFewPointsError):
        run_experiment(_small("rog", steps=2, gap_start=1, gap_count=1))


def test_replicate_blocks_do_not_change_reports(monkeypatch):
    # Blocks of 2 replicates, the last one short, against one block.
    config = _small("rog", replicates=5, steps=99, gap_start=1, gap_count=49)
    whole = run_experiment(config)
    monkeypatch.setattr(experiments, "_BLOCK_POINTS", 2 * (config.steps + 1))
    blocked = run_experiment(config)
    assert blocked.records == whole.records
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
