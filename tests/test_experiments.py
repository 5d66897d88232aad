import dataclasses
import json
import math

import pytest

from bridgefill.experiments import (
    _summarise_cell,
    config_from_dict,
    config_to_dict,
    default_config,
    run_experiment,
    write_records_csv,
    write_summary_json,
)
from bridgefill.generators import generate
from bridgefill.metrics import radius_of_gyration
from bridgefill.seeding import child_seed
from bridgefill.trajectory import Trajectory


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
    dataclasses.replace(default_config("rog"), fill_anchors="gap"),
], ids=["path-length", "rog", "rog-gap"])
def test_config_round_trip(config):
    assert config_from_dict(config_to_dict(config)) == config


def _linear_rog_after(config, cell, rep):
    # Regenerate the replicate's path and replace its gap by points on the
    # straight line from the anchoring's start point to the right anchor.
    traj = generate(config.models[cell], config.steps,
                    child_seed(config.master_seed, cell, rep, 0))
    left, right = config.gap_start - 1, config.gap_start + config.gap_count
    coords = traj.coords.copy()
    start = coords[-1] if config.fill_anchors == "loop" else coords[left]
    times = traj.times
    frac = (times[left + 1:right] - times[left]) / (times[right] - times[left])
    coords[left + 1:right] = start + frac[:, None] * (coords[right] - start)
    return radius_of_gyration(Trajectory(times, coords))


@pytest.mark.parametrize("anchors", ["loop", "gap"])
def test_linear_fill_anchoring(anchors):
    # "loop" runs from the final observed point to the right anchor, "gap"
    # runs along the anchor chord; both keep the gap's own time geometry.
    config = dataclasses.replace(
        default_config("rog", replicates=2, master_seed=3),
        steps=99, gap_start=1, gap_count=49, fill_anchors=anchors,
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
    records = [{"length_ratio": v} for v in (math.inf, 2.0, 4.0)]
    cell = _summarise_cell("path-length", records, spec, "bridge")
    assert cell["count"] == 2
    assert cell["mean_error"] == 3.0
    assert cell["quartiles"] == [2.5, 3.0, 3.5]
