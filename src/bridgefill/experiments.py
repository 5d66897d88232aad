"""Batch experiments: gap a simulated path, re-estimate, and score.

Two experiment kinds are built in:

* ``path-length``: 200-point paths, the middle 100 points removed. The
  bridge method scores the closed-form expected gap length against the
  deleted segment's measured length; the linear method scores the anchor
  chord. Default grid: discrete-brownian sigma in {0.01, 0.1, 1, 10} pinned
  to displacement (10, 0), angular-walk sigma in {0.1, 0.5, 1, 5},
  internal-state uniformity in {0, 0.33, 0.66, 1}, run-tumble l in
  {0.1, 0.5, 1, 3}.
* ``rog``: 1000-point paths, points 1..499 removed (the first point stays
  as the left anchor). Each replicate draws a single bridge realisation,
  splices it in, and compares whole-path radius of gyration before and
  after; the linear fill is scored on the same generated path. Models:
  fixed-velocity v=1, angular-walk sigma=0.1, run-tumble l=1.

``fill_anchors`` is passed to ``gapfill.fill_gap`` as its ``anchors``:
``gap`` pins the replacement segment across the gap's own endpoints,
``loop`` pins it from the final observed point back to the gap's right
anchor, so a leading gap is replaced by an excursion that closes the
observed remainder into a loop. The rog experiment defaults to ``loop``
(its reference summary statistics correspond to that anchoring); the
path-length experiment uses ``gap``.

Every replicate derives its streams from the master seed via
``child_seed(master, cell_index, replicate, purpose)`` with purpose 0 for
path generation and 1 for the fill, so reports are byte-identical across
reruns and independent of execution order. Summaries embed the seed, the
model grid, and the package version. Each summary cell's statistics cover
the finite values only, and ``count`` says how many there were: a
path-length replicate whose true gap length is 0 keeps its ``inf`` ratio in
the records but not in the summary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import BACKEND
from ._version import __version__
from .errors import InvalidSpecError
from .estimator import SearchConfig, estimate_sigma
from .gapfill import ANCHOR_MODES, METHODS, estimate_gap_length, fill_gap
from .generators import ModelSpec, generate, spec_from_dict, spec_to_dict
from .metrics import gap_metrics, path_length
from .seeding import child_seed
from .trajectory import excise_gap, splice_fill

PATH_LENGTH_KIND = "path-length"
ROG_KIND = "rog"
KINDS = (PATH_LENGTH_KIND, ROG_KIND)

DEFAULT_MASTER_SEED = 20260301

_RECORD_COLUMNS = {
    PATH_LENGTH_KIND: (
        "model", "params", "replicate", "seed", "sigma_hat", "method",
        "true_length", "estimated_length", "length_ratio",
    ),
    ROG_KIND: (
        "model", "params", "replicate", "seed", "sigma_hat", "method",
        "rog_before", "rog_after", "rog_error",
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    models: tuple[ModelSpec, ...]
    steps: int
    gap_start: int
    gap_count: int
    replicates: int
    master_seed: int
    fill_anchors: str = "gap"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSpecError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not self.models:
            raise InvalidSpecError("at least one model is required")
        if self.replicates < 1:
            raise InvalidSpecError("replicates must be >= 1")
        if self.gap_start < 1 or self.gap_start + self.gap_count > self.steps:
            raise InvalidSpecError(
                "gap must keep both anchors: need 1 <= gap_start and "
                "gap_start + gap_count <= steps"
            )
        if self.fill_anchors not in ANCHOR_MODES:
            raise InvalidSpecError(
                f"fill_anchors must be one of {ANCHOR_MODES}, "
                f"got {self.fill_anchors!r}"
            )


def default_config(
    kind: str,
    replicates: int = 1000,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> ExperimentConfig:
    """The built-in configuration for either experiment kind."""
    if kind == PATH_LENGTH_KIND:
        models: tuple[ModelSpec, ...] = tuple(
            [spec_from_dict({"model": "discrete-brownian", "sigma": s,
                             "target_x": 10.0, "target_y": 0.0})
             for s in (0.01, 0.1, 1.0, 10.0)]
            + [spec_from_dict({"model": "angular-walk", "sigma": s})
               for s in (0.1, 0.5, 1.0, 5.0)]
            + [spec_from_dict({"model": "internal-state", "uniformity": u})
               for u in (0.0, 0.33, 0.66, 1.0)]
            + [spec_from_dict({"model": "run-tumble", "l": l})
               for l in (0.1, 0.5, 1.0, 3.0)]
        )
        return ExperimentConfig(
            kind=kind, models=models, steps=199, gap_start=50, gap_count=100,
            replicates=replicates, master_seed=master_seed,
        )
    if kind == ROG_KIND:
        models = (
            spec_from_dict({"model": "fixed-velocity", "v": 1.0}),
            spec_from_dict({"model": "angular-walk", "sigma": 0.1}),
            spec_from_dict({"model": "run-tumble", "l": 1.0}),
        )
        return ExperimentConfig(
            kind=kind, models=models, steps=999, gap_start=1, gap_count=499,
            replicates=replicates, master_seed=master_seed,
            fill_anchors="loop",
        )
    raise InvalidSpecError(f"kind must be one of {KINDS}, got {kind!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a configuration from a JSON-compatible mapping.

    Unspecified fields fall back to the defaults of the requested kind.
    """
    data = dict(data)
    kind = data.pop("kind", None)
    base = default_config(
        kind,
        replicates=int(data.pop("replicates", 1000)),
        master_seed=int(data.pop("master_seed", DEFAULT_MASTER_SEED)),
    )
    models = data.pop("models", None)
    fill_anchors = data.pop("fill_anchors", base.fill_anchors)
    overrides = {}
    for key in ("steps", "gap_start", "gap_count"):
        if key in data:
            overrides[key] = int(data.pop(key))
    if data:
        raise InvalidSpecError(f"unknown config field(s): {sorted(data)}")
    return ExperimentConfig(
        kind=base.kind,
        models=(
            tuple(spec_from_dict(m) for m in models)
            if models is not None
            else base.models
        ),
        steps=overrides.get("steps", base.steps),
        gap_start=overrides.get("gap_start", base.gap_start),
        gap_count=overrides.get("gap_count", base.gap_count),
        replicates=base.replicates,
        master_seed=base.master_seed,
        fill_anchors=fill_anchors,
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "kind": config.kind,
        "models": [spec_to_dict(m) for m in config.models],
        "steps": config.steps,
        "gap_start": config.gap_start,
        "gap_count": config.gap_count,
        "replicates": config.replicates,
        "master_seed": config.master_seed,
        "fill_anchors": config.fill_anchors,
    }


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[dict, ...]
    summary: dict


def _params_label(spec: ModelSpec) -> str:
    d = spec_to_dict(spec)
    d.pop("model")
    return ";".join(f"{k}={d[k]:g}" for k in sorted(d))


def _run_replicate(config: ExperimentConfig, cell: int, rep: int,
                   spec: ModelSpec) -> list[dict]:
    path_seed = child_seed(config.master_seed, cell, rep, 0)
    fill_seed = child_seed(config.master_seed, cell, rep, 1)
    traj = generate(spec, config.steps, path_seed)
    gapped = excise_gap(traj, config.gap_start, config.gap_count)
    est = estimate_sigma(gapped.observed(), SearchConfig())
    base = {
        "model": spec_to_dict(spec)["model"],
        "params": _params_label(spec),
        "replicate": rep,
        "seed": path_seed,
        "sigma_hat": est.sigma_m,
    }
    records = []
    if config.kind == PATH_LENGTH_KIND:
        i_left = config.gap_start - 1
        i_right = config.gap_start + config.gap_count
        true_length = path_length(traj.segment(i_left, i_right + 1))
        chord = float(np.hypot(*gapped.chord))
        expected = estimate_gap_length(gapped, est.sigma_m)
        for method, estimated in (("bridge", expected), ("linear", chord)):
            ratio = estimated / true_length if true_length > 0.0 else (
                1.0 if estimated == 0.0 else math.inf
            )
            records.append({
                **base, "method": method, "true_length": true_length,
                "estimated_length": estimated, "length_ratio": ratio,
            })
    else:
        for method in METHODS:
            fill = fill_gap(gapped, method, est.sigma_m, fill_seed,
                            config.fill_anchors)
            spliced = splice_fill(gapped, fill, method)
            m = gap_metrics(traj, gapped, spliced)
            records.append({
                **base, "method": method, "rog_before": m.rog_before,
                "rog_after": m.rog_after, "rog_error": m.rog_error,
            })
    return records


def _statistics(values: np.ndarray) -> dict:
    """Mean, sample standard deviation, quartiles and the count of values
    beyond 1.5 IQR of the quartiles; all None when ``values`` is empty."""
    if len(values) == 0:
        return dict.fromkeys(("mean_error", "std_dev", "quartiles", "outliers"))
    q1, q2, q3 = (float(q) for q in np.percentile(values, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    mean = math.fsum(values) / len(values)
    if len(values) > 1:
        std = math.sqrt(
            math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
        )
    else:
        std = 0.0
    return {
        "mean_error": mean,
        "std_dev": std,
        "quartiles": [q1, q2, q3],
        "outliers": int(
            ((values < q1 - 1.5 * iqr) | (values > q3 + 1.5 * iqr)).sum()
        ),
    }


def _summarise_cell(kind: str, records: list[dict], spec: ModelSpec,
                    method: str) -> dict:
    value_key = "length_ratio" if kind == PATH_LENGTH_KIND else "rog_error"
    values = np.array([r[value_key] for r in records])
    values = values[np.isfinite(values)]
    cell = {
        "model": spec_to_dict(spec),
        "params": _params_label(spec),
        "method": method,
        "count": len(values),
        **_statistics(values),
    }
    if kind == ROG_KIND:
        cell["mean_rog_before"] = math.fsum(
            r["rog_before"] for r in records
        ) / len(records)
        cell["mean_rog_after"] = math.fsum(
            r["rog_after"] for r in records
        ) / len(records)
        histogram: dict[str, int] = {}
        for v in values:
            key = f"{round(v, 1):.1f}"
            histogram[key] = histogram.get(key, 0) + 1
        cell["histogram"] = {k: histogram[k] for k in sorted(histogram, key=float)}
    return cell


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all replicates of the configured experiment.

    The report holds one record per (model, replicate, method) plus one
    summary cell per (model, method).
    """
    records: list[dict] = []
    cells = []
    for cell_index, spec in enumerate(config.models):
        cell_records: list[dict] = []
        for rep in range(config.replicates):
            cell_records.extend(_run_replicate(config, cell_index, rep, spec))
        for method in METHODS:
            by_method = [r for r in cell_records if r["method"] == method]
            cells.append(_summarise_cell(config.kind, by_method, spec, method))
        records.extend(cell_records)
    summary = {
        "kind": config.kind,
        "config": config_to_dict(config),
        "version": __version__,
        "backend": BACKEND,
        "cells": cells,
    }
    return ExperimentReport(
        config=config, records=tuple(records), summary=summary
    )


def write_records_csv(report: ExperimentReport, path: str | Path) -> None:
    """Per-replicate records as CSV; floats keep full precision."""
    columns = _RECORD_COLUMNS[report.config.kind]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for record in report.records:
            row = []
            for col in columns:
                v = record[col]
                row.append(repr(float(v)) if isinstance(v, float) else str(v))
            fh.write(",".join(row) + "\n")


def write_summary_json(report: ExperimentReport, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(report.summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
