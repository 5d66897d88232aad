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
  after; the linear fill is scored on the same generated path. Both fills
  start at the final observed point, not at the left anchor, and end at
  the gap's right anchor over the gap's own time geometry, so the leading
  gap is replaced by an excursion that closes the observed remainder into
  a loop; the reference summary statistics correspond to this anchoring.
  Models: fixed-velocity v=1, angular-walk sigma=0.1, run-tumble l=1.

Each (model, replicates) cell runs as arrays, one row per replicate, in
blocks that bound memory: one generator call builds the block's paths,
excision is slicing at fixed indices, and one estimator call fits every
row. A cell's result is one table of (2, replicates) record columns, the
fill method on axis 0 in ``METHODS`` order; for ``rog`` one kernel call
builds both fills of every replicate along that axis (the straight line
being the bridge with sigma 0). Records, CSV and summary all read that
table. Every value equals what the single-path functions give for that
replicate, bit for bit.

Every replicate still has its own streams: the key ``(cell_index,
replicate, purpose)`` has the child seed ``SeedSequence((master,
cell_index, replicate, purpose))``, as ``seeding.child_seed`` derives it,
and the replicate draws from its streams in the single-path order, so a
record's ``seed`` regenerates its path with ``generators.generate``.
Purpose 0 generates the path; only ``rog`` derives purpose 1, for its
bridge fill. One ``seeding.child_states`` pass per run derives the seeds
and PCG64 states of every key of the run, and each block starts its
Generators from its slice of them. Reports are byte-identical across reruns
and independent of how replicates are blocked. Summaries embed the seed,
the model grid, and the package version. Each summary cell's statistics
cover the finite values only, and ``count`` says how many there were: a
path-length replicate whose true gap length is 0 keeps its ``inf`` ratio in
the records but not in the summary.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import _kernels
from ._version import __version__
from .bridge import expected_path_length
from .errors import InvalidSpecError
from .estimator import estimate_sigmas
from .generators import (
    AngularWalk,
    DiscreteBrownian,
    FixedVelocity,
    InternalStateWalk,
    ModelSpec,
    RunTumble,
    _json_number,
    generate_many,
    spec_from_dict,
    spec_to_dict,
)
from .metrics import path_lengths, radii_of_gyration
from .seeding import child_states, rngs_from_words

PATH_LENGTH_KIND = "path-length"
ROG_KIND = "rog"
KINDS = (PATH_LENGTH_KIND, ROG_KIND)
# Fill methods in the order each replicate's records list them.
METHODS = ("bridge", "linear")

DEFAULT_MASTER_SEED = 20260301

# Path points held per block of replicates: a rog block of about 130
# 1000-point replicates keeps its largest arrays near 4 MB each.
_BLOCK_POINTS = 1 << 17

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

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSpecError(
                f"kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not self.models:
            raise InvalidSpecError("at least one model is required")
        if not 1 <= self.replicates <= 2 ** 32:  # an index is a 32-bit seeding key
            raise InvalidSpecError(
                f"replicates must lie in [1, 2**32], got {self.replicates}")
        if self.master_seed < 0:
            raise InvalidSpecError(
                f"master_seed must be >= 0, got {self.master_seed}")
        if self.gap_start < 1 or self.gap_start + self.gap_count > self.steps:
            raise InvalidSpecError(
                "gap must keep both anchors: need 1 <= gap_start and "
                "gap_start + gap_count <= steps"
            )


def default_config(
    kind: str,
    replicates: int = 1000,
    master_seed: int = DEFAULT_MASTER_SEED,
) -> ExperimentConfig:
    """The built-in configuration for either experiment kind."""
    if kind == PATH_LENGTH_KIND:
        models: tuple[ModelSpec, ...] = (
            *(DiscreteBrownian(sigma=s, target_x=10.0, target_y=0.0)
              for s in (0.01, 0.1, 1.0, 10.0)),
            *(AngularWalk(sigma=s) for s in (0.1, 0.5, 1.0, 5.0)),
            *(InternalStateWalk(uniformity=u) for u in (0.0, 0.33, 0.66, 1.0)),
            *(RunTumble(l=l) for l in (0.1, 0.5, 1.0, 3.0)),
        )
        return ExperimentConfig(
            kind=kind, models=models, steps=199, gap_start=50, gap_count=100,
            replicates=replicates, master_seed=master_seed,
        )
    if kind == ROG_KIND:
        models = (FixedVelocity(v=1.0), AngularWalk(sigma=0.1), RunTumble(l=1.0))
        return ExperimentConfig(
            kind=kind, models=models, steps=999, gap_start=1, gap_count=499,
            replicates=replicates, master_seed=master_seed,
        )
    raise InvalidSpecError(f"kind must be one of {KINDS}, got {kind!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a configuration from a JSON-compatible mapping.

    Unspecified fields fall back to the defaults of the requested kind.
    Raises InvalidSpecError on an unknown field, a fractional,
    non-numeric or float-overflowing count, or models that are not a list
    of model mappings.
    """
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = set(data) - set(types)
    if unknown:
        raise InvalidSpecError(f"unknown config field(s): {sorted(unknown)}")
    checked = {}
    for key, value in data.items():
        if key == "models":
            if not isinstance(value, list):
                raise InvalidSpecError(f"models must be a list, got {value!r}")
            value = tuple(spec_from_dict(m) for m in value)
        elif types[key] == "int":  # annotations are strings in this module
            if not _json_number(key, value).is_integer():
                raise InvalidSpecError(f"{key} must be an integer, got {value!r}")
            value = int(value)
        checked[key] = value
    return replace(default_config(checked.pop("kind", None)), **checked)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {f.name: getattr(config, f.name) for f in fields(config)}
    out["models"] = [spec_to_dict(m) for m in config.models]
    return out


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[dict, ...]
    summary: dict


def _params_label(spec: ModelSpec) -> str:
    d = spec_to_dict(spec)
    d.pop("model")
    return ";".join(f"{k}={d[k]:g}" for k in sorted(d))


def _ratios(estimated: np.ndarray, true: np.ndarray) -> np.ndarray:
    """``estimated / true``; 1 where both are 0 and inf where only ``true``
    is."""
    out = np.where(estimated == 0.0, 1.0, math.inf)
    # Overflowing paths give inf / inf; the summary drops the NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(estimated, true, out=out, where=true > 0.0)
    return out


def _run_block(config: ExperimentConfig, spec: ModelSpec, seeds: np.ndarray,
               words: np.ndarray) -> dict[str, np.ndarray]:
    """One block of a cell's replicates: the record columns from ``seed``
    on, ``method`` aside, each (2, m) with one row per method in
    ``METHODS`` order and one column per replicate.

    ``seeds`` (m, purposes) and ``words`` (m, purposes, 4) hold each
    replicate's child seeds and PCG64 seed words by purpose."""
    coords = generate_many(spec, config.steps, rngs_from_words(words[:, 0]))
    times = np.arange(config.steps + 1, dtype=float)
    left, right = config.gap_start - 1, config.gap_start + config.gap_count
    sigma = estimate_sigmas(
        np.concatenate([times[:left + 1], times[right:]]),
        np.concatenate([coords[:, :left + 1], coords[:, right:]], axis=1),
    )
    duration = times[right] - times[left]
    seed = seeds[:, 0]
    shared = {"seed": np.array([seed, seed]), "sigma_hat": np.array([sigma, sigma])}

    if config.kind == PATH_LENGTH_KIND:
        true_length = path_lengths(coords[:, left:right + 1])
        chord = coords[:, right] - coords[:, left]
        estimated = np.array([
            [expected_path_length(s, duration, d, config.gap_count + 1)
             for s, d in zip(sigma.tolist(), chord.tolist())],
            np.hypot(chord[:, 0], chord[:, 1]),
        ])
        return {**shared, "true_length": np.array([true_length, true_length]),
                "estimated_length": estimated,
                "length_ratio": _ratios(estimated, true_length)}

    # Both fills of every replicate in one kernel call, along a method axis:
    # a bridge draws from its replicate's own fill stream, and the straight
    # line is the bridge with sigma 0.
    m, k = len(seeds), config.gap_count
    noise = np.zeros((2, m, k, 2))
    for i, rng in enumerate(rngs_from_words(words[:, 1])):
        rng.standard_normal(out=noise[0, i])
    filled = np.array([coords, coords])
    filled[:, :, left + 1:right] = _kernels.bridge_paths(
        coords[:, -1], coords[:, right], duration, [sigma, np.zeros(m)],
        times[left + 1:right] - times[left], noise,
    )
    rog_before = radii_of_gyration(coords)
    rog_after = radii_of_gyration(filled)
    return {**shared, "rog_before": np.array([rog_before, rog_before]),
            "rog_after": rog_after, "rog_error": _ratios(rog_after, rog_before)}


def _run_cell(config: ExperimentConfig, spec: ModelSpec, seeds: np.ndarray,
              words: np.ndarray) -> dict[str, np.ndarray]:
    """All replicates of one cell as (2, replicates) columns, in blocks of
    about ``_BLOCK_POINTS`` path points, so memory stays bounded however
    many replicates run."""
    block = max(1, _BLOCK_POINTS // (config.steps + 1))
    parts = [
        _run_block(config, spec, seeds[lo:lo + block], words[lo:lo + block])
        for lo in range(0, config.replicates, block)
    ]
    return {name: np.concatenate([p[name] for p in parts], axis=1) for name in parts[0]}


def _quartiles(values: np.ndarray) -> list[float]:
    """``np.percentile(values, [25, 50, 75])`` by numpy's own arithmetic,
    without its per-call overhead: on the sorted values, the point at
    position p = (n - 1) q between a = s[floor p] and the next value b is
    a + (b - a) t for t = p - floor p, or b - (b - a)(1 - t) when t >= 0.5.
    """
    s = np.sort(values).tolist()
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = (len(s) - 1) * q
        i = int(pos)
        a, b, t = s[i], s[min(i + 1, len(s) - 1)], pos - i
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t))
    return out


def _statistics(values: np.ndarray) -> dict:
    """Mean, sample standard deviation, quartiles and the count of values
    beyond 1.5 IQR of the quartiles; all None when ``values`` is empty."""
    if len(values) == 0:
        return dict.fromkeys(("mean_error", "std_dev", "quartiles", "outliers"))
    q1, q2, q3 = _quartiles(values)
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


def _summarise_cell(kind: str, spec: ModelSpec, method: str,
                    columns: dict[str, np.ndarray]) -> dict:
    value_key = "length_ratio" if kind == PATH_LENGTH_KIND else "rog_error"
    values = columns[value_key]
    values = values[np.isfinite(values)]
    cell = {
        "model": spec_to_dict(spec),
        "params": _params_label(spec),
        "method": method,
        "count": len(values),
        **_statistics(values),
    }
    if kind == ROG_KIND:
        for key in ("rog_before", "rog_after"):
            finite = columns[key][np.isfinite(columns[key])]
            cell[f"mean_{key}"] = math.fsum(finite) / len(finite) if len(finite) else None
        histogram = Counter(f"{v:.1f}" for v in values.tolist())
        cell["histogram"] = {k: histogram[k] for k in sorted(histogram, key=float)}
    return cell


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all replicates of the configured experiment.

    The report holds one record per (model, replicate, method) plus one
    summary cell per (model, method).
    """
    # The seeds and PCG64 words of every (cell, replicate, purpose) key of
    # the run, in one pass: 32 B of words per key.
    purposes = 2 if config.kind == ROG_KIND else 1
    shape = (len(config.models), config.replicates, purposes)
    seeds, words = child_states(config.master_seed, np.indices(shape).reshape(3, -1).T)
    seeds, words = seeds.reshape(shape), words.reshape(*shape, -1)
    names = _RECORD_COLUMNS[config.kind]
    reps = config.replicates
    records: list[dict] = []
    cells = []
    for spec, cell_seeds, cell_words in zip(config.models, seeds, words):
        columns = _run_cell(config, spec, cell_seeds, cell_words)
        values = {
            "model": [spec_to_dict(spec)["model"]] * (2 * reps),
            "params": [_params_label(spec)] * (2 * reps),
            "replicate": np.arange(reps).repeat(2).tolist(),
            "method": METHODS * reps,
            **{name: col.T.ravel().tolist() for name, col in columns.items()},
        }
        records.extend(dict(zip(names, row)) for row in zip(*map(values.get, names)))
        cells.extend(
            _summarise_cell(config.kind, spec, method,
                            {name: col[j] for name, col in columns.items()})
            for j, method in enumerate(METHODS))
    summary = {
        "kind": config.kind,
        "config": config_to_dict(config),
        "version": __version__,
        "cells": cells,
    }
    return ExperimentReport(
        config=config, records=tuple(records), summary=summary
    )


def write_records_csv(report: ExperimentReport, path: str | Path) -> None:
    """Per-replicate records as CSV; floats keep full precision."""
    columns = _RECORD_COLUMNS[report.config.kind]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for record in report.records:
            fh.write(",".join(str(record[c]) for c in columns) + "\n")


def write_summary_json(report: ExperimentReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
