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

A run is one table with a row per (cell, replicate), in record order: row
``c * replicates + r`` is replicate r of cell c. Every cell shares the
steps and the gap, so the table runs in blocks of rows that bound memory
and may span cells. Every stage makes one call over a block's rows: one
``generate_many`` call with each row's model spec (``generators`` groups
the rows by model), excision by slicing at fixed indices, one estimator
fit, then either the path lengths and chords or, for ``rog``, per fill
method one kernel call that builds that method's fill of every row (the
straight line being the bridge with sigma 0) and one
``spliced_radii_of_gyration`` call that scores it against the observed
points, with no spliced path built.
A block gives each per-replicate value once, as a (rows,) array, and each
per-method value as a (2, rows) array, the fill method on axis 0 in
``METHODS`` order.

The report's ``columns`` are the record table: one list of Python values
per column, with one entry per record, record ``2 * row + j`` being fill
method j of run-table row ``row``, so a per-replicate value appears once per
method. The columns, in CSV order, are ``model``, ``params``,
``replicate``, ``seed``, ``sigma_hat`` and ``method``, then the kind's
scores: ``true_length``, ``estimated_length`` and ``length_ratio`` for
``path-length``; ``rog_before``, ``rog_after`` and ``rog_error`` for
``rog``. Each summary cell reads its cell's slice of the score lists. Every
value equals what the single-path functions give for that replicate, bit
for bit.

Every replicate still has its own streams: the key ``(cell_index,
replicate, purpose)`` has the child seed ``SeedSequence((master,
cell_index, replicate, purpose))``, as ``seeding.child_seed`` derives it,
and the replicate draws from its streams in the single-path order, so a
record's ``seed`` regenerates its path with ``generators.generate``.
Purpose 0 generates the path; only ``rog`` derives purpose 1, for its
bridge fill. One ``seeding.child_states`` pass per run derives the seeds
and PCG64 states of every key of the run, and each block starts its
Generators from its slice of them. Reports are byte-identical across reruns
and independent of how rows are blocked. Summaries embed the seed,
the model grid, and the package version. Each summary cell's statistics
cover the finite values only, and ``count`` says how many there were: a
path-length replicate whose true gap length is 0 keeps its ``inf`` ratio in
the records but not in the summary. A summary sum or squared deviation
beyond the float range raises NonFiniteError, so every summary is strict
JSON.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _kernels
from ._version import __version__
from .bridge import expected_path_length
from .errors import DomainError, InvalidSpecError, NonFiniteError
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
from .metrics import path_lengths, radii_of_gyration, spliced_radii_of_gyration
from .seeding import child_states, rngs_from_words

PATH_LENGTH_KIND = "path-length"
ROG_KIND = "rog"
KINDS = (PATH_LENGTH_KIND, ROG_KIND)
# Fill methods in the order each replicate's records list them.
METHODS = ("bridge", "linear")

DEFAULT_MASTER_SEED = 20260301

# Path points held per block of run-table rows: a rog block of 131
# 1000-point rows keeps its paths near 2.1 MB, and its fill noise and each
# method's fill near 1.05 MB each.
_BLOCK_POINTS = 1 << 17

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
        if self.gap_count < 0:
            raise InvalidSpecError(f"gap_count must be >= 0, got {self.gap_count}")
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
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise InvalidSpecError(f"unknown config field(s): {sorted(unknown)}")
    checked = {}
    for key, value in data.items():
        if key == "models":
            if not isinstance(value, list):
                raise InvalidSpecError(f"models must be a list, got {value!r}")
            value = tuple(spec_from_dict(m) for m in value)
        elif key != "kind":  # every other field is a count or a seed
            if not _json_number(key, value).is_integer():
                raise InvalidSpecError(f"{key} must be an integer, got {value!r}")
            value = int(value)
        checked[key] = value
    return replace(default_config(checked.pop("kind", None)), **checked)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {f.name: getattr(config, f.name) for f in fields(config)}
    out["models"] = [spec_to_dict(m) for m in config.models]
    return out


@dataclass(frozen=True, init=False)
class ExperimentReport:
    """A run's configuration, record table and summary.

    ``columns`` maps each record column, in CSV order, to its values, one
    per record. ``records`` is the same table as one dict per record, built
    on first read. Row dicts passed as ``records`` stand in for that view,
    so ``dataclasses.replace(report, records=rows)`` reads back ``rows``.
    The ``records`` view and argument exist for the benchmark in ``bench/``
    only; the package and its tests read ``columns``.
    """
    config: ExperimentConfig
    columns: dict[str, list]
    summary: dict

    def __init__(self, config: ExperimentConfig, columns: dict[str, list],
                 summary: dict, records: tuple[dict, ...] | None = None) -> None:
        self.__dict__.update(config=config, columns=columns, summary=summary)
        if records is not None:
            self.__dict__["records"] = records

    @cached_property
    def records(self) -> tuple[dict, ...]:
        return tuple(dict(zip(self.columns, row)) for row in zip(*self.columns.values()))


def _params_label(model: dict) -> str:
    """The parameters of ``model``, a ``spec_to_dict`` mapping, as
    ``key=value`` pairs in key order, joined by ``;``. A value is written
    ``:g`` when that reads back as the value and in full otherwise, so
    distinct parameters give distinct labels."""
    return ";".join(f"{k}={v:g}" if float(f"{v:g}") == v else f"{k}={float(v)!r}"
                    for k, v in sorted(model.items()) if k != "model")


def _ratios(estimated: np.ndarray, true: np.ndarray) -> np.ndarray:
    """``estimated / true``; 1 where both are 0 and inf where only ``true``
    is."""
    out = np.where(estimated == 0.0, 1.0, math.inf)
    # Overflowing paths give inf / inf; the summary drops the NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(estimated, true, out=out, where=true > 0.0)
    return out


def _bridge_length(sigma: float, duration: float, chord: list[float],
                   segments: int) -> float:
    """``expected_path_length``, or NaN for a row it cannot score: a sigma
    or a bridge variance beyond the float range."""
    try:
        return expected_path_length(sigma, duration, chord, segments)
    except DomainError:
        return math.nan


def _run_block(config: ExperimentConfig, seeds: np.ndarray, words: np.ndarray,
               lo: int, hi: int) -> dict[str, np.ndarray]:
    """Rows ``lo:hi`` of the run table, which may span cells: the record
    columns from ``seed`` on, ``method`` aside, in record order. A
    per-replicate column is (hi - lo,), a per-method one (2, hi - lo) with
    one row per method in ``METHODS`` order. ``seeds`` (rows, purposes) and
    ``words`` (rows, purposes, 4) hold every row's child seeds and PCG64
    seed words by purpose."""
    specs = [config.models[r // config.replicates] for r in range(lo, hi)]
    coords = generate_many(specs, config.steps, rngs_from_words(words[lo:hi, 0]))
    times = np.arange(config.steps + 1, dtype=float)
    left, right = config.gap_start - 1, config.gap_start + config.gap_count
    observed = np.concatenate([coords[:, :left + 1], coords[:, right:]], axis=1)
    sigma = estimate_sigmas(np.concatenate([times[:left + 1], times[right:]]), observed)
    duration = float(right - left)
    shared = {"seed": seeds[lo:hi, 0], "sigma_hat": sigma}

    if config.kind == PATH_LENGTH_KIND:
        true_length = path_lengths(coords[:, left:right + 1])
        chord = coords[:, right] - coords[:, left]
        estimated = np.array([
            [_bridge_length(s, duration, d, config.gap_count + 1)
             for s, d in zip(sigma.tolist(), chord.tolist())],
            np.hypot(chord[:, 0], chord[:, 1]),
        ])
        return {**shared, "true_length": true_length, "estimated_length": estimated,
                "length_ratio": _ratios(estimated, true_length)}

    # One draw from each replicate's own fill stream serves both methods:
    # the straight line is the bridge with sigma 0. Each method's fills are
    # scored as soon as one kernel call builds them, so only one (rows, k, 2)
    # fill is alive at a time.
    noise = np.empty((hi - lo, config.gap_count, 2))
    for i, rng in enumerate(rngs_from_words(words[lo:hi, 1])):
        rng.standard_normal(out=noise[i])
    shift = times[left + 1:right] - times[left]
    rog_after = np.array([
        spliced_radii_of_gyration(observed, _kernels.bridge_paths(
            coords[:, -1], coords[:, right], duration, s, shift, noise))
        for s in (sigma, 0.0)])  # METHODS order
    rog_before = radii_of_gyration(coords)
    return {**shared, "rog_before": rog_before, "rog_after": rog_after,
            "rog_error": _ratios(rog_after, rog_before)}


def _quartiles(values: list[float]) -> list[float]:
    """``np.percentile(values, [25, 50, 75])`` by numpy's own arithmetic,
    without its per-call overhead: on the sorted values, the point at
    position p = (n - 1) q between a = s[floor p] and the next value b is
    a + (b - a) t for t = p - floor p, or b - (b - a)(1 - t) when t >= 0.5.
    """
    s = sorted(values)
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = (len(s) - 1) * q
        i = int(pos)
        a, b, t = s[i], s[min(i + 1, len(s) - 1)], pos - i
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t))
    return out


def _mean(values: list[float]) -> float | None:
    """The mean of ``values`` from their exact sum, None when there are
    none; raises OverflowError when that sum is beyond the float range."""
    return math.fsum(values) / len(values) if values else None


def _statistics(values: list[float]) -> dict:
    """Mean, sample standard deviation, quartiles and the count of values
    beyond 1.5 IQR of the quartiles, of finite ``values``; all None when
    there are none. Raises OverflowError when a sum or a squared deviation
    is beyond the float range."""
    if not values:
        return dict.fromkeys(("mean_error", "std_dev", "quartiles", "outliers"))
    q1, q2, q3 = _quartiles(values)
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    mean = _mean(values)
    squares = math.fsum((v - mean) ** 2 for v in values)  # 0.0 for one value
    return {
        "mean_error": mean,
        "std_dev": math.sqrt(squares / max(len(values) - 1, 1)),
        "quartiles": [q1, q2, q3],
        "outliers": sum(v < lo or v > hi for v in values),
    }


def _summarise_cell(kind: str, columns: dict[str, list[float]]) -> dict:
    """The statistics of one (model, method) cell from its slice of the
    score columns."""
    value_key = "length_ratio" if kind == PATH_LENGTH_KIND else "rog_error"
    values = [v for v in columns[value_key] if math.isfinite(v)]
    cell = {"count": len(values)}
    try:
        cell.update(_statistics(values))
        if kind == ROG_KIND:
            for key in ("rog_before", "rog_after"):
                cell[f"mean_{key}"] = _mean([v for v in columns[key] if math.isfinite(v)])
            histogram = Counter(f"{v:.1f}" for v in values)
            cell["histogram"] = {k: histogram[k] for k in sorted(histogram, key=float)}
    except OverflowError:  # a sum or square of finite values beyond the float range
        raise NonFiniteError("a result is not finite: a summary sum overflows") from None
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
    rows, reps = shape[0] * shape[1], config.replicates
    seeds, words = seeds.reshape(rows, purposes), words.reshape(rows, purposes, -1)
    block = max(1, _BLOCK_POINTS // (config.steps + 1))
    parts = [_run_block(config, seeds, words, lo, min(lo + block, rows))
             for lo in range(0, rows, block)]
    # Record 2 * row + j is method j of run-table row ``row``; a
    # per-replicate value serves both methods.
    seed, sigma_hat, *scores = (
        (name, np.broadcast_to(np.concatenate([p[name] for p in parts], axis=-1),
                               (2, rows)).T.ravel().tolist())
        for name in parts[0])
    config_dict = config_to_dict(config)
    models = config_dict["models"]
    labels = [_params_label(model) for model in models]
    columns = dict([
        ("model", np.repeat([spec.model for spec in config.models], 2 * reps).tolist()),
        ("params", np.repeat(labels, 2 * reps).tolist()),
        ("replicate", (np.arange(2 * rows) // 2 % reps).tolist()),
        seed, sigma_hat, ("method", list(METHODS) * rows), *scores,
    ])
    # Cell c's method-j records are every second record of its 2 * reps.
    cells = [
        {"model": model, "params": label, "method": method,
         **_summarise_cell(config.kind, {
             name: values[2 * c * reps + j:2 * (c + 1) * reps:2] for name, values in scores})}
        for c, (model, label) in enumerate(zip(models, labels))
        for j, method in enumerate(METHODS)
    ]
    summary = {
        "kind": config.kind,
        "config": config_dict,
        "version": __version__,
        "cells": cells,
    }
    return ExperimentReport(config=config, columns=columns, summary=summary)


def write_records_csv(report: ExperimentReport, path: str | Path) -> None:
    """Per-replicate records as CSV; floats keep full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(report.columns) + "\n")
        fh.writelines(",".join(row) + "\n"
                      for row in zip(*(map(str, c) for c in report.columns.values())))


def _json_text(obj: dict) -> str:
    """``obj`` as strict JSON; raises NonFiniteError on a NaN or infinity,
    which JSON cannot hold."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"a result is not finite: {exc}") from None


def write_summary_json(report: ExperimentReport, path: str | Path) -> None:
    """The summary as strict JSON; raises NonFiniteError, and writes no
    file, when a value is not finite."""
    Path(path).write_text(_json_text(report.summary) + "\n", encoding="utf-8")
