"""Command-line front end.

Subcommands: simulate | gap | fill | estimate | metrics | experiment.
Exit codes: 0 success, 2 usage error, 3 data error. Text files are UTF-8,
and one may start with a byte-order mark.

``fill`` and ``gap`` copy the observed rows of ``--in`` as text, in blocks
of whole lines that only ``\\n`` splits into rows, and format only the fill
rows. They read ``--in`` twice, to parse it and to copy it, so
for them it must be a regular file, not a pipe: ``--in /dev/stdin < f.csv``
works, ``cat f.csv | ...`` is a data error. ``--out`` may name the input: the
output is written to a temporary file beside it, which replaces it only on
success, and an input that changed since it was read is a data error.

Model parameters are passed as repeatable ``--param key=value`` flags; the
same keys appear in experiment config files (JSON). Valid keys per model:
discrete-brownian: sigma, target_x, target_y; fixed-velocity: v;
angular-walk: sigma, v; internal-state: uniformity, step;
run-tumble: l, v.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import BridgefillError, InvalidSpecError
from .estimator import estimate_sigma
from .experiments import (
    KINDS,
    METHODS,
    _json_text,
    config_from_dict,
    run_experiment,
    write_records_csv,
    write_summary_json,
)
from .gapfill import (
    DEFAULT_ROG_REALISATIONS,
    estimate_gap_length,
    estimate_gap_rog,
    fill_gap,
)
from .generators import MODEL_NAMES, generate, spec_from_dict
from .metrics import (
    observed_sums,
    path_lengths,
    radii_of_gyration,
    spliced_radii_of_gyration,
)
from .seeding import child_seed
from .trajectory import (
    GappedTrajectory,
    Trajectory,
    _copy_rows,
    excise_gap,
    read_trajectory_csv,
    write_trajectory_csv,
)

DATA_ERROR = 3


def _bounded(cast, ok, expected: str):
    """An argparse type: ``cast`` of the flag's text, refused as not
    ``expected`` when the cast fails or ``ok`` of its value is false."""
    def parse(text: str):
        with contextlib.suppress(ValueError):
            if ok(value := cast(text)):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_seed = _bounded(int, lambda v: v >= 0, "a non-negative integer")
_count = _bounded(int, lambda v: v >= 1, "an integer >= 1")
_scale = _bounded(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")


def _parse_params(pairs: list[str], parser: argparse.ArgumentParser) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            parser.error(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = float(value)
        except ValueError:
            parser.error(f"--param {key}: {value!r} is not a number")
    return params


def _detect_gap(traj: Trajectory) -> GappedTrajectory:
    """Auto-detect one run of missing integer timestamps: the one place
    where consecutive timestamps are more than 1 apart."""
    times = traj.times
    if not np.array_equal(times, np.round(times)):
        raise BridgefillError(
            "gap auto-detection needs integer timestamps; "
            "pass --gap-start/--gap-count instead"
        )
    with np.errstate(over="ignore"):  # an inf step is a gap too
        jumps = np.flatnonzero(np.diff(times) > 1)
    if len(jumps) == 0:
        raise BridgefillError("no missing timestamps between min and max")
    if len(jumps) > 1:
        raise BridgefillError(
            "found several gaps; this tool handles one contiguous gap"
        )
    split = int(jumps[0]) + 1
    try:
        missing = np.arange(int(times[split - 1]) + 1, int(times[split]))
        if len(missing) != int(times[split]) - int(times[split - 1]) - 1:
            raise ValueError("their count overflows numpy's arange")
    except (ValueError, MemoryError) as exc:
        raise BridgefillError(
            f"cannot list the missing timestamps between {float(times[split - 1])!r} "
            f"and {float(times[split])!r}: {exc}") from None
    return GappedTrajectory(traj, split, missing.astype(float))


def _read_twice(path: str) -> tuple[os.stat_result, Trajectory]:
    """Stat and read the ``--in`` of ``fill`` or ``gap``, which
    :func:`_copy_rows` reads again. A pipe or device would hang or read empty
    the second time, so a file that is not regular is refused unread."""
    status = os.stat(path)
    if not stat.S_ISREG(status.st_mode):
        raise BridgefillError(
            f"{path}: --in is read twice, so it must be a regular file")
    return status, read_trajectory_csv(path)


def _cmd_simulate(args, parser) -> None:
    spec = spec_from_dict({"model": args.model, **_parse_params(args.param, parser)})
    traj = generate(spec, args.steps, args.seed)
    write_trajectory_csv(args.out, traj)


def _cmd_gap(args, parser) -> None:
    status, traj = _read_twice(args.infile)
    _copy_rows(args.infile, status, traj, excise_gap(traj, args.gap_start, args.gap_count),
               args.out)


def _cmd_estimate(args, parser) -> None:
    traj = read_trajectory_csv(args.infile)
    est = estimate_sigma(traj)
    print(_json_text({
        "sigma_hat": est.sigma_m,
        "log_likelihood": est.log_likelihood_at_max,
        "n_triples": est.n_triples,
        "n_skipped": est.n_skipped,
        "clamped": est.clamped,
    }))


def _cmd_metrics(args, parser) -> None:
    traj = read_trajectory_csv(args.infile)
    print(_json_text({
        "path_length": float(path_lengths(traj.coords)),
        "rog": float(radii_of_gyration(traj.coords)),
        "point_count": len(traj),
    }))


def _cmd_fill(args, parser) -> None:
    if args.method == "linear" and args.sigma is not None:
        parser.error("--sigma applies to --method bridge only")
    if (args.gap_start is None) != (args.gap_count is None):
        parser.error("--gap-start and --gap-count must be given together")
    status, traj = _read_twice(args.infile)
    gapped = (_detect_gap(traj) if args.gap_start is None
              else excise_gap(traj, args.gap_start, args.gap_count))
    summary: dict = {
        "method": args.method,
        "n_missing": gapped.n_missing,
        "chord_length": float(math.hypot(*gapped.chord)),
    }
    if args.method == "linear":
        sigma = 0.0  # the straight line is the bridge without diffusion
    else:
        if args.sigma is not None:
            sigma = args.sigma
            summary["sigma_source"] = "override"
        else:
            est = estimate_sigma(gapped.observed)
            sigma = est.sigma_m
            summary["sigma_source"] = "estimated"
            summary["sigma_clamped"] = est.clamped
            summary["sigma_n_skipped"] = est.n_skipped
        summary["sigma_hat"] = sigma
        rog = estimate_gap_rog(
            gapped, sigma, realisations=args.realisations,
            rng=child_seed(args.seed, 1),
        )
        summary["rog_estimate"] = {
            "mean": rog.mean,
            "std_error": None if math.isnan(rog.std_error) else rog.std_error,
            "realisations": rog.realisations,
        }
    fill = fill_gap(gapped, sigma, args.seed)
    summary["expected_gap_length"] = estimate_gap_length(gapped, sigma)
    summary["rog_filled"] = float(
        spliced_radii_of_gyration(observed_sums(gapped.observed.coords), fill.copy()))
    text = _json_text(summary)  # before writing, so a non-finite result leaves no file
    _copy_rows(args.infile, status, traj, gapped, args.out, (fill, args.method))
    print(text)


def _cmd_experiment(args, parser) -> None:
    if args.kind is None and args.config is None:
        parser.error("experiment needs --kind or --config")
    data = {}
    if args.config is not None:
        try:
            # The codec drops a leading byte-order mark, as some editors save one.
            data = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except ValueError as exc:  # also undecodable bytes and huge integers
            raise InvalidSpecError(f"{args.config}: not a JSON config: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidSpecError(
                f"{args.config}: a config must be a JSON object, "
                f"got {type(data).__name__}")
    overrides = {"kind": args.kind, "replicates": args.replicates,
                 "master_seed": args.seed}
    data.update((k, v) for k, v in overrides.items() if v is not None)
    config = config_from_dict(data)
    report = run_experiment(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = config.kind.replace("-", "_")
    records_path = out_dir / f"{stem}_records.csv"
    summary_path = out_dir / f"{stem}_summary.json"
    write_records_csv(report, records_path)
    write_summary_json(report, summary_path)
    print(_json_text({
        "records": str(records_path),
        "summary": str(summary_path),
        "record_count": len(report.columns["method"]),
    }))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgefill",
        description="Fill gaps in 2-D trajectories with Brownian bridges.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a movement model to CSV")
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gap", help="remove points and write the observed rest")
    p.set_defaults(handler=_cmd_gap)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gap-start", type=int, required=True,
                   help="index of the first removed point")
    p.add_argument("--gap-count", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("estimate", help="estimate the diffusion coefficient")
    p.set_defaults(handler=_cmd_estimate)
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("fill", help="fill a gap by bridge or straight line")
    p.set_defaults(handler=_cmd_fill)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gap-start", type=int, default=None,
                   help="index of the first point to remove before filling "
                        "(omit both gap flags to auto-detect missing "
                        "integer timestamps)")
    p.add_argument("--gap-count", type=int, default=None)
    p.add_argument("--method", choices=METHODS, default="bridge",
                   help="linear is the bridge with no diffusion")
    p.add_argument("--sigma", type=_scale, default=None,
                   help="skip estimation and use this diffusion coefficient "
                        "(bridge only)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--realisations", type=_count, default=DEFAULT_ROG_REALISATIONS,
                   help="Monte-Carlo realisations for the RoG estimate "
                        "(bridge only)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="path length and RoG of a CSV")
    p.set_defaults(handler=_cmd_metrics)
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("experiment", help="run a batch experiment")
    p.set_defaults(handler=_cmd_experiment)
    p.add_argument("--kind", choices=KINDS, default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=None, help="master seed")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args, parser)
    except (BridgefillError, OSError, MemoryError) as exc:
        print(f"bridgefill: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return DATA_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
