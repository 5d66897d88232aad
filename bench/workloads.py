"""The benchmark's workloads: inputs from a seed, one op, and its check.

Every workload drives a public entry point of ``bridgefill`` and looks it up
on its module at call time, so the traced run sees the op's entry point as
a span too. ``run(i)`` performs op ``i``; ``check(i, result)`` returns the
problems found in its output (an empty list when it is correct);
``calibration`` is the host-speed loop whose work resembles the op's.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import calibrate
import checks


class PathLength:
    """``run_experiment`` on the full 16-cell path-length grid: many tiny
    fits, no bridge sampling, no Monte-Carlo RoG, no CSV."""

    name = "path-length"
    calibration = calibrate.INTERPRETER

    def __init__(self, bf, seed: int, workdir, replicates: int = 4):
        self.bf, self.seed, self.replicates = bf, seed, replicates

    def config(self, i: int):
        return self.bf["experiments"].default_config(
            "path-length", replicates=self.replicates, master_seed=self.seed + i)

    def run(self, i: int):
        config = self.config(i)
        return config, self.bf["experiments"].run_experiment(config)

    def check(self, i: int, result) -> list[str]:
        config, report = result
        # One (cell, replicate) per op gets the seed and sigma checks.
        pick = np.random.default_rng((self.seed, i))
        sample = (int(pick.integers(len(config.models))),
                  int(pick.integers(config.replicates)))
        return checks.check_path_length(self.bf["bridgefill"], config,
                                        report.records, sample)


class Rog(PathLength):
    """``run_experiment`` on the three-cell rog experiment: one single-path
    bridge per replicate through the sequential kernel, splice and
    ``gap_metrics``."""

    name = "rog"

    def config(self, i: int):
        return self.bf["experiments"].default_config(
            "rog", replicates=self.replicates, master_seed=self.seed + i)

    def check(self, i: int, result) -> list[str]:
        config, report = result
        return checks.check_rog(self.bf["bridgefill"], config, report.records)


class FillLarge:
    """CLI ``fill`` by bridge on a 1e5-row CSV: CSV read and write, one fit
    on 1e5 points, 200 bridge paths in one kernel call and the RoG Monte
    Carlo against every observed point."""

    name = "fill-large"
    calibration = calibrate.MIXED

    def __init__(self, bf, seed: int, workdir, steps: int = 99_999,
                 gap_start: int = 40_000, gap_count: int = 1000,
                 realisations: int = 200):
        self.bf, self.seed = bf, seed
        self.gap_start, self.gap_count = gap_start, gap_count
        self.realisations = realisations
        self.in_path = workdir / "in.csv"
        self.out_path = workdir / "out.csv"
        pkg = bf["bridgefill"]
        traj = pkg.generate(pkg.spec_from_dict({"model": "angular-walk", "sigma": 0.5}),
                            steps, seed)
        pkg.write_trajectory_csv(self.in_path, traj)
        # Oracle inputs shared by every op: the observed rows as [t, x, y],
        # the missing times and the closed-form sigma.
        data = np.column_stack([traj.times, traj.coords])
        keep = np.r_[0:gap_start, gap_start + gap_count:len(data)]
        self.observed = data[keep]
        self.gap_times = traj.times[gap_start:gap_start + gap_count]
        self.sigma = checks.closed_form_sigma(self.observed[:, 0], self.observed[:, 1:])

    def argv(self, i: int) -> list[str]:
        return ["fill", "--in", str(self.in_path),
                "--gap-start", str(self.gap_start), "--gap-count", str(self.gap_count),
                "--method", "bridge", "--realisations", str(self.realisations),
                "--seed", str(self.seed + i), "--out", str(self.out_path)]

    def run(self, i: int):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = self.bf["cli"].main(self.argv(i))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, stdout.getvalue()

    def check(self, i: int, result) -> list[str]:
        code, stdout = result
        if code != 0:
            return [f"exit code {code}"]
        problems = checks.check_fill_csv(self.in_path, self.out_path,
                                         self.gap_start, self.gap_count, "bridge")
        rng = np.random.default_rng((self.seed, i))
        return problems + checks.check_fill_summary(
            json.loads(stdout), self.observed, self.gap_times, self.sigma,
            self.realisations, rng)


WORKLOADS = {w.name: w for w in (PathLength, Rog, FillLarge)}
