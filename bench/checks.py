"""Output checks for the benchmark's ops, built on independent oracles.

Each ``check_*`` function returns a list of problems; an empty list means
the op's output is correct. The oracles here re-derive results from the
inputs with plain numpy and share no code with ``bridgefill``:

* ``closed_form_sigma``: the analytic MLE sqrt(sum(r^2 / a) / 2N) over
  non-overlapping (anchor, midpoint, anchor) triples, where the package
  uses a ternary search.
* ``radius_of_gyration``: sqrt(var x + var y).
* ``child_seed``: the documented SeedSequence derivation of replicate seeds.
* ``bridge_draws`` / ``rog_estimate``: bridges built as Brownian motion
  minus its linear correction (the package samples sequentially), and the
  spliced path's RoG from running sums in O(n + m k).
"""

from __future__ import annotations

import math

import numpy as np

# The package's default search bracket for sigma (``SearchConfig``); an MLE
# outside it is reported clamped to the bracket.
SIGMA_BRACKET = (1e-6, 1e4)
# Triples whose midpoint variance weight is at or below this are skipped.
WEIGHT_FLOOR = 1e-12
# Relative tolerance between the ternary search and the closed form.
SIGMA_RTOL = 1e-6
# Combined standard errors allowed between two Monte-Carlo RoG estimates.
ROG_Z = 5.0


def closed_form_sigma(times: np.ndarray, coords: np.ndarray) -> float:
    """Analytic MLE of sigma_m, clamped into ``SIGMA_BRACKET``."""
    n = (len(times) - 1) // 2
    t0, t1, t2 = times[0:2 * n:2], times[1:2 * n:2], times[2:2 * n + 1:2]
    p0, p1, p2 = coords[0:2 * n:2], coords[1:2 * n:2], coords[2:2 * n + 1:2]
    span = t2 - t0
    tau = t1 - t0
    weight = tau * (span - tau) / span
    chord_point = p0 + (tau / span)[:, None] * (p2 - p0)
    r2 = ((p1 - chord_point) ** 2).sum(axis=1)
    keep = weight > WEIGHT_FLOOR
    mle = math.sqrt((r2[keep] / weight[keep]).sum() / (2.0 * keep.sum()))
    return min(max(mle, SIGMA_BRACKET[0]), SIGMA_BRACKET[1])


def radius_of_gyration(coords: np.ndarray) -> float:
    return math.sqrt(float(coords[:, 0].var() + coords[:, 1].var()))


def child_seed(master: int, *key: int) -> int:
    ss = np.random.SeedSequence((master, *key))
    return int(ss.generate_state(1, np.uint64)[0])


def bridge_draws(start, end, duration: float, sigma: float, times: np.ndarray,
                 m: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` bridges at ``times`` in (0, duration), shape (m, k, 2).

    X(t) = start + (t / T)(end - start) + sigma (W(t) - (t / T) W(T)) for a
    standard 2-D Brownian motion W.
    """
    grid = np.append(times, duration)
    steps = np.sqrt(np.diff(grid, prepend=0.0))
    w = np.cumsum(rng.standard_normal((m, len(grid), 2)) * steps[None, :, None],
                  axis=1)
    frac = (times / duration)[None, :, None]
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    return start + frac * (end - start) + sigma * (w[:, :-1] - frac * w[:, -1:])


def rog_estimate(observed: np.ndarray, fills: np.ndarray) -> tuple[float, float]:
    """(mean, standard error) of the RoG of observed points plus each fill.

    Uses the observed points' centroid and sum of squares once, then one
    pass over each fill: RoG^2 = (S2 + F2) / N - |F1 / N|^2 about that
    centroid.
    """
    centre = observed.mean(axis=0)
    s2 = float(((observed - centre) ** 2).sum())
    shifted = fills - centre
    n_total = len(observed) + fills.shape[1]
    f1 = shifted.sum(axis=1) / n_total
    f2 = (shifted ** 2).sum(axis=(1, 2))
    rogs = np.sqrt((s2 + f2) / n_total - (f1 ** 2).sum(axis=1))
    return float(rogs.mean()), float(rogs.std(ddof=1) / math.sqrt(len(rogs)))


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def _replicates(config, records):
    """``(cell, replicate, spec, [bridge record, linear record])`` in report
    order; raises ValueError when the record count is wrong."""
    reps = config.replicates
    if len(records) != 2 * reps * len(config.models):
        raise ValueError(f"expected {2 * reps * len(config.models)} records, "
                         f"got {len(records)}")
    for cell, spec in enumerate(config.models):
        for rep in range(reps):
            k = 2 * (cell * reps + rep)
            yield cell, rep, spec, records[k:k + 2]


def check_path_length(bf, config, records, sample: tuple[int, int]) -> list[str]:
    """Check a path-length report.

    Every linear record's estimate equals the anchor chord of the
    regenerated path; the sampled (cell, replicate) has the documented seed
    and a ``sigma_hat`` equal to the closed-form MLE on its observed points.
    """
    problems = []
    left = config.gap_start - 1
    right = config.gap_start + config.gap_count
    for cell, rep, spec, (bridge, linear) in _replicates(config, records):
        if (bridge["method"], linear["method"]) != ("bridge", "linear"):
            problems.append(f"cell {cell} rep {rep}: methods out of order")
            continue
        path = bf.generate(spec, config.steps, linear["seed"]).coords
        chord = float(np.hypot(*(path[right] - path[left])))
        if not _close(linear["estimated_length"], chord, 1e-12):
            problems.append(
                f"cell {cell} rep {rep}: linear length "
                f"{linear['estimated_length']!r} != chord {chord!r}")
        if (cell, rep) != sample:
            continue
        seed = child_seed(config.master_seed, cell, rep, 0)
        if linear["seed"] != seed:
            problems.append(f"cell {cell} rep {rep}: seed {linear['seed']} != {seed}")
        keep = np.r_[0:config.gap_start, right:config.steps + 1]
        times = np.arange(config.steps + 1, dtype=float)[keep]
        expected = closed_form_sigma(times, path[keep])
        for r in (bridge, linear):
            if not _close(r["sigma_hat"], expected, SIGMA_RTOL):
                problems.append(
                    f"cell {cell} rep {rep}: sigma_hat {r['sigma_hat']!r} "
                    f"!= closed form {expected!r}")
    return problems


def check_rog(bf, config, records) -> list[str]:
    """Check a rog report: each ``rog_before`` equals the RoG of the
    regenerated path, and every value is finite and positive."""
    problems = []
    for cell, rep, spec, pair in _replicates(config, records):
        expected = radius_of_gyration(bf.generate(spec, config.steps, pair[0]["seed"]).coords)
        for r in pair:
            values = (r["sigma_hat"], r["rog_before"], r["rog_after"], r["rog_error"])
            if not all(math.isfinite(v) and v > 0.0 for v in values):
                problems.append(f"cell {cell} rep {rep} {r['method']}: {values}")
            if not _close(r["rog_before"], expected, 1e-9):
                problems.append(
                    f"cell {cell} rep {rep}: rog_before {r['rog_before']!r} "
                    f"!= {expected!r}")
    return problems


def check_fill_csv(in_path, out_path, gap_start: int, gap_count: int,
                   method: str) -> list[str]:
    """The output keeps every input row in place, labelled ``observed``, and
    labels exactly the removed rows with ``method`` at their own times."""
    gap = range(gap_start + 1, gap_start + gap_count + 1)  # line 0 is the header
    with open(in_path) as fin, open(out_path) as fout:
        header_in, header_out = fin.readline(), fout.readline()
        if header_in.strip() != "t,x,y" or header_out.strip() != "t,x,y,source":
            return [f"headers {header_in.strip()!r} -> {header_out.strip()!r}"]
        line = 0
        for line, (a, b) in enumerate(zip(fin, fout), start=1):
            a, b = a.rstrip("\r\n"), b.rstrip("\r\n")
            if line in gap:
                t, x, y, source = b.split(",")
                ok = (source == method and t == a.split(",")[0]
                      and math.isfinite(float(x)) and math.isfinite(float(y)))
            else:
                ok = b == a + ",observed"
            if not ok:
                return [f"line {line + 1}: {a!r} -> {b!r}"]
        if fin.readline() or fout.readline():
            return [f"row counts differ after line {line + 1}"]
    return []


def check_fill_summary(summary: dict, observed: np.ndarray, gap_times: np.ndarray,
                       sigma: float, realisations: int,
                       rng: np.random.Generator) -> list[str]:
    """Check the ``fill`` JSON against the closed-form sigma and an
    independent Monte-Carlo RoG estimate of the same gap.

    ``observed`` holds the observed points in time order with the gap
    between rows ``len(before) - 1`` and ``len(before)``; ``gap_times`` are
    the missing times, ``sigma`` the closed-form MLE on ``observed``.
    """
    problems = []
    if summary.get("n_missing") != len(gap_times):
        problems.append(f"n_missing {summary.get('n_missing')} != {len(gap_times)}")
    if not _close(summary["sigma_hat"], sigma, SIGMA_RTOL):
        problems.append(f"sigma_hat {summary['sigma_hat']!r} != closed form {sigma!r}")
    if not summary["expected_gap_length"] >= summary["chord_length"] > 0.0:
        problems.append(
            f"expected_gap_length {summary['expected_gap_length']!r} < "
            f"chord {summary['chord_length']!r}")
    est = summary["rog_estimate"]
    if est["realisations"] != realisations:
        problems.append(f"realisations {est['realisations']} != {realisations}")
    i = int(np.searchsorted(observed[:, 0], gap_times[0]))
    (t0, *a), (t1, *b) = observed[i - 1], observed[i]
    fills = bridge_draws(a, b, t1 - t0, sigma, gap_times - t0, realisations, rng)
    mean, se = rog_estimate(observed[:, 1:], fills)
    limit = ROG_Z * math.hypot(se, est["std_error"])
    if not abs(est["mean"] - mean) <= limit:
        problems.append(
            f"rog_estimate.mean {est['mean']!r} differs from {mean!r} "
            f"by more than {limit!r}")
    return problems
