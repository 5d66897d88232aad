"""Independent numerical oracles used across the test suite.

Deliberately disjoint from the package's own evaluation paths: the Rice
mean is integrated directly against the 2-D Gaussian density in polar
coordinates or written through scipy's exponentially scaled Bessel
functions (the package sums a series for 1F1 in each of two regimes), and
the bridge oracle conditions each point on the previous one and the
endpoint, one step at a time (the package uses the unrolled closed form).
Sampled discretised bridge lengths are the Monte-Carlo counterpart of the
closed-form expected length. The sigma_m likelihood is summed triple by
triple over point objects (the package reduces whole arrays), the
internal-state walker steps through its state machine and the run-and-tumble
heading through its tumbles one draw at a time (the package solves both
without a loop), and experiment records are built one replicate at a time,
each path generated, filled and scored on its own (the package runs each
cell as arrays). The expected squared radius of gyration of a bridge-filled
path is a closed form, which the package does not compute (it samples).
The ``*_interleaved`` references are the package's earlier (..., n, 2)
formulas, which reduce over and broadcast against the 2-long coordinate
axis; the plane-wise kernels must equal them bit for bit.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import integrate, special

from bridgefill.errors import DomainError, TooFewPointsError
from bridgefill.estimator import SIGMA_FLOOR, VARIANCE_WEIGHT_FLOOR, estimate_sigma
from bridgefill.experiments import METHODS
from bridgefill.gapfill import estimate_gap_length, fill_gap
from bridgefill.generators import generate, spec_to_dict
from bridgefill.metrics import path_lengths, radii_of_gyration
from bridgefill.seeding import child_seed, make_rng
from bridgefill.trajectory import (
    GappedTrajectory,
    Trajectory,
    excise_gap,
)


class DegenerateDataError(ValueError):
    """All midpoints sit exactly on their chords; no finite maximizer."""


class Point(NamedTuple):
    """A single time-stamped position."""

    t: float
    x: float
    y: float


def rice_mean_quadrature(a: float, b: float) -> float:
    """E||Z|| for Z ~ N2((a, 0), b I2) by 2-D quadrature.

    Integrand in polar coordinates around the mean: with z = mu + rho u(phi),
    ||z|| = sqrt(a^2 + 2 a rho cos(phi) + rho^2), weighted by the radial
    Gaussian density. Substituting rho = sqrt(b) s bounds the outer range.
    """
    sb = math.sqrt(b)

    def inner(s: float) -> float:
        val, _ = integrate.quad(
            lambda phi: math.sqrt(
                max(a * a + 2.0 * a * sb * s * math.cos(phi) + b * s * s, 0.0)
            ),
            0.0, 2.0 * math.pi, limit=200, epsabs=1e-13, epsrel=1e-12,
        )
        return val * s * math.exp(-0.5 * s * s) / (2.0 * math.pi)

    with warnings.catch_warnings():
        # the |.| kink at the origin trips quad's roundoff heuristic; the
        # achieved accuracy is still ~1e-12 (checked against closed form)
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            inner, 0.0, 42.0, limit=400, epsabs=1e-13, epsrel=1e-12
        )
    return val


def rice_mean_bessel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E||Z|| for Z ~ N2((a, 0), b I2) as sqrt(b) sqrt(pi/2) ((1 + 2z)
    e^-z I0(z) + 2z e^-z I1(z)) with z = a^2 / (4b), elementwise.

    Uses scipy's ``i0e`` and ``i1e``, which are defined for every z; its
    ``ive`` returns NaN beyond z of about 1e9. About 1e-15 relative from a
    50-digit evaluation of sqrt(b pi/2) 1F1(-1/2; 1; -2z) for z up to 5e11.
    """
    z = a * a / (4.0 * b)
    laguerre = (1.0 + 2.0 * z) * special.i0e(z) + 2.0 * z * special.i1e(z)
    return np.sqrt(b) * math.sqrt(math.pi / 2.0) * laguerre


def polyline_length(points: np.ndarray) -> float:
    """Brute-force segment-sum length of a polyline, exactly accumulated."""
    return math.fsum(
        math.hypot(points[i + 1, 0] - points[i, 0], points[i + 1, 1] - points[i, 1])
        for i in range(len(points) - 1)
    )


def bridge_paths_sequential(start, end, duration, sigma_m, times, noise):
    """Bridges by sequential conditioning, one time step at a time.

    Each point is Gaussian given the previous point and the fixed endpoint:
    mean moves the fraction dt / (T - t_prev) of the way to the endpoint,
    standard deviation sigma_m sqrt(dt (T - t) / (T - t_prev)). ``noise``
    (m, k, 2) standard normals; returns (m, k, 2) positions. The m paths
    step together, each by the same scalar arithmetic.
    """
    m, k = noise.shape[0], noise.shape[1]
    out = np.empty((m, k, 2))
    end = np.asarray(end, dtype=float)
    p = np.broadcast_to(np.asarray(start, dtype=float), (m, 2))
    t_prev = 0.0
    for j in range(k):
        dt = times[j] - t_prev
        rem = duration - t_prev
        w = dt / rem
        sd = sigma_m * math.sqrt(dt * (rem - dt) / rem)
        p = p + w * (end - p) + sd * noise[:, j]
        out[:, j] = p
        t_prev = times[j]
    return out


def bridge_paths_interleaved(start, end, duration, sigma_m, times, noise):
    """``_kernels.bridge_paths`` computed on the (..., k, 2) layout."""
    start = np.asarray(start, dtype=float)[..., None, :]
    end = np.asarray(end, dtype=float)[..., None, :]
    dt = np.diff(times, prepend=0.0)
    rest = duration - times
    sd = np.asarray(sigma_m, dtype=float)[..., None] * np.sqrt(dt * rest / (rest + dt))
    with np.errstate(over="ignore", invalid="ignore"):
        out = noise * (sd / rest)[..., None]
        np.cumsum(out, axis=-2, out=out)
        out *= rest[:, None]
        out += start + (times / duration)[:, None] * (end - start)
    return out


def radii_of_gyration_interleaved(coords):
    """``metrics.radii_of_gyration`` computed on the (..., n, 2) layout."""
    with np.errstate(over="ignore", invalid="ignore"):
        centred = coords - coords.mean(axis=-2, keepdims=True)
        return np.sqrt((centred ** 2).sum(axis=-1).mean(axis=-1))


def estimate_sigmas_interleaved(times, coords):
    """``estimator.estimate_sigmas`` with each triple's chord point and
    squared deviation computed on the (m, n, 2) layout."""
    n_pairs = (len(times) - 1) // 2
    left, mid, right = (np.s_[i:i + 2 * n_pairs:2] for i in range(3))
    z0, z1, z2 = coords[:, left], coords[:, mid], coords[:, right]
    with np.errstate(over="ignore", invalid="ignore"):
        spans = times[right] - times[left]
        taus = times[mid] - times[left]
        weights = taus * (spans - taus) / spans
        expect = z0 + (taus / spans)[:, None] * (z2 - z0)
        dev_sq = ((z1 - expect) ** 2).sum(axis=2)
        keep = weights > VARIANCE_WEIGHT_FLOOR
        quad = np.ascontiguousarray(dev_sq[:, keep] / weights[keep]).sum(axis=1)
        return np.maximum(np.sqrt(quad / (2.0 * int(keep.sum()))), SIGMA_FLOOR)


def gap_rogs_interleaved(observed, fills):
    """RoG of the observed points (n, 2) spliced with each fill of
    ``fills`` (m, k, 2), from running sums about the observed centroid, as
    ``metrics.spliced_radii_of_gyration`` computes them, on the (..., 2)
    layout."""
    centre = observed.mean(axis=0)
    observed = observed - centre
    fills = fills - centre
    n_total = len(observed) + fills.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        sum_sq = (observed ** 2).sum() + (fills ** 2).sum(axis=(1, 2))
        mean_offset = (observed.sum(axis=0) + fills.sum(axis=1)) / n_total
        return np.sqrt(sum_sq / n_total - (mean_offset ** 2).sum(axis=1))


def bridge_marginal(start, end, duration: float, sigma_m: float,
                    t: float) -> tuple[np.ndarray, float]:
    """Mean point and per-coordinate variance at time t of the bridge from
    ``start`` at 0 to ``end`` at ``duration``."""
    if not (0.0 <= t <= duration):
        raise DomainError(f"t must lie in [0, {duration}], got {t!r}")
    start = np.array(start, dtype=float)
    mean = start + (t / duration) * (np.array(end, dtype=float) - start)
    var = sigma_m ** 2 * t * (duration - t) / duration
    return mean, var


def sample_path_lengths(
    sigma_m: float,
    duration: float,
    displacement: tuple[float, float],
    segments: int,
    n_samples: int,
    rng: int | np.random.Generator,
) -> np.ndarray:
    """Measured lengths of ``n_samples`` sampled discretised bridges.

    Each bridge runs from the origin to ``displacement`` and is sampled at
    the ``segments - 1`` equally spaced interior times by
    ``bridge_paths_sequential``, driven by one draw of shape
    ``(n_samples, segments - 1, 2)`` from ``rng``. Its length is the sum of
    the step norms, both endpoints included: the Monte-Carlo counterpart of
    ``expected_path_length``.
    """
    if not isinstance(segments, (int, np.integer)) or segments < 1:
        raise DomainError(f"segments must be an integer >= 1, got {segments!r}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    dx, dy = map(float, displacement)
    if segments == 1 or sigma_m == 0.0:
        return np.full(n_samples, math.hypot(dx, dy))
    times = duration * np.arange(1, segments) / segments
    noise = make_rng(rng).standard_normal((n_samples, segments - 1, 2))
    paths = bridge_paths_sequential((0.0, 0.0), (dx, dy), duration, sigma_m,
                                    times, noise)
    ends = np.zeros((n_samples, 1, 2))
    steps = np.diff(paths, axis=1, prepend=ends, append=ends + (dx, dy))
    return np.hypot(steps[..., 0], steps[..., 1]).sum(axis=1)


@dataclass(frozen=True)
class BridgeTriple:
    """One (anchor, midpoint, anchor) observation triple."""

    left: Point
    mid: Point
    right: Point

    @property
    def duration(self) -> float:
        """Time spanned by the bridge between the two anchors."""
        return self.right.t - self.left.t

    @property
    def mid_offset(self) -> float:
        """Time from the left anchor to the midpoint observation."""
        return self.mid.t - self.left.t

    @property
    def displacement(self) -> np.ndarray:
        return np.array([self.right.x - self.left.x, self.right.y - self.left.y])

    @property
    def variance_weight(self) -> float:
        """Midpoint variance per unit sigma_m^2: tau (T - tau) / T."""
        tau = self.mid_offset
        return tau * (self.duration - tau) / self.duration

    @property
    def deviation(self) -> float:
        """Distance from the midpoint to the chord-interpolated position."""
        frac = self.mid_offset / self.duration
        ex = self.left.x + frac * (self.right.x - self.left.x)
        ey = self.left.y + frac * (self.right.y - self.left.y)
        return math.hypot(self.mid.x - ex, self.mid.y - ey)


def extract_triples(traj: Trajectory) -> list[BridgeTriple]:
    """Non-overlapping triples (z0,z1,z2), (z2,z3,z4), ...

    A trailing point that completes no triple is dropped. Triples with a
    degenerate variance weight are skipped. Raises TooFewPointsError below
    three points.
    """
    if len(traj) < 3:
        raise TooFewPointsError(
            f"need at least 3 points to form a triple, got {len(traj)}"
        )
    points = [Point(t, x, y) for t, (x, y) in
              zip(traj.times.tolist(), traj.coords.tolist())]
    triples = []
    for i in range(0, len(traj) - 2, 2):
        triple = BridgeTriple(*points[i:i + 3])
        if triple.variance_weight > VARIANCE_WEIGHT_FLOOR:
            triples.append(triple)
    return triples


def log_likelihood(sigma_m: float, triples: Sequence[BridgeTriple]) -> float:
    """Log of the product of midpoint densities under the bridge model."""
    if not (math.isfinite(sigma_m) and sigma_m > 0.0):
        raise DomainError(f"sigma_m must be > 0, got {sigma_m!r}")
    if not triples:
        raise TooFewPointsError("need at least one triple")
    total = 0.0
    var_scale = sigma_m * sigma_m
    for tr in triples:
        s2 = var_scale * tr.variance_weight
        r = tr.deviation
        total += -math.log(2.0 * math.pi) - math.log(s2) - r * r / (2.0 * s2)
    return total


def closed_form_sigma(triples: Sequence[BridgeTriple]) -> float:
    """Analytic maximizer of the likelihood: sqrt(sum(r^2/a) / (2N)).

    Raises DegenerateDataError when every midpoint sits exactly on its chord.
    """
    if not triples:
        raise TooFewPointsError("need at least one triple")
    quad = sum(tr.deviation ** 2 / tr.variance_weight for tr in triples)
    if quad == 0.0:
        raise DegenerateDataError("all midpoints are on their chords")
    return math.sqrt(quad / (2.0 * len(triples)))


def internal_state_loop(heading0, step, c_keep, c_left, c_right, c_reverse,
                        c_remain, action_u, dir_u):
    """One internal-state walk, (steps, 2) positions after each step, by
    stepping the moving/stationary state machine draw by draw."""
    steps = action_u.shape[0]
    out = np.empty((steps, 2))
    x = 0.0
    y = 0.0
    moving = True
    h = heading0
    for j in range(steps):
        u = action_u[j]
        if moving:
            if u < c_keep:
                pass
            elif u < c_left:
                h = (h + 1) % 4
            elif u < c_right:
                h = (h + 3) % 4
            elif u < c_reverse:
                h = (h + 2) % 4
            else:
                moving = False
        else:
            if u >= c_remain:
                moving = True
                h = int(dir_u[j] * 4.0)
        if moving:
            if h == 0:
                x = x + step
            elif h == 1:
                y = y + step
            elif h == 2:
                x = x - step
            else:
                y = y - step
        out[j, 0] = x
        out[j, 1] = y
    return out


def run_tumble_loop(theta0, tumble, fresh):
    """One run-and-tumble heading sequence, (steps,), draw by draw:
    ``theta0`` until the first nonzero ``tumble`` flag, then the ``fresh``
    angle of the latest tumble."""
    out = np.empty(len(tumble))
    theta = theta0
    for j in range(len(tumble)):
        if tumble[j]:
            theta = fresh[j]
        out[j] = theta
    return out


def _ratio(estimated: float, true: float) -> float:
    if true > 0.0:
        return estimated / true
    return 1.0 if estimated == 0.0 else math.inf


def loop_gap(gapped):
    """The gap the rog experiment fills in place of ``gapped``: from the
    final observed point, put at the left anchor's time, to the right
    anchor, with the same missing times."""
    observed, split = gapped.observed, gapped.split
    return GappedTrajectory(
        Trajectory(observed.times[[split - 1, split]],
                   observed.coords[[-1, split]]),
        1, gapped.missing_times)


def expected_rog_squared(gapped, sigma_m: float, start=None) -> float:
    """E[RoG^2] of ``gapped`` spliced with a bridge from ``start`` (default:
    the left anchor), put at the left anchor's time, to the right anchor, in
    closed form.

    With L the straight line spliced into the observed points, N points in
    all, s_j the missing times less the left anchor's, T the duration and
    v_j = s_j (T - s_j) / T, each coordinate of bridge point j has variance
    sigma^2 v_j and covariance sigma^2 s_i (T - s_j) / T with point i < j,
    so E[RoG^2] = RoG(L)^2 + 2 sigma^2 (sum v / N - (sum v + 2 sum_j
    ((T - s_j) / T) sum_{i<j} s_i) / N^2). One prefix sum gives the double
    sum.
    """
    coords, split = gapped.observed.coords, gapped.split
    end = coords[split]
    start = coords[split - 1] if start is None else np.asarray(start, dtype=float)
    duration = gapped.duration
    s = gapped.missing_times - gapped.observed.times[split - 1]
    line = start + (s / duration)[:, None] * (end - start)
    points = np.concatenate([coords[:split], line, coords[split:]])
    n = len(points)
    rog_squared = ((points - points.mean(axis=0)) ** 2).sum(axis=1).mean()
    v = s * (duration - s) / duration
    before = np.cumsum(s) - s  # sum_{i<j} s_i
    cross = ((duration - s) / duration * before).sum()
    return float(rog_squared + 2.0 * sigma_m ** 2
                 * (v.sum() / n - (v.sum() + 2.0 * cross) / n ** 2))


def experiment_columns(config) -> dict[str, list]:
    """The record columns of ``run_experiment(config)``, built one
    replicate at a time: generate, excise, estimate, then score the
    closed-form length or compare the path's radius of gyration with each
    fill's spliced one, from ``gap_rogs_interleaved``. Each record is a row
    dict; the rows become columns on return."""
    records = []
    for cell, spec in enumerate(config.models):
        d = spec_to_dict(spec)
        model = d.pop("model")
        # ``:g`` unless it loses digits, then the full repr
        params = ";".join(f"{k}={d[k]:g}" if float(f"{d[k]:g}") == d[k]
                          else f"{k}={float(d[k])!r}" for k in sorted(d))
        for rep in range(config.replicates):
            seed = child_seed(config.master_seed, cell, rep, 0)
            traj = generate(spec, config.steps, seed)
            gapped = excise_gap(traj, config.gap_start, config.gap_count)
            base = {"model": model, "params": params, "replicate": rep,
                    "seed": seed, "sigma_hat": estimate_sigma(gapped.observed).sigma_m}
            left, right = config.gap_start - 1, config.gap_start + config.gap_count
            if config.kind == "path-length":
                true_length = float(path_lengths(traj.coords[left:right + 1]))
                estimates = (
                    ("bridge", estimate_gap_length(gapped, base["sigma_hat"])),
                    ("linear", float(np.hypot(*gapped.chord))),
                )
                for method, estimated in estimates:
                    records.append({**base, "method": method,
                                    "true_length": true_length,
                                    "estimated_length": estimated,
                                    "length_ratio": _ratio(estimated, true_length)})
                continue
            loop = loop_gap(gapped)
            fill_seed = child_seed(config.master_seed, cell, rep, 1)
            rog_before = float(radii_of_gyration(traj.coords))
            for method, sigma in zip(METHODS, (base["sigma_hat"], 0.0)):
                fill = fill_gap(loop, sigma, fill_seed)
                rog_after = float(
                    gap_rogs_interleaved(gapped.observed.coords, fill[None])[0])
                records.append({**base, "method": method, "rog_before": rog_before,
                                "rog_after": rog_after,
                                "rog_error": _ratio(rog_after, rog_before)})
    return {name: [r[name] for r in records] for name in records[0]}
