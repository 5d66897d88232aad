"""Hot numeric kernels, in plain numpy, each over a batch of m paths.

All kernels consume pre-drawn random variates; the generators stay with the
callers, so a seed means the same draws whatever the kernel does with them.
Callers look kernels up as ``_kernels.<name>`` at call time, so a profiler
can swap in a wrapper by patching the module attribute.

Positions stay (..., n, 2), but the kernels compute on the x and y planes,
``[..., 0]`` and ``[..., 1]``: a loop along the 2-long axis would pay numpy's
loop overhead on every second element. Sums run sequentially along a plane.
"""

from __future__ import annotations

import numpy as np


def bridge_paths(start, end, duration, sigma_m, times, noise):
    """Bridges from ``start`` at 0 to ``end`` at ``duration`` at the
    interior ``times`` (k,), driven by standard normals ``noise`` (..., k, 2)
    with any leading batch shape; returns positions of the shape of
    ``noise``. The callers pass (m,): ``gapfill``'s m realisations of one
    gap, and the ``rog`` experiment block's m rows, once per fill method.
    ``start`` and ``end`` broadcast as (..., 2) points and ``sigma_m`` as
    (...), so each may be shared or given per path.

    Exact at any interior times, with pinned endpoints: at time t a point
    is Gaussian around the chord with per-coordinate variance
    sigma_m^2 t (T - t) / T. Conditioning each point on the previous one
    and the endpoint adds step noise sd_i n_i, sd_i the conditional
    standard deviation of step i; unrolled, the deviation from the chord
    at t_j is (T - t_j) * sum_{i<=j} sd_i n_i / (T - t_i), the discrete
    form of X_t = (T - t) * integral_0^t dW_s / (T - s) (Glasserman,
    *Monte Carlo Methods in Financial Engineering*, 2004, section 3.1).
    One cumulative sum over the noise builds all paths. ``noise`` is read,
    never written; positions that overflow come out inf or NaN.
    """
    start = np.asarray(start, dtype=float)[..., None, :]
    end = np.asarray(end, dtype=float)[..., None, :]
    dt = np.diff(times, prepend=0.0)
    rest = duration - times
    sd = np.asarray(sigma_m, dtype=float)[..., None] * np.sqrt(dt * rest / (rest + dt))
    scale, frac = sd / rest, times / duration
    out = np.empty(noise.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(2):
            plane = out[..., i]
            np.multiply(noise[..., i], scale, out=plane)
            np.cumsum(plane, axis=-1, out=plane)
            plane *= rest
            plane += start[..., i] + frac * (end[..., i] - start[..., i])
    return out


def _since_last(flags):
    """Index of the latest True in ``flags`` (m, steps) at or before each
    step, -1 before the first."""
    idx = np.where(flags, np.arange(flags.shape[1]), -1)
    return np.maximum.accumulate(idx, axis=1)


def _at(values, index, before):
    """``values`` (m, steps) at ``index`` (m, steps), and ``before`` (a
    scalar or one per path, (m,)) where the index is -1."""
    got = np.take_along_axis(values, np.maximum(index, 0), axis=1)
    return np.where(index >= 0, got, np.reshape(before, (-1, 1)))


def run_tumble_angles(theta0, tumble, fresh):
    """Heading after each step, (m, steps): ``theta0`` (m,) until the first
    nonzero ``tumble`` flag, then the ``fresh`` angle drawn at the latest
    tumble."""
    return _at(fresh, _since_last(tumble != 0), theta0)


# Heading h moves by (_DX[h], _DY[h]) steps: east, north, west, south.
_DX = np.array([1.0, 0.0, -1.0, 0.0])
_DY = np.array([0.0, 1.0, 0.0, -1.0])


def internal_state_positions(heading0, step, c_keep, c_left, c_right,
                             c_reverse, c_remain, action_u, dir_u):
    """Grid walks driven by a two-state (moving/stationary) transition
    table; returns the (m, steps, 2) positions after each step.

    ``heading0`` (m,) is each walk's starting heading (0..3, east first,
    counter-clockwise); every walk starts moving. ``c_*`` are cumulative
    probability thresholds on the uniform draws ``action_u`` (m, steps): a
    moving walker keeps its heading below ``c_keep``, turns left below
    ``c_left``, right below ``c_right``, reverses below ``c_reverse`` and
    stops otherwise; a stationary one stays below ``c_remain`` and otherwise
    starts moving in the new heading ``int(4 * dir_u)``. ``step`` and the
    thresholds are scalars or one per walk, as (m, 1) columns.

    Without a loop: each step maps the state (moving or not) by identity,
    swap or reset, so the state is the latest reset's value flipped by the
    parity of swaps since it. The heading restarts at each start and
    otherwise adds the turns taken while moving, modulo 4.
    """
    m, steps = action_u.shape
    keeps_moving = action_u < c_reverse
    starts_moving = action_u >= c_remain
    reset = keeps_moving == starts_moving
    swaps = np.cumsum(~keeps_moving & starts_moving, axis=1)
    last_reset = _since_last(reset)
    parity = (swaps - _at(swaps, last_reset, 0)) % 2 == 1
    moving = _at(keeps_moving, last_reset, True) ^ parity
    was_moving = np.ones_like(moving)
    was_moving[:, 1:] = moving[:, :-1]

    turn = np.select(
        [action_u < c_keep, action_u < c_left, action_u < c_right,
         action_u < c_reverse],
        [0, 1, 3, 2], 0)
    turns = np.cumsum(np.where(was_moving, turn, 0), axis=1)
    started = ~was_moving & starts_moving
    last_start = _since_last(started)
    base = _at((dir_u * 4.0).astype(np.int64), last_start, heading0)
    heading = (base + turns - _at(turns, last_start, 0)) % 4

    out = np.empty((m, steps, 2))
    np.cumsum(np.where(moving, step * _DX[heading], 0.0), axis=1, out=out[..., 0])
    np.cumsum(np.where(moving, step * _DY[heading], 0.0), axis=1, out=out[..., 1])
    return out
