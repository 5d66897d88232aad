"""Hot numeric kernels, in plain numpy.

All kernels consume pre-drawn random variates; the generators stay with the
callers, so a seed means the same draws whatever the kernel does with them.
Callers look kernels up as ``_kernels.<name>`` at call time, so a profiler
can swap in a wrapper by patching the module attribute.
"""

from __future__ import annotations

import numpy as np

# Recorded in experiment summaries; numpy is the only implementation.
BACKEND = "numpy"


def bridge_paths(sx, sy, ex, ey, duration, sigma_m, times, noise):
    """Bridges from (sx, sy) at 0 to (ex, ey) at ``duration`` at the
    interior ``times`` (k,), driven by standard normals ``noise`` (m, k, 2);
    returns (m, k, 2) positions.

    Closed form of sequential conditioning on the previous point and the
    endpoint: the deviation from the chord at t_j is
    (T - t_j) * sum_{i<=j} sd_i n_i / (T - t_i), with sd_i the conditional
    standard deviation of step i. ``noise`` is read, never written.
    """
    dt = np.diff(times, prepend=0.0)
    rest = duration - times
    sd = sigma_m * np.sqrt(dt * rest / (rest + dt))
    out = noise * (sd / rest)[:, None]
    np.cumsum(out, axis=1, out=out)
    out *= rest[:, None]
    out += np.array([sx, sy]) + np.outer(times / duration, [ex - sx, ey - sy])
    return out


def run_tumble_angles(theta0, tumble, fresh):
    """Heading after each step: ``theta0`` until the first nonzero
    ``tumble`` flag, then the ``fresh`` angle drawn at the latest tumble."""
    steps = tumble.shape[0]
    idx = np.where(tumble != 0, np.arange(steps), -1)
    last = np.maximum.accumulate(idx)
    return np.where(last >= 0, fresh[np.maximum(last, 0)], theta0)


def internal_state_positions(heading0, step, c_keep, c_left, c_right,
                             c_reverse, c_remain, action_u, dir_u):
    # Grid walk driven by a two-state (moving/stationary) transition table.
    # c_* are cumulative probability thresholds; action_u/dir_u are uniform
    # draws in [0, 1). Starts moving with the given heading. Returns the
    # (steps, 2) positions after each step.
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
