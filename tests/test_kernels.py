import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bridgefill
from bridgefill import _kernels

from .oracles import (
    bridge_paths_interleaved,
    bridge_paths_sequential,
    internal_state_loop,
    run_tumble_loop,
)

SRC = str(Path(bridgefill.__file__).resolve().parents[1])

UNEVEN_TIMES = [
    np.array([0.3, 0.31, 2.5, 7.0, 9.99]),
    np.sort(np.random.default_rng(3).uniform(0.0, 10.0, 200)),
]


class TestBridgePaths:
    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("sigma", [0.0, 1.7])
    @pytest.mark.parametrize("times", UNEVEN_TIMES, ids=["k5", "k200"])
    def test_matches_sequential_oracle(self, m, sigma, times):
        start, end, duration = (3.0, -2.0), (-5.0, 8.0), 10.0
        noise = np.random.default_rng(11).standard_normal((m, len(times), 2))
        before = noise.copy()
        got = _kernels.bridge_paths(start, end, duration, sigma, times, noise)
        expected = bridge_paths_sequential(start, end, duration, sigma, times, noise)
        assert np.array_equal(noise, before)
        assert got.shape == (m, len(times), 2)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("k", [1, 2, 7, 1000])
    @pytest.mark.parametrize("batch", [(), (7,), (2, 7)])
    def test_equals_interleaved_reference(self, batch, k):
        # Bit for bit the (..., k, 2) layout's formula, far from the origin,
        # with one path driven by an infinite draw.
        rng = np.random.default_rng(k)
        times = np.sort(rng.uniform(0.0, 10.0, k))
        start, end = 1e6 + rng.normal(size=(*batch, 2)), 1e6 + rng.normal(size=2)
        sigma = rng.uniform(0.0, 2.0, batch)
        noise = rng.standard_normal((*batch, k, 2))
        noise[(0,) * len(batch) + (k // 2, 1)] = np.inf
        before = noise.copy()
        got = _kernels.bridge_paths(start, end, 10.0, sigma, times, noise)
        assert np.array_equal(noise, before)
        assert got.shape == noise.shape
        assert np.array_equal(
            got, bridge_paths_interleaved(start, end, 10.0, sigma, times, noise),
            equal_nan=True)

    def test_per_path_endpoints_and_sigma(self):
        # One call with a start, end and sigma per path equals one call per
        # path, bit for bit.
        times = UNEVEN_TIMES[1]
        rng = np.random.default_rng(4)
        start, end = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
        sigma = np.array([0.0, 0.3, 1.7, 0.0, 2.5, 1e-3])
        noise = rng.standard_normal((6, len(times), 2))
        got = _kernels.bridge_paths(start, end, 10.0, sigma, times, noise)
        for i in range(6):
            one = _kernels.bridge_paths(start[i], end[i], 10.0, sigma[i], times,
                                        noise[i:i + 1])
            assert np.array_equal(got[i], one[0])

    def test_method_axis(self):
        # Noise (2, m, k, 2) with a sigma per method and path, and anchors
        # shared by both methods, equals one call per method, bit for bit.
        times = UNEVEN_TIMES[1]
        rng = np.random.default_rng(5)
        start, end = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        sigma = np.array([[0.3, 1.7, 2.5, 1e-3], np.zeros(4)])
        noise = np.zeros((2, 4, len(times), 2))
        noise[0] = rng.standard_normal((4, len(times), 2))
        got = _kernels.bridge_paths(start, end, 10.0, sigma, times, noise)
        assert got.shape == noise.shape
        for j in range(2):
            one = _kernels.bridge_paths(start, end, 10.0, sigma[j], times, noise[j])
            assert np.array_equal(got[j], one)


class TestInternalStatePositions:
    @pytest.mark.parametrize("steps", [1, 2, 300])
    def test_per_row_thresholds_match_loop(self, steps):
        # Sorted random thresholds per row, with c_remain on either side of
        # c_reverse. Above it, a draw between the two resets the state to
        # stationary, which no generator spec reaches.
        rng = np.random.default_rng(steps)
        m = 40
        c = np.sort(rng.random((m, 4)), axis=1)
        remain = rng.random(m)
        remain[:2] = c[:2, 3] + (1.0 - c[:2, 3]) / 2.0
        remain[2:4] = c[2:4, 3] / 2.0
        step = rng.uniform(0.1, 2.0, m)
        heading0 = rng.integers(0, 4, m)
        action_u, dir_u = rng.random((m, steps)), rng.random((m, steps))
        got = _kernels.internal_state_positions(
            heading0, step[:, None], *(c[:, i:i + 1] for i in range(4)),
            remain[:, None], action_u, dir_u)
        assert got.shape == (m, steps, 2)
        for i in range(m):
            expected = internal_state_loop(heading0[i], step[i], *c[i], remain[i],
                                           action_u[i], dir_u[i])
            assert np.array_equal(got[i], expected), i


class TestRunTumbleAngles:
    @pytest.mark.parametrize("steps", [1, 50])
    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_matches_loop(self, steps, dtype):
        # Row 0 never tumbles, row 1 tumbles at step 0 only, and the rest
        # at random; int flags are any nonzero value.
        rng = np.random.default_rng(steps)
        theta0 = rng.uniform(0.0, 2.0 * np.pi, 6)
        fresh = rng.uniform(0.0, 2.0 * np.pi, (6, steps))
        tumble = (rng.random((6, steps)) < 0.2) * rng.integers(1, 4, (6, steps))
        tumble[0] = 0
        tumble[1] = 0
        tumble[1, 0] = -2
        tumble = tumble.astype(dtype)
        got = _kernels.run_tumble_angles(theta0, tumble, fresh)
        assert got.shape == (6, steps)
        for i in range(6):
            assert np.array_equal(got[i], run_tumble_loop(theta0[i], tumble[i],
                                                          fresh[i])), i
        assert np.all(got[0] == theta0[0])
        assert np.all(got[1] == fresh[1, 0])


def test_numpy_is_the_only_backend():
    assert bridgefill.BACKEND == "numpy"
    # A fresh interpreter: this one has imported the test-only packages.
    code = ("import sys, bridgefill.cli; print(sorted(m for m in "
            "('scipy', 'hypothesis', 'pytest', 'numba') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"
