import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bridgefill
from bridgefill import _kernels

from .oracles import bridge_paths_sequential

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


def test_numpy_is_the_only_backend():
    assert bridgefill.BACKEND == "numpy"
    # A fresh interpreter: this one has imported the test-only packages.
    code = ("import sys, bridgefill.cli; print(sorted(m for m in "
            "('scipy', 'hypothesis', 'pytest', 'numba') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"
