"""Host-speed calibration for the end-to-end timings.

On a shared host the same op can take 1.7 times longer from one minute to
the next, because other tenants compete for the core and its caches. A
fixed calibration workload that runs next to each op slows down by the
same factor, so the benchmark reports each time scaled to reference speed:

    reference time = measured time * nominal time / calibration time

where the nominal time is the calibration's duration on an uncontended
core of the reference host (Intel Xeon, Sapphire Rapids, KVM guest with
2 vCPUs). The calibrations use only Python, its standard library and numpy,
never ``bridgefill``, so a change to the package cannot move them. Each
kind of timed work has its own: ``INTERPRETER`` for ops made of many small
calls (the experiments), ``MIXED`` for ops that also stream (1e5, 2)-shaped
arrays (``fill`` on a large CSV), and a reference import in a fresh
interpreter for the package import of ``setup_s``.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

_SMALL = np.arange(200.0)
_LARGE = np.linspace(0.0, 1.0, 200_000).reshape(-1, 2)


def _interpreter() -> float:
    s = 0.0
    for j in range(300):
        b = _SMALL * 1.0001 + j
        s += float(b.sum()) + math.sqrt(j + 1.0)
        s += float(repr(s * 1e-9)[:8])
    return s


def _mixed() -> float:
    centred = _LARGE - _LARGE.mean(axis=0)
    return _interpreter() + float((centred * centred).sum())


class Loop:
    """A calibration loop and its nominal duration on the reference host."""

    def __init__(self, fn, nominal_s: float, repeats: int):
        self.fn, self.nominal_s, self.repeats = fn, nominal_s, repeats

    def slowdown(self) -> float:
        """Median duration of ``repeats`` runs of the loop over its nominal
        duration: above 1 when the host is slower than the reference."""
        times = []
        for _ in range(self.repeats):
            t0 = perf_counter()
            self.fn()
            times.append(perf_counter() - t0)
        return statistics.median(times) / self.nominal_s


INTERPRETER = Loop(_interpreter, nominal_s=1.1e-3, repeats=1)
MIXED = Loop(_mixed, nominal_s=4.2e-3, repeats=3)


# Standard-library packages that bridgefill does not import, and the time to
# import them in a fresh interpreter on the reference host.
REFERENCE_MODULES = ("asyncio, decimal, email.parser, http.client, xml.dom.minidom, "
                     "unittest, tarfile, logging.handlers, argparse")
REFERENCE_IMPORT_S = 0.05


def import_seconds(modules: str, env: dict, cwd) -> float:
    """Seconds to import ``modules`` in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {modules}; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)
