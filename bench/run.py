"""Benchmark of bridgefill's three entry points.

    python3 bench/run.py --workload path-length --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. One process, one thread: BLAS/OpenMP pools are pinned to one
thread before numpy loads. After one warm-up op, ops run back to back until
``--seconds`` have passed; each op's output is checked. With ``--trace 0``
the result holds the end-to-end metrics; with ``--trace 1`` ops alternate
untraced and traced, and the result holds the per-layer metrics of the
traced ops. A readable report precedes the result, which is the last line
of standard output: ``{"correct", "attempted", "failed", "metrics"}``. The
report, the environment and the spans of a traced run are also written to
``.bench_out/``.
"""

from __future__ import annotations

import os

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

import numpy  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("bridgefill", "experiments", "cli", "gapfill", "bridge", "metrics",
           "trajectory", "_kernels")
SETUP_SAMPLES = 11


def load_package() -> dict:
    """Import ``bridgefill`` from this checkout's ``src/``, never from an
    installed copy."""
    if not (SRC / "bridgefill" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'bridgefill'}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("bridgefill")
    if Path(pkg.__file__).resolve().parent != SRC / "bridgefill":
        sys.exit(f"bench: imported bridgefill from {pkg.__file__}, not {SRC}")
    return {name: pkg if name == "bridgefill" else
            importlib.import_module(f"bridgefill.{name}") for name in MODULES}


def measure_setup() -> list[tuple[float, float]]:
    """``(seconds, slowdown)`` to ``import bridgefill.cli`` in fresh
    interpreters, after one unmeasured import that fills the bytecode
    cache. Each import is paired with a reference import of standard-library
    packages, which gives the host's slowdown."""
    # The children only read bytecode; this process has written the package's.
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        ref = calibrate.import_seconds(calibrate.REFERENCE_MODULES, env, ROOT)
        samples.append((calibrate.import_seconds("bridgefill.cli", env, ROOT),
                        ref / calibrate.REFERENCE_IMPORT_S))
    return samples[1:]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(bf) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": bf["bridgefill"].BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "thread_pins": THREAD_PINS,
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_ops(workload, seconds: float, trace: bool, tracer):
    """Warm up, then run ops until ``seconds`` have passed.

    Returns ``(attempted, failed, untraced, traced)``, where the last two
    hold ``(op, op_ns, slowdown)`` for each op that completed and passed its
    check; the slowdown is calibrated just before and after the op.
    """
    attempted = failed = 0
    samples: tuple[list, list] = ([], [])
    deadline = None
    i = 0  # op 0 warms up and is not timed
    while deadline is None or perf_counter() < deadline:
        traced = trace and i > 0 and i % 2 == 0
        attempted += 1
        before = workload.calibration.slowdown()
        if traced:
            tracer.install(i)
        try:
            t0 = perf_counter_ns()
            result = workload.run(i)
            elapsed = perf_counter_ns() - t0
            problems = None
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        finally:
            if traced:
                tracer.uninstall()
        slowdown = (before + workload.calibration.slowdown()) / 2
        if problems is None:
            try:
                problems = workload.check(i, result)
            except Exception:
                traceback.print_exc()
                problems = ["check raised"]
        if problems:
            failed += 1
            print(f"op {i}: FAILED: " + "; ".join(problems[:5]), file=sys.stderr)
        elif i > 0:
            samples[traced].append((i, elapsed, slowdown))
        if i == 0:
            deadline = perf_counter() + seconds
        i += 1
    return attempted, failed, samples[0], samples[1]


def latency_metrics(samples, scale: bool) -> dict:
    """Op latency and throughput, at reference speed when ``scale``."""
    op_ms = [ns / 1e6 / (slow if scale else 1.0) for _, ns, slow in samples] or [0.0]
    return {
        "ops_per_s": (len(samples) / (sum(op_ms) / 1e3) if samples else 0.0, "1/s"),
        "op_ms.p50": (percentile(op_ms, 50), "ms"),
        "op_ms.p90": (percentile(op_ms, 90), "ms"),
    }


def end_to_end(attempted, failed, samples, setup, scale: bool = True) -> dict:
    return {
        "setup_s": (statistics.median(t / (slow if scale else 1.0) for t, slow in setup), "s"),
        **latency_metrics(samples, scale),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def print_report(args, env, samples, metrics, wall, missing) -> None:
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} samples={samples}")
    print(f"# environment {json.dumps(env)}")
    if missing:
        print(f"# patch points not found: {', '.join(missing)}")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:14s} {value:14.6g} {unit:6s} wall {wall[name][0]:.6g}")
        return
    print(f"{'span':42s} {'calls/op':>10s} {'self ms/op':>11s} {'share':>7s}")
    for span in sorted(tracing.SPANS, key=lambda n: -metrics[f"{n}.share"][0]):
        calls, self_ms, share = (metrics[f"{span}.{k}"][0] for k in ("calls", "self_ms", "share"))
        if calls:
            print(f"{span:42s} {calls:10.6g} {self_ms:11.4f} {share:7.2%}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_ms", ".share")):
            print(f"{name:42s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bf = load_package()
    env = environment(bf)
    # One CPU for the ops, the imports of ``setup_s`` and their calibration,
    # so that each time is scaled by the speed of the CPU it ran on.
    env["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setup = [] if args.trace else measure_setup()
        workload = WORKLOADS[args.workload](bf, args.seed, workdir)
        tracer = tracing.Tracer(tracing.patch_points(bf))
        attempted, failed, untraced, traced = run_ops(
            workload, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    slowdowns = [slow for _, _, slow in untraced + traced]
    env["host_slowdown.p50"] = statistics.median(slowdowns) if slowdowns else None
    if args.trace:
        p50 = [latency_metrics(s, scale=True)["op_ms.p50"][0] for s in (untraced, traced)]
        overhead = p50[1] / p50[0] - 1.0 if untraced and traced else 0.0
        metrics = tracing.layer_metrics(tracer, {op: slow for op, _, slow in traced},
                                        overhead)
        wall = {}
        tracer.write(OUT / f"{tag}-spans.json")
        samples = {"untraced": len(untraced), "traced": len(traced)}
    else:
        metrics = end_to_end(attempted, failed, untraced, setup)
        wall = end_to_end(attempted, failed, untraced, setup, scale=False)
        samples = {"ops": len(untraced), "setup": len(setup)}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "samples": samples, "environment": env,
              "missing_patch_points": tracer.missing, **result,
              "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(args, env, samples, metrics, wall, tracer.missing)
    if args.trace and untraced:
        total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
        print(f"# span self times sum to {total:.4g} ms/op; untraced op_ms.p50 "
              f"is {p50[0]:.4g} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
