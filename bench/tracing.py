"""Span recorder for the traced run.

Spans come only from the benchmark: each patch point replaces a function,
under the name its caller looks it up by (a module or class attribute), with
a wrapper that records one span per call. The wrappers are installed around
a traced op and removed after it, so untraced ops run the package as is.

A span row is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the
index of the enclosing span (-1 for the op's entry point), ``op`` the op
index. Rows stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

# Spans reported per layer, named ``<module>.<function>``; ``kernels`` is
# ``bridgefill._kernels`` (metric names may not start with ``_``).
MODELS = {
    "DiscreteBrownian": "discrete-brownian",
    "FixedVelocity": "fixed-velocity",
    "AngularWalk": "angular-walk",
    "InternalStateWalk": "internal-state",
    "RunTumble": "run-tumble",
}
SPANS = (
    "experiments.run_experiment",
    "experiments.loop_fill",
    "cli.main",
    "seeding.child_seed",
    *(f"generators.generate.{m}" for m in MODELS.values()),
    "kernels.internal_state_positions",
    "kernels.run_tumble_angles",
    "kernels.bridge_paths",
    "trajectory.validate",
    "trajectory.segment",
    "trajectory.excise_gap",
    "trajectory.observed",
    "trajectory.splice_fill",
    "trajectory.read_trajectory_csv",
    "trajectory.write_trajectory_csv",
    "estimator.estimate_sigma",
    "gapfill.estimate_gap_length",
    "gapfill.fill_bridge",
    "gapfill.fill_linear",
    "gapfill.estimate_gap_rog",
    "bridge.expected_path_length",
    "bridge.sample_bridge",
    "special.rice_mean",
    "metrics.gap_metrics",
    "metrics.path_length",
    "metrics.radius_of_gyration",
)


def _count_fit(counters, args, est):
    counters["estimator.fits"] += 1
    counters["estimator.clamped"] += bool(est.clamped)
    counters["estimator.skipped_triples"] += (len(args[0]) - 1) // 2 - est.n_triples


def _count_kernel(counters, args, out):
    m, k = out.shape[:2]
    counters["kernels.bridge_paths.paths"] += m
    counters["kernels.bridge_paths.points"] += m * k


def _count_realisations(counters, args, est):
    counters["gapfill.estimate_gap_rog.realisations"] += est.realisations


def _count_rows_read(counters, args, traj):
    counters["trajectory.read_trajectory_csv.rows"] += len(traj)


def _count_rows_written(counters, args, result):
    counters["trajectory.write_trajectory_csv.rows"] += len(args[1])


def _generate_name(args) -> str:
    return "generators.generate." + MODELS.get(type(args[0]).__name__,
                                                type(args[0]).__name__)


def patch_points(bf) -> list[tuple]:
    """``(owner, attribute, span name, counter hook)`` for every call into a
    layer made by the ops. ``bf`` maps module names to the imported
    ``bridgefill`` modules."""
    E, C, K, T = bf["experiments"], bf["cli"], bf["_kernels"], bf["trajectory"]
    return [
        (E, "run_experiment", "experiments.run_experiment", None),
        (E, "_loop_fill", "experiments.loop_fill", None),
        (C, "main", "cli.main", None),
        (E, "child_seed", "seeding.child_seed", None),
        (C, "child_seed", "seeding.child_seed", None),
        (E, "generate", _generate_name, None),
        (K, "internal_state_positions", "kernels.internal_state_positions", None),
        (K, "run_tumble_angles", "kernels.run_tumble_angles", None),
        (K, "bridge_paths", "kernels.bridge_paths", _count_kernel),
        (T.Trajectory, "__post_init__", "trajectory.validate", None),
        (T.Trajectory, "segment", "trajectory.segment", None),
        (T.GappedTrajectory, "observed", "trajectory.observed", None),
        (E, "excise_gap", "trajectory.excise_gap", None),
        (C, "excise_gap", "trajectory.excise_gap", None),
        (E, "splice_fill", "trajectory.splice_fill", None),
        (C, "splice_fill", "trajectory.splice_fill", None),
        (C, "read_trajectory_csv", "trajectory.read_trajectory_csv", _count_rows_read),
        (C, "write_trajectory_csv", "trajectory.write_trajectory_csv", _count_rows_written),
        (E, "estimate_sigma", "estimator.estimate_sigma", _count_fit),
        (C, "estimate_sigma", "estimator.estimate_sigma", _count_fit),
        (E, "estimate_gap_length", "gapfill.estimate_gap_length", None),
        (C, "estimate_gap_length", "gapfill.estimate_gap_length", None),
        (E, "fill_bridge", "gapfill.fill_bridge", None),
        (C, "fill_bridge", "gapfill.fill_bridge", None),
        (E, "fill_linear", "gapfill.fill_linear", None),
        (C, "fill_linear", "gapfill.fill_linear", None),
        (C, "estimate_gap_rog", "gapfill.estimate_gap_rog", _count_realisations),
        (bf["gapfill"], "expected_path_length", "bridge.expected_path_length", None),
        (E, "sample_bridge", "bridge.sample_bridge", None),
        (bf["gapfill"], "sample_bridge", "bridge.sample_bridge", None),
        (bf["bridge"], "rice_mean", "special.rice_mean", None),
        (E, "gap_metrics", "metrics.gap_metrics", None),
        (E, "path_length", "metrics.path_length", None),
        (bf["metrics"], "path_length", "metrics.path_length", None),
        (bf["metrics"], "radius_of_gyration", "metrics.radius_of_gyration", None),
        (C, "radius_of_gyration", "metrics.radius_of_gyration", None),
    ]


class Tracer:
    def __init__(self, points=()):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches = []
        self.missing = []
        for owner, attr, name, hook in points:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else \
                getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            else:
                self._patches.append((owner, attr, original, self.wrap(original, name, hook)))

    def wrap(self, fn, name, hook=None):
        """``fn`` recording a span per call; ``name`` may be a function of
        the call's positional arguments. ``hook(counters, args, result)``
        adds the call's counts."""
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            row = [name(args) if callable(name) else name, 0, 0,
                   stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(row)
            row[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self, op: int) -> None:
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans, slowdown=None) -> dict[str, list[float]]:
    """``name -> [calls, self_ns, total_ns]``.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest without overlapping. Durations are
    divided by ``slowdown[op]`` when given, to scale them to reference
    speed, and spans of ops missing from it are left out.
    """
    child_ns = [0.0] * len(spans)
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for name, start, end, parent, op in spans:
        if slowdown is not None and op not in slowdown:
            continue
        dur = (end - start) / (slowdown[op] if slowdown is not None else 1.0)
        if parent >= 0:
            child_ns[parent] += dur
        agg = out[name]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur
    for i, (name, *_) in enumerate(spans):
        if name in out:
            out[name][1] -= child_ns[i]
    return out


def layer_metrics(tracer: Tracer, slowdown: dict[int, float], overhead: float) -> dict:
    """Per-layer metrics of the traced ops, ``{name: (value, unit)}``, from
    the spans of the ops in ``slowdown``, which maps each to its host
    slowdown."""
    agg = self_times(tracer.spans, slowdown)
    traced_ops = max(len(slowdown), 1)
    wall_ns = sum((end - start) / slowdown[op] for _, start, end, parent, op
                  in tracer.spans if parent < 0 and op in slowdown)
    c = tracer.counters
    out = {}
    for name in SPANS:
        calls, self_ns, _ = agg.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / traced_ops, "calls/op")
        out[f"{name}.self_ms"] = (self_ns / 1e6 / traced_ops, "ms/op")
        out[f"{name}.share"] = (self_ns / wall_ns if wall_ns else 0.0, "ratio")

    def rate(count: float, span: str) -> float:
        total_ns = agg.get(span, (0, 0.0, 0.0))[2]
        return count / (total_ns / 1e9) if total_ns else 0.0

    fits = c["estimator.fits"]
    paths = c["kernels.bridge_paths.paths"]
    points = c["kernels.bridge_paths.points"]
    kernel_calls = agg.get("kernels.bridge_paths", (0,))[0]
    out.update({
        "estimator.clamped_ratio": (c["estimator.clamped"] / fits if fits else 0.0, "ratio"),
        "estimator.skipped_triples": (c["estimator.skipped_triples"] / traced_ops, "count/op"),
        "kernels.bridge_paths.paths_per_call": (
            paths / kernel_calls if kernel_calls else 0.0, "paths"),
        "kernels.bridge_paths.points_per_s": (rate(points, "kernels.bridge_paths"), "1/s"),
        "kernels.bridge_paths.bytes": (32.0 * points / traced_ops, "B/op"),
        "gapfill.estimate_gap_rog.realisations_per_s": (
            rate(c["gapfill.estimate_gap_rog.realisations"], "gapfill.estimate_gap_rog"), "1/s"),
        "trajectory.read_trajectory_csv.rows_per_s": (
            rate(c["trajectory.read_trajectory_csv.rows"], "trajectory.read_trajectory_csv"), "1/s"),
        "trajectory.write_trajectory_csv.rows_per_s": (
            rate(c["trajectory.write_trajectory_csv.rows"], "trajectory.write_trajectory_csv"), "1/s"),
        "tracing.overhead": (overhead, "ratio"),
    })
    return out
