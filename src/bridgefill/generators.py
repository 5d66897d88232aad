"""Synthetic movement processes used to produce test data.

Five generators, all starting at the origin and emitting one point per unit
time step:

* discrete-brownian: independent Gaussian increments per coordinate; with a
  target displacement the walk is pinned so the final point lands on it.
* fixed-velocity: unit-time steps of fixed length in fresh uniform
  directions.
* angular-walk: fixed step length, heading angle accumulating Gaussian
  increments.
* internal-state: a grid walker alternating between moving and stationary
  according to a transition table; ``uniformity`` blends the table towards
  uniform choice over the options.
* run-tumble: straight runs at fixed speed; each step re-orients to a fresh
  uniform direction with probability 1 - exp(-rate).

Generation is deterministic given (spec, steps, seed): each model consumes a
PCG64 stream in a fixed documented order (initial-direction draws first,
then per-step draws; unused pre-drawn variates are discarded rather than
skipped so draw counts never depend on the realisation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from . import _kernels
from .errors import InvalidSpecError
from .seeding import make_rng
from .trajectory import Trajectory

_TWO_PI = 2.0 * math.pi


def _check_scale(name: str, value: float, positive: bool = False) -> None:
    ok = math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)
    if not ok:
        bound = "> 0" if positive else ">= 0"
        raise InvalidSpecError(f"{name} must be finite and {bound}, got {value!r}")


@dataclass(frozen=True)
class InternalStateTable:
    """Transition probabilities of the internal-state walker.

    The moving-state options (keep heading, turn left, turn right, reverse,
    stop) and the stationary-state options (stay stopped, start moving) each
    sum to one. Left and right turns are equally likely, reversing is rarer
    than turning, and keeping the heading dominates.
    """

    keep_heading: float
    turn_left: float
    turn_right: float
    reverse: float
    stop: float
    stay_stopped: float
    start_moving: float

    def __post_init__(self) -> None:
        probs = (
            self.keep_heading, self.turn_left, self.turn_right,
            self.reverse, self.stop, self.stay_stopped, self.start_moving,
        )
        if any(not (math.isfinite(p) and p >= 0.0) for p in probs):
            raise InvalidSpecError("probabilities must be finite and >= 0")
        if abs(self.keep_heading + self.turn_left + self.turn_right
               + self.reverse + self.stop - 1.0) > 1e-12:
            raise InvalidSpecError("moving-state probabilities must sum to 1")
        if abs(self.stay_stopped + self.start_moving - 1.0) > 1e-12:
            raise InvalidSpecError("stationary-state probabilities must sum to 1")
        if self.turn_left != self.turn_right:
            raise InvalidSpecError("no preference between left and right turns")
        if not self.reverse < self.turn_left < self.keep_heading:
            raise InvalidSpecError(
                "need reverse < turn probability < keep-heading probability"
            )


def default_internal_state_table() -> InternalStateTable:
    """Baseline transition table.

    Keeping the current behaviour dominates, turns are symmetric and
    uncommon, and sudden reversals are rare.
    """
    return InternalStateTable(
        keep_heading=0.85,
        turn_left=0.06,
        turn_right=0.06,
        reverse=0.01,
        stop=0.02,
        stay_stopped=0.95,
        start_moving=0.05,
    )


@dataclass(frozen=True)
class DiscreteBrownian:
    """Random walk with N(0, sigma^2) increments per coordinate; ``target``
    pins the displacement over the whole path."""

    sigma: float
    target: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        _check_scale("sigma", self.sigma)
        if self.target is not None:
            target = tuple(map(float, self.target))
            if len(target) != 2 or not all(map(math.isfinite, target)):
                raise InvalidSpecError("target must be a finite 2-D point")
            object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class FixedVelocity:
    """Fixed step length, fresh uniform direction every step."""

    v: float = 1.0

    def __post_init__(self) -> None:
        _check_scale("v", self.v)


@dataclass(frozen=True)
class AngularWalk:
    """Fixed step length; heading accumulates N(0, sigma^2) increments."""

    sigma: float
    v: float = 1.0

    def __post_init__(self) -> None:
        _check_scale("sigma", self.sigma)
        _check_scale("v", self.v)


@dataclass(frozen=True)
class InternalStateWalk:
    """Grid walker with a moving/stationary internal state.

    ``uniformity`` blends the transition table with the uniform one:
    0 keeps the table, 1 makes every option equally likely.
    """

    uniformity: float = 0.0
    step: float = 1.0
    table: InternalStateTable = field(default_factory=default_internal_state_table)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.uniformity) and 0.0 <= self.uniformity <= 1.0):
            raise InvalidSpecError(
                f"uniformity must lie in [0, 1], got {self.uniformity!r}"
            )
        _check_scale("step", self.step)


@dataclass(frozen=True)
class RunTumble:
    """Straight runs; each step tumbles to a fresh uniform direction with
    probability 1 - exp(-rate)."""

    rate: float
    v: float = 1.0

    def __post_init__(self) -> None:
        _check_scale("rate", self.rate, positive=True)
        _check_scale("v", self.v)


ModelSpec = Union[
    DiscreteBrownian, FixedVelocity, AngularWalk, InternalStateWalk, RunTumble
]

MODEL_NAMES = (
    "discrete-brownian",
    "fixed-velocity",
    "angular-walk",
    "internal-state",
    "run-tumble",
)


def effective_state_probs(
    table: InternalStateTable, uniformity: float
) -> tuple[np.ndarray, np.ndarray]:
    """Blend the table with the uniform distribution over each option group.

    Returns (moving probabilities, stationary probabilities).
    """
    u = float(uniformity)
    moving = np.array(
        [table.keep_heading, table.turn_left, table.turn_right,
         table.reverse, table.stop]
    )
    stationary = np.array([table.stay_stopped, table.start_moving])
    return (
        (1.0 - u) * moving + u / len(moving),
        (1.0 - u) * stationary + u / len(stationary),
    )


def _walk(step_xy: np.ndarray) -> np.ndarray:
    """Positions (m, steps + 1, 2) from the origin along ``step_xy``
    (m, steps, 2)."""
    m, steps, _ = step_xy.shape
    coords = np.zeros((m, steps + 1, 2))
    np.cumsum(step_xy, axis=1, out=coords[:, 1:])
    return coords


def _heading_walk(v: float, theta: np.ndarray) -> np.ndarray:
    return _walk(v * np.stack([np.cos(theta), np.sin(theta)], axis=-1))


def _stack(draws) -> list[np.ndarray]:
    """Each field of per-path ``draws`` tuples, stacked over the paths."""
    return [np.array(field) for field in zip(*draws)]


def generate_many(
    spec: ModelSpec,
    steps: int,
    seeds: Sequence[int | np.random.Generator],
) -> np.ndarray:
    """Simulate one path per seed (at least one); returns positions
    (len(seeds), steps + 1, 2) at times 0..steps, each starting at the
    origin.

    Row i consumes only ``seeds[i]``'s stream, in the documented order, so
    it equals ``generate(spec, steps, seeds[i]).coords`` bit for bit.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise InvalidSpecError(f"steps must be an integer >= 1, got {steps!r}")
    steps = int(steps)
    rngs = [make_rng(seed) for seed in seeds]

    if isinstance(spec, DiscreteBrownian):
        incr = spec.sigma * np.array([rng.standard_normal((steps, 2)) for rng in rngs])
        walk = _walk(incr)
        if spec.target is None:
            return walk
        frac = (np.arange(steps + 1, dtype=float) / steps)[:, None]
        return frac * np.asarray(spec.target) + (walk - frac * walk[:, -1:])

    if isinstance(spec, FixedVelocity):
        theta = np.array([rng.uniform(0.0, _TWO_PI, steps) for rng in rngs])
        return _heading_walk(spec.v, theta)

    if isinstance(spec, AngularWalk):
        theta0, noise = _stack(
            (rng.uniform(0.0, _TWO_PI), rng.standard_normal(steps)) for rng in rngs)
        theta = theta0[:, None] + np.cumsum(spec.sigma * noise, axis=1)
        return _heading_walk(spec.v, theta)

    if isinstance(spec, RunTumble):
        p_tumble = 1.0 - math.exp(-spec.rate)
        theta0, tumble, fresh = _stack(
            (rng.uniform(0.0, _TWO_PI), rng.random(steps) < p_tumble,
             rng.uniform(0.0, _TWO_PI, steps)) for rng in rngs)
        return _heading_walk(
            spec.v, _kernels.run_tumble_angles(theta0, tumble, fresh))

    if isinstance(spec, InternalStateWalk):
        moving, stationary = effective_state_probs(spec.table, spec.uniformity)
        c = np.cumsum(moving)
        heading0, action_u, dir_u = _stack(
            (int(rng.random() * 4.0), rng.random(steps), rng.random(steps))
            for rng in rngs)
        coords = np.zeros((len(rngs), steps + 1, 2))
        coords[:, 1:] = _kernels.internal_state_positions(
            heading0, spec.step, c[0], c[1], c[2], c[3], stationary[0],
            action_u, dir_u,
        )
        return coords

    raise InvalidSpecError(f"unknown model spec {spec!r}")


def generate(spec: ModelSpec, steps: int, seed: int | np.random.Generator) -> Trajectory:
    """Simulate ``steps`` unit time steps of the given movement process.

    Returns a trajectory of ``steps + 1`` points at times 0..steps starting
    at the origin; identical output for identical (spec, steps, seed).
    """
    coords = generate_many(spec, steps, [seed])[0]
    return Trajectory(np.arange(len(coords), dtype=float), coords)


def _model_name(spec: ModelSpec) -> str:
    return {
        DiscreteBrownian: "discrete-brownian",
        FixedVelocity: "fixed-velocity",
        AngularWalk: "angular-walk",
        InternalStateWalk: "internal-state",
        RunTumble: "run-tumble",
    }[type(spec)]


def spec_to_dict(spec: ModelSpec) -> dict:
    """Serialise a model spec to a flat JSON-compatible mapping."""
    name = _model_name(spec)
    if isinstance(spec, DiscreteBrownian):
        out: dict = {"model": name, "sigma": spec.sigma}
        if spec.target is not None:
            out["target_x"], out["target_y"] = spec.target
        return out
    if isinstance(spec, FixedVelocity):
        return {"model": name, "v": spec.v}
    if isinstance(spec, AngularWalk):
        return {"model": name, "sigma": spec.sigma, "v": spec.v}
    if isinstance(spec, InternalStateWalk):
        return {"model": name, "uniformity": spec.uniformity, "step": spec.step}
    return {"model": name, "l": spec.rate, "v": spec.v}


def spec_from_dict(data: dict) -> ModelSpec:
    """Inverse of :func:`spec_to_dict`; raises InvalidSpecError on unknown
    models or parameters, or when ``data`` is not a mapping."""
    if not isinstance(data, dict):
        raise InvalidSpecError(f"a model spec must be a mapping, got {data!r}")
    data = dict(data)
    name = data.pop("model", None)
    if name not in MODEL_NAMES:
        raise InvalidSpecError(
            f"unknown model {name!r}; valid models: {', '.join(MODEL_NAMES)}"
        )
    try:
        params = {k: float(v) for k, v in data.items()}
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"non-numeric parameter: {exc}") from None

    def take(allowed: dict[str, float]) -> dict[str, float]:
        unknown = set(params) - set(allowed)
        if unknown:
            raise InvalidSpecError(
                f"unknown parameter(s) {sorted(unknown)} for model {name!r}"
            )
        return {**allowed, **params}

    if name == "discrete-brownian":
        has_target = {"target_x", "target_y"} & set(params)
        kw = take({"sigma": 1.0, "target_x": 0.0, "target_y": 0.0})
        if has_target and len(has_target) != 2:
            raise InvalidSpecError("target_x and target_y must be given together")
        target = (kw["target_x"], kw["target_y"]) if has_target else None
        return DiscreteBrownian(sigma=kw["sigma"], target=target)
    if name == "fixed-velocity":
        kw = take({"v": 1.0})
        return FixedVelocity(v=kw["v"])
    if name == "angular-walk":
        kw = take({"sigma": 1.0, "v": 1.0})
        return AngularWalk(sigma=kw["sigma"], v=kw["v"])
    if name == "internal-state":
        kw = take({"uniformity": 0.0, "step": 1.0, "s": None})
        if kw["s"] is not None:  # short alias for uniformity
            kw["uniformity"] = kw["s"]
        return InternalStateWalk(uniformity=kw["uniformity"], step=kw["step"])
    kw = take({"l": None, "rate": None, "v": 1.0})
    rate = kw["l"] if kw["l"] is not None else kw["rate"]
    if rate is None:
        raise InvalidSpecError("run-tumble requires parameter l")
    return RunTumble(rate=rate, v=kw["v"])
