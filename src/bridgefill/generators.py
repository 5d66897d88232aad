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
  with fixed transition probabilities; ``uniformity`` blends them towards
  uniform choice over the options.
* run-tumble: straight runs at fixed speed; each step re-orients to a fresh
  uniform direction with probability 1 - exp(-l).

Each spec dataclass is its own JSON form: ``spec_to_dict`` gives
``{"model": spec.model, **fields}`` without the unset ones, and
``spec_from_dict`` takes exactly those keys back.

Generation is deterministic given (spec, steps, seed): each model consumes a
PCG64 stream in a fixed documented order (initial-direction draws first,
then per-step draws; unused pre-drawn variates are discarded rather than
skipped so draw counts never depend on the realisation).

``generate_many`` takes a spec per row, in any mix of models, and runs the
rows of each model class as one array pass that reads every parameter as a
per-row (m, 1) column; each value is the same arithmetic as the one-row
case, so a row does not depend on the rows it shares a call with.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar, Sequence, Union

import numpy as np

from . import _kernels
from .errors import InvalidSpecError, _check_scale
from .seeding import make_rng
from .trajectory import Trajectory

_TWO_PI = 2.0 * math.pi


# Internal-state transition probabilities. Moving: keep heading, turn left,
# turn right, reverse, stop; stationary: stay stopped, start moving. Keeping
# the current behaviour dominates, turns are symmetric and uncommon, and
# sudden reversals are rare.
_MOVING_PROBS = np.array([0.85, 0.06, 0.06, 0.01, 0.02])
_STATIONARY_PROBS = np.array([0.95, 0.05])


@dataclass(frozen=True)
class DiscreteBrownian:
    """Random walk with N(0, sigma^2) increments per coordinate;
    ``target_x``/``target_y`` pin the displacement over the whole path."""

    model: ClassVar[str] = "discrete-brownian"
    sigma: float = 1.0
    target_x: float | None = None
    target_y: float | None = None

    def __post_init__(self) -> None:
        _check_scale("sigma", self.sigma)
        target = (self.target_x, self.target_y)
        if target.count(None) == 1:
            raise InvalidSpecError("target_x and target_y must be given together")
        if None not in target and not all(map(math.isfinite, target)):
            raise InvalidSpecError("target_x and target_y must be finite")


@dataclass(frozen=True)
class FixedVelocity:
    """Fixed step length, fresh uniform direction every step."""

    model: ClassVar[str] = "fixed-velocity"
    v: float = 1.0

    def __post_init__(self) -> None:
        _check_scale("v", self.v)


@dataclass(frozen=True)
class AngularWalk:
    """Fixed step length; heading accumulates N(0, sigma^2) increments."""

    model: ClassVar[str] = "angular-walk"
    sigma: float = 1.0
    v: float = 1.0

    def __post_init__(self) -> None:
        _check_scale("sigma", self.sigma)
        _check_scale("v", self.v)


@dataclass(frozen=True)
class InternalStateWalk:
    """Grid walker with a moving/stationary internal state.

    ``uniformity`` blends the transition probabilities with the uniform
    ones: 0 keeps them, 1 makes every option equally likely.
    """

    model: ClassVar[str] = "internal-state"
    uniformity: float = 0.0
    step: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.uniformity) and 0.0 <= self.uniformity <= 1.0):
            raise InvalidSpecError(
                f"uniformity must lie in [0, 1], got {self.uniformity!r}"
            )
        _check_scale("step", self.step)


@dataclass(frozen=True)
class RunTumble:
    """Straight runs; each step tumbles to a fresh uniform direction with
    probability 1 - exp(-l)."""

    model: ClassVar[str] = "run-tumble"
    l: float
    v: float = 1.0

    def __post_init__(self) -> None:
        _check_scale("l", self.l, positive=True)
        _check_scale("v", self.v)


_SPECS = (DiscreteBrownian, FixedVelocity, AngularWalk, InternalStateWalk, RunTumble)
ModelSpec = Union[_SPECS]
MODEL_NAMES = tuple(cls.model for cls in _SPECS)


def _heading_walk(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Positions (m, steps, 2) after each step of length ``v`` (m, 1) at
    the headings ``theta`` (m, steps), one plane at a time."""
    out = np.empty((*theta.shape, 2))
    np.cumsum(v * np.cos(theta), axis=1, out=out[..., 0])
    np.cumsum(v * np.sin(theta), axis=1, out=out[..., 1])
    return out


def _stack(draws) -> list[np.ndarray]:
    """Each field of per-path ``draws`` tuples, stacked over the paths."""
    return [np.array(field) for field in zip(*draws)]


def _column(specs: Sequence[ModelSpec], name: str) -> np.ndarray:
    """The parameter ``name`` of each spec, as an (m, 1) column."""
    return np.array([getattr(spec, name) for spec in specs])[:, None]


def _steps(model: type, specs: list, steps: int, rngs: list) -> np.ndarray:
    """Positions (m, steps, 2) after each step of the rows ``specs``, all of
    class ``model``, each drawing from its own stream in ``rngs``."""
    if issubclass(model, DiscreteBrownian):
        walk = np.cumsum(_column(specs, "sigma")[:, None] * np.array(
            [rng.standard_normal((steps, 2)) for rng in rngs]), axis=1)
        pinned = [i for i, spec in enumerate(specs) if spec.target_x is not None]
        frac = np.arange(1, steps + 1, dtype=float) / steps
        for i, name in enumerate(("target_x", "target_y")):
            plane, target = walk[pinned, :, i], _column([specs[j] for j in pinned], name)
            walk[pinned, :, i] = frac * target + (plane - frac * plane[:, -1:])
        return walk

    if issubclass(model, FixedVelocity):
        theta = np.array([rng.uniform(0.0, _TWO_PI, steps) for rng in rngs])
        return _heading_walk(_column(specs, "v"), theta)

    if issubclass(model, AngularWalk):
        theta0, noise = _stack(
            (rng.uniform(0.0, _TWO_PI), rng.standard_normal(steps)) for rng in rngs)
        theta = theta0[:, None] + np.cumsum(_column(specs, "sigma") * noise, axis=1)
        return _heading_walk(_column(specs, "v"), theta)

    if issubclass(model, RunTumble):
        # math.exp per row: np.exp differs from it in the last bit on some
        # arguments, which would move the tumble draws' threshold.
        theta0, tumble, fresh = _stack(
            (rng.uniform(0.0, _TWO_PI), rng.random(steps) < 1.0 - math.exp(-spec.l),
             rng.uniform(0.0, _TWO_PI, steps)) for spec, rng in zip(specs, rngs))
        return _heading_walk(
            _column(specs, "v"), _kernels.run_tumble_angles(theta0, tumble, fresh))

    if issubclass(model, InternalStateWalk):
        u = _column(specs, "uniformity")
        moving, stationary = ((1.0 - u) * p + u / len(p)
                              for p in (_MOVING_PROBS, _STATIONARY_PROBS))
        c = np.cumsum(moving, axis=1)
        heading0, action_u, dir_u = _stack(
            (int(rng.random() * 4.0), rng.random(steps), rng.random(steps))
            for rng in rngs)
        return _kernels.internal_state_positions(
            heading0, _column(specs, "step"), c[:, 0:1], c[:, 1:2], c[:, 2:3],
            c[:, 3:4], stationary[:, 0:1], action_u, dir_u,
        )

    raise InvalidSpecError(f"unknown model spec {specs[0]!r}")


def generate_many(
    specs: Sequence[ModelSpec],
    steps: int,
    seeds: Sequence[int | np.random.Generator],
) -> np.ndarray:
    """Simulate one path per seed (at least one), row i of model
    ``specs[i]``; returns positions (len(seeds), steps + 1, 2) at times
    0..steps, each starting at the origin.

    The specs may mix models. The rows of each model class run as one
    array pass that reads every parameter as a per-row column. Row i
    consumes only ``seeds[i]``'s stream, in the documented order, so it
    equals ``generate(specs[i], steps, seeds[i]).coords`` bit for bit.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise InvalidSpecError(f"steps must be an integer >= 1, got {steps!r}")
    steps = int(steps)
    if (steps + 1) * 2 * 8 > np.iinfo(np.intp).max:
        raise InvalidSpecError(f"steps={steps} is too many for one float array")
    rngs = [make_rng(seed) for _, seed in zip(specs, seeds, strict=True)]
    if not rngs:
        raise InvalidSpecError("at least one seed is required")
    coords = np.zeros((len(rngs), steps + 1, 2))
    # A scale near the float limit overflows to non-finite points, which
    # Trajectory refuses and experiment summaries leave out; as in every other
    # numeric layer, that is not a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        for model in dict.fromkeys(map(type, specs)):
            rows = [i for i, spec in enumerate(specs) if type(spec) is model]
            coords[rows, 1:] = _steps(model, [specs[i] for i in rows], steps,
                                      [rngs[i] for i in rows])
    return coords


def generate(spec: ModelSpec, steps: int, seed: int | np.random.Generator) -> Trajectory:
    """Simulate ``steps`` unit time steps of the given movement process.

    Returns a trajectory of ``steps + 1`` points at times 0..steps starting
    at the origin; identical output for identical (spec, steps, seed).
    """
    coords = generate_many([spec], steps, [seed])[0]
    return Trajectory(np.arange(len(coords), dtype=float), coords)


def spec_to_dict(spec: ModelSpec) -> dict:
    """Serialise a model spec to a flat JSON-compatible mapping: its model
    name and every field that is set."""
    return {"model": spec.model,
            **{k: v for k, v in vars(spec).items() if v is not None}}


def _json_number(key: str, value) -> float:
    """``value``, a JSON number of the field ``key``, as a float; raises
    InvalidSpecError on a bool, a non-number or a float overflow."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidSpecError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidSpecError(f"{key} is too large for a float") from None


def spec_from_dict(data: dict) -> ModelSpec:
    """Inverse of :func:`spec_to_dict`; raises InvalidSpecError on unknown
    models or parameters, a parameter that is not a number or overflows a
    float, a missing required parameter, or when ``data`` is not a
    mapping."""
    if not isinstance(data, dict):
        raise InvalidSpecError(f"a model spec must be a mapping, got {data!r}")
    params = dict(data)
    name = params.pop("model", None)
    if name not in MODEL_NAMES:
        raise InvalidSpecError(
            f"unknown model {name!r}; valid models: {', '.join(MODEL_NAMES)}"
        )
    cls = _SPECS[MODEL_NAMES.index(name)]
    unknown = set(params) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidSpecError(
            f"unknown parameter(s) {sorted(unknown)} for model {name!r}"
        )
    for key, value in params.items():
        params[key] = _json_number(key, value)
    for f in fields(cls):
        if f.default is MISSING and f.name not in params:
            raise InvalidSpecError(f"{name} requires parameter {f.name}")
    return cls(**params)
