"""Exception types shared across the package, and the one check of a scale
argument (a diffusion coefficient, a duration, a Gaussian parameter or a
model's step) that must be finite and non-negative, or positive."""

import math


class BridgefillError(Exception):
    """Base class for all errors raised by bridgefill."""


class NonMonotonicTimeError(BridgefillError, ValueError):
    """Timestamps are not strictly increasing."""


class NonFiniteError(BridgefillError, ValueError):
    """A coordinate or timestamp is NaN or infinite."""


class OutOfRangeError(BridgefillError, ValueError):
    """A gap specification would remove an anchor point."""


class TooFewPointsError(BridgefillError, ValueError):
    """Not enough points to build at least one bridge triple."""


class DomainError(BridgefillError, ValueError):
    """Argument outside the mathematical domain of the function."""


class InvalidSpecError(BridgefillError, ValueError):
    """A movement-model specification fails its invariants."""


class CsvFormatError(BridgefillError, ValueError):
    """A CSV file does not follow the expected trajectory schema."""


def _check_scale(name: str, value: float, positive: bool = False,
                 error: type[BridgefillError] = InvalidSpecError) -> None:
    """Raise ``error`` unless ``value`` is finite and >= 0, or > 0 if
    ``positive``. The default suits the model specs; the math layers pass
    DomainError."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise error(f"{name} must be finite and {bound}, got {value!r}")
