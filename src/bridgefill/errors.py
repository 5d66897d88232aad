"""Exception types shared across the package."""


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
