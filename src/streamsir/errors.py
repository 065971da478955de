"""Exception types raised by the estimation engine.

Every failure mode that a caller can reasonably recover from gets its own
class so that batch drivers (cross-validation, Monte Carlo studies, the
command line) can distinguish "skip this prediction" from "abort the run".
"""

from __future__ import annotations


class StreamSirError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(StreamSirError):
    """Covariance matrix is numerically singular.

    Attributes:
        ratio: smallest-to-largest singular value ratio that failed the test.
    """

    def __init__(self, message: str, ratio: float) -> None:
        super().__init__(message)
        self.ratio = float(ratio)


class EmptySliceError(StreamSirError):
    """A response slice holds no observations, so its mean is undefined.

    Attributes:
        slice_index: the offending slice, 1 (low responses) or 2 (high).
    """

    def __init__(self, message: str, slice_index: int) -> None:
        super().__init__(message)
        self.slice_index = int(slice_index)


class NumericalBreakdownError(StreamSirError):
    """A rank-one inverse update hit a non-positive denominator."""


class NoSupportError(StreamSirError):
    """No kernel weight covers the requested evaluation point.

    Attributes:
        nearest_u: closest logged projection, or None if the log is empty.
    """

    def __init__(self, message: str, nearest_u: float | None = None) -> None:
        super().__init__(message)
        self.nearest_u = None if nearest_u is None else float(nearest_u)


class NonFiniteInputError(StreamSirError):
    """An observation holds a NaN or infinite covariate or response.

    Raised before any state changes: one such value would otherwise turn
    the maintained inverse and the direction estimate into NaN for the
    rest of the stream.
    """


class InsufficientDataError(StreamSirError):
    """Fewer observations than the requested warm-up needs."""


class CsvFormatError(StreamSirError):
    """A CSV input violates its schema.

    Attributes:
        row: 1-based line number of the offending row (header is line 1),
            or None when the problem is file-wide.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = None if row is None else int(row)


class ConfigError(StreamSirError):
    """A configuration file or flag set is invalid.

    Attributes:
        key: the offending configuration key, or None when structural.
    """

    def __init__(self, message: str, key: str | None = None) -> None:
        super().__init__(message)
        self.key = key
