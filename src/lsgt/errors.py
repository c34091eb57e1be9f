"""Exception types raised across the package."""


class LsgtError(Exception):
    """Base class for package errors."""


class DataFormatError(LsgtError):
    """A collection file could not be parsed.

    Carries the zero-based record (or line) index at which parsing failed.
    """

    def __init__(self, message: str, record_index: int | None = None):
        self.record_index = record_index
        if record_index is not None:
            message = f"record {record_index}: {message}"
        super().__init__(message)


class SeriesValidationError(LsgtError):
    """A loaded series violates an invariant (e.g. a non-positive value)."""

    def __init__(self, message: str, series_id: str = "", index: int | None = None):
        self.series_id = series_id
        self.index = index
        prefix = f"series {series_id!r}"
        if index is not None:
            prefix += f", index {index}"
        super().__init__(f"{prefix}: {message}")


class DegenerateSeriesError(LsgtError):
    """A conditional update is degenerate (e.g. all residuals zero), or a chain cannot start."""


class NumericalError(LsgtError):
    """A closed-form posterior evaluated to an invalid value."""


class QuadratureError(LsgtError):
    """Numerical integration failed its internal consistency check."""


class GridConstructionError(LsgtError):
    """A candidate grid did not reach its tolerance."""


class MetricError(LsgtError):
    """A forecast metric is undefined for the given inputs."""


class ForecastError(LsgtError):
    """Forward simulation (forecast paths, synthetic series) produced unusable values or gave up."""
