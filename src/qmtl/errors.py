"""Exception types shared across the package."""


class QmtlError(Exception):
    """Base class for all package errors."""


class CapacityError(QmtlError):
    """Requested register size exceeds the simulator memory guard."""


class GroupingError(QmtlError):
    """Observables in a measurement group do not qubit-wise commute."""


class ConfigError(QmtlError):
    """Invalid or inconsistent model/run configuration."""


class DivergenceError(QmtlError):
    """Training produced a non-finite loss or gradient."""


class DegenerateBatchError(QmtlError):
    """A batch contains no labeled entries for any task."""
