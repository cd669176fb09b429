"""Exception types shared across the package.

Every error the library raises deliberately derives from TargetCodesError so
the CLI can map failures onto its stable exit codes.
"""


class TargetCodesError(Exception):
    """Base class for all deliberate errors raised by this package."""


class DimensionError(TargetCodesError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class DomainError(TargetCodesError, ValueError):
    """An argument lies outside the operation's valid domain."""


class CapacityError(DomainError):
    """A code bank cannot hold the requested number of classes."""


class NumericError(TargetCodesError, ArithmeticError):
    """A computation produced or received non-finite values."""


class UsageError(TargetCodesError, ValueError):
    """An API was called in a way its contract forbids."""


class FormatError(TargetCodesError, ValueError):
    """A file does not parse as the expected binary or text format."""


class VersionError(FormatError):
    """A file was written by an incompatible format version."""


class ConfigError(TargetCodesError, ValueError):
    """A run configuration is invalid or contains unknown keys."""


class TrainingDiverged(NumericError):
    """Training hit a non-finite loss or gradient and was aborted.

    ``checkpoint_path`` points at the last good state when one was saved.
    """

    def __init__(self, message, checkpoint_path=None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
