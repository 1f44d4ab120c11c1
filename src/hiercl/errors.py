"""Exception types shared across the package, and the config field checks.

Every error raised by public APIs derives from HierclError so callers can
catch the whole family. Each class carries the process exit code the CLI
returns for it: 1 unclassified, 2 config, 4 data, 5 artifact compatibility
or contract, 6 numeric.
"""
import math


class HierclError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class ConfigError(HierclError):
    """A configuration value violates its contract (e.g. tau <= 0)."""
    exit_code = 2


class ShapeError(HierclError):
    """Array dimensions or dtypes do not fit the requested operation."""
    exit_code = 5


class ContractError(HierclError):
    """An API precondition was violated (e.g. non-scalar loss node)."""
    exit_code = 5


class NumericError(HierclError):
    """A non-finite value surfaced where finite math was required."""
    exit_code = 6


class DegenerateEmbeddingError(NumericError):
    """A row had (near-)zero norm and cannot be normalized."""


class EmptyInputError(HierclError):
    """An aggregation or sampling operation received no elements."""
    exit_code = 4


class VocabularyError(HierclError):
    """A token id falls outside the embedding table."""
    exit_code = 5


class InsufficientDataError(HierclError):
    """A batch request exceeds the number of eligible sources."""
    exit_code = 4


class CorpusFormatError(HierclError):
    """A corpus or prompt file is malformed; message carries the line."""
    exit_code = 4


class SchemaVersionError(HierclError):
    """A persisted artifact declares an unsupported schema version."""
    exit_code = 5


class CheckpointIntegrityError(HierclError):
    """A checkpoint payload failed its checksum or framing checks."""
    exit_code = 5


class CoverageError(HierclError):
    """Evaluation data contains a class the prompt set does not cover."""
    exit_code = 5


def check_ints(owner, fields, minimum: int) -> None:
    """Raise ConfigError unless each named attribute of owner is an int >= minimum.

    A bool is rejected although it subclasses int: a flag is never a count.
    """
    for field in fields:
        value = getattr(owner, field)
        if type(value) is not int:
            raise ConfigError(f"{field} must be an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{field} must be >= {minimum}, got {value}")


def check_floats(owner, fields, minimum: float, strict: bool) -> None:
    """Raise ConfigError unless each named attribute of owner is a finite number
    above minimum (strict) or at least minimum.

    Ints are accepted as numbers; a bool is not, and neither are NaN or +-inf.
    """
    for field in fields:
        value = getattr(owner, field)
        if type(value) is bool or not isinstance(value, (int, float)):
            raise ConfigError(f"{field} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{field} must be finite, got {value}")
        if value < minimum or (strict and value == minimum):
            raise ConfigError(f"{field} must be {'>' if strict else '>='} {minimum}, "
                              f"got {value}")
