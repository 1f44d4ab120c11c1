"""Exception types shared across the package, and the config field checks.

Every error raised by public APIs derives from HierclError so callers can
catch the whole family. The CLI maps these onto process exit codes.
"""
import math


class HierclError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HierclError):
    """A configuration value violates its contract (e.g. tau <= 0)."""


class ShapeError(HierclError):
    """Matrix dimensions are inconsistent for the requested operation."""


class ContractError(HierclError):
    """An API precondition was violated (e.g. non-scalar loss node)."""


class NumericError(HierclError):
    """A non-finite value surfaced where finite math was required."""


class DegenerateEmbeddingError(HierclError):
    """A row had (near-)zero norm and cannot be normalized."""


class EmptyInputError(HierclError):
    """An aggregation or sampling operation received no elements."""


class VocabularyError(HierclError):
    """A token id falls outside the embedding table."""


class InsufficientDataError(HierclError):
    """A batch request exceeds the number of eligible sources."""


class CorpusFormatError(HierclError):
    """A corpus or prompt file is malformed; message carries the line."""


class SchemaVersionError(HierclError):
    """A persisted artifact declares an unsupported schema version."""


class CheckpointIntegrityError(HierclError):
    """A checkpoint payload failed its checksum or framing checks."""


class CoverageError(HierclError):
    """Evaluation data contains a class the prompt set does not cover."""


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
