"""Exception types shared across the package, and its one rule for file failures: an
OSError or UnicodeError raised reading or writing a file becomes an IoFailure (`io_failure`)."""

from contextlib import contextmanager


class PhonoamError(Exception):
    """Base class for all package-specific errors."""


# feature table parsing / encoding
class WrongFeatureCount(PhonoamError):
    pass


class MalformedRow(PhonoamError):
    pass


class UnknownMark(PhonoamError):
    pass


class DuplicatePhone(PhonoamError):
    pass


class UnknownPhone(PhonoamError):
    pass


# inventories
class DuplicateLanguageId(PhonoamError):
    pass


class InventoryMismatch(PhonoamError):
    pass


# numerics
class DimensionMismatch(PhonoamError):
    pass


class NonFiniteInput(PhonoamError):
    pass


class ModeHeadMismatch(PhonoamError):
    pass


# also a ValueError, so callers that catch the builtin for a bad value still do
class InvalidTrainConfig(PhonoamError, ValueError):
    pass


class InvalidSynthSpec(PhonoamError, ValueError):
    pass


# sequence losses
class InfeasibleLength(PhonoamError):
    pass


class EmptyCorpus(PhonoamError):
    pass


class StaleCache(PhonoamError):
    pass


class IoFailure(PhonoamError):
    pass


@contextmanager
def io_failure(what: str = ""):
    """IoFailure(what + message) for an OSError or UnicodeError raised in the block."""
    try:
        yield
    except (OSError, UnicodeError) as exc:
        raise IoFailure(f"{what}{exc}") from exc
