"""Exception types shared across the package."""


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


# sequence losses
class InfeasibleLength(PhonoamError):
    pass


class EmptyResult(PhonoamError):
    pass


class EmptyCorpus(PhonoamError):
    pass


class StaleCache(PhonoamError):
    pass


class IoFailure(PhonoamError):
    pass
