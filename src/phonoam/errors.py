"""Exception types shared across the package, and its two rules for files: an OSError
or UnicodeError raised reading or writing a file becomes an IoFailure (`io_failure`), and
a write that fails leaves the file as it was (`replace_on_success`)."""

import os
import stat
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


@contextmanager
def replace_on_success(path, mode: str = "w", **options):
    """`open(path, mode, **options)` for writing, through a temporary file in the
    target's directory that is renamed onto the target only when the block
    completes and removed on any exception, so a failed write leaves the file
    as it was.  As with `open`, a symlink is written through to its target and
    the file keeps its permission bits, or gets the umask's if it is new.  A
    target that is not a writable regular file (such as /dev/null), or whose
    directory takes no temporary file, is opened in place."""
    target = os.path.realpath(path)
    exists = os.path.exists(target)
    fd = None
    if not exists or (os.path.isfile(target) and os.access(target, os.W_OK)):
        tmp = f"{target}.{os.urandom(4).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as `open` does
        except OSError:
            pass
    if fd is None:
        with open(path, mode, **options) as fh:
            yield fh
        return
    try:
        with open(fd, mode, **options) as fh:
            if exists:
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
