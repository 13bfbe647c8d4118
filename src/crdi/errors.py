"""Exception hierarchy shared by every crdi module."""


class CrdiError(Exception):
    """Base class for all crdi errors."""


class InvalidArgumentError(CrdiError, ValueError):
    """A precondition on an argument was violated."""


def check_choice(what: str, value, allowed: tuple):
    """InvalidArgumentError unless value is one of the allowed strings."""
    if value not in allowed:
        raise InvalidArgumentError(f"unknown {what} {value!r}; "
                                   f"expected one of {', '.join(allowed)}")


class ShapeError(CrdiError, ValueError):
    """Array shapes are incompatible for the requested operation."""


class OutOfRangeError(CrdiError, ValueError):
    """A timestep or index fell outside its valid range."""


class NumericError(CrdiError, ArithmeticError):
    """A computation produced a non-finite value."""


class FormatError(CrdiError, ValueError):
    """A serialized artifact is malformed; message names the byte offset."""


class ConfigError(CrdiError, ValueError):
    """An experiment configuration is invalid or contains unknown keys."""
