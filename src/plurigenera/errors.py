"""Exception types shared across the package, and the integer field
checks that raise them."""


class PlurigeneraError(Exception):
    """Base class for all package errors."""


class InvalidInputError(PlurigeneraError):
    """Structurally malformed input: bad field types, ranges, or JSON."""


class UnsupportedInputError(PlurigeneraError):
    """Well-formed input outside the domain where the requested quantity
    is determined by the numerical data alone."""


class InadmissibleTypeError(PlurigeneraError):
    """An operation that requires an admissible fibration type got an
    inadmissible one.  Carries the named rule violations."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(
            "inadmissible numerical type: " + ", ".join(self.violations)
        )


class OracleBoundExceededError(PlurigeneraError):
    """A brute-force oracle refused to run above its configured bound."""


def _int_text(value: int) -> str:
    """``value`` in decimal, or its bit length past the digit limit of
    ``str`` on integers (4300 digits by default), where formatting it
    would raise ``ValueError``."""
    try:
        return str(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _check_int(name: str, value, minimum=None, maximum=None) -> int:
    """``value`` if it is an int (not a bool) in [minimum, maximum], else
    ``InvalidInputError``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {_int_text(value)}")
    if maximum is not None and value > maximum:
        raise InvalidInputError(f"{name} must be <= {maximum}, got {_int_text(value)}")
    return value


def _check_record(value, cls) -> None:
    """``InvalidInputError`` unless ``value`` is a ``cls`` instance."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"expected {cls.__name__}, got {type(value).__name__}")


def _check_bool(name: str, value) -> None:
    """``InvalidInputError`` unless ``value`` is a bool: no truthy stand-in."""
    if not isinstance(value, bool):
        raise InvalidInputError(f"{name} must be a boolean")


def _check_tuple(name: str, values) -> tuple:
    """``tuple(values)``, or ``InvalidInputError`` if it is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidInputError(f"{name} must be a sequence") from None


def _check_ints(name: str, values, minimum=None) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each checked by ``_check_int``."""
    return tuple(_check_int(name, v, minimum) for v in _check_tuple(name, values))
