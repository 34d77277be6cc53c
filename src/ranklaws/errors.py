"""Exception types shared across the package, how their texts show a number, and every field and argument rule."""

import math
import numbers
import sys
from dataclasses import fields


class RankLawsError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(RankLawsError):
    """Input data or parameters violate a documented constraint.

    ``line`` is the 1-based input line the problem was found on, when the
    error originates from parsing a file; it is prefixed to the message.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(ValidationError):
    """A cell could not be parsed as the expected type."""


class FitError(RankLawsError):
    """A fit could not be carried out."""


class InsufficientDataError(FitError):
    """The series is shorter than the model's minimum length."""


def shown(value) -> str:
    """``repr(value)`` for an error text, or an int's size where that fails.

    Python refuses to write an int of more than 4300 digits in decimal (see
    sys.set_int_max_str_digits); such an int is shown by its bit length.
    """
    try:
        return repr(value)
    except ValueError:
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"


def integral(value) -> bool:
    """True for an int or a numpy integer."""
    return isinstance(value, numbers.Integral)


def boolean(value) -> bool:
    """True for a bool or a numpy.bool_. A numpy.bool_ exists only once numpy is loaded, so this does not import it."""
    numpy = sys.modules.get("numpy")
    return isinstance(value, bool) or (numpy is not None and isinstance(value, numpy.bool_))


# A count: a law's N, an evaluated rank, a Simon step total. Past 2**53 integers
# stop being exact doubles, so ranks, N+1-r and the item indices that scale each
# Simon pick would round.
_COUNT = ((integral, "be an integer"), (lambda v: v >= 1, "be >= 1"), (lambda v: v <= 2**53, "be at most 2**53"))

# Field or argument name -> (check, rule text) pairs, tried in order; any other name must be finite.
_RULES = {
    "k": ((lambda v: math.isfinite(v) and v > 0, "be finite and > 0"),),
    "rho": ((lambda v: math.isfinite(v) and v > -1, "be finite and > -1"),),
    "n": _COUNT,
    "rank": _COUNT,
    "steps": _COUNT,
    "sigma": ((lambda v: math.isfinite(v) and v >= 0, "be finite and >= 0"),),
    "p_new": ((lambda v: 0.0 < v < 1.0, "lie strictly inside (0, 1)"),),
    "seed": ((integral, "be an integer"), (lambda v: 0 <= v < 2**64, "fit in 64 unsigned bits")),
    "mode": ((lambda v: v in ("raw", "pre-ranked"), "be 'raw' or 'pre-ranked'"),),
    "zero_policy": ((lambda v: v in ("reject", "drop"), "be 'reject' or 'drop'"),),
    "delimiter": ((lambda v: isinstance(v, str) and len(v) == 1 and (v.isprintable() or v == "\t"),
                   "be a single printable character or tab"),
                  # csv rejects the quote character as a delimiter from Python 3.13 on.
                  (lambda v: v != '"', "not be the quote character '\"'"),
                  # Such a delimiter would split a value cell into other numbers.
                  (lambda v: not (v.isdecimal() or v in ".+-eE_"), "not occur in numbers: a digit or one of '.+-eE_'")),
}
_FINITE = ((math.isfinite, "be finite"),)


def check(name: str, value) -> None:
    """Raise ValidationError at the first rule of ``name`` in ``_RULES`` that ``value`` fails.

    A bool fails every rule: no field takes a truth value.
    """
    for test, rule in _RULES.get(name, _FINITE):
        try:
            ok = not boolean(value) and test(value)
        except (TypeError, OverflowError):  # not a number, or an int past the double range
            ok = False
        if not ok:
            raise ValidationError(f"{name} must {rule}, got {shown(value)}")


class Checked:
    """Base of a dataclass whose fields are checked against ``_RULES`` on construction."""

    def __post_init__(self):
        for field in fields(self):
            check(field.name, getattr(self, field.name))
