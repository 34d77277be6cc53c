"""Exception types shared across the package, and how their texts show a number."""


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


def shown(value, text=str) -> str:
    """``text(value)`` for an error text or repr, or an int's size where that fails.

    Python refuses to write an int of more than 4300 digits in decimal (see
    sys.set_int_max_str_digits); such an int is shown by its bit length.
    """
    try:
        return text(value)
    except ValueError:
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
