"""The four rank-order distribution laws and their evaluation.

Each law maps an integer rank r = 1..N to a positive value:

* zipf:        f(r) = K / r^alpha
* mandelbrot:  f(r) = ((N + rho) / (r + rho))^(1 + epsilon)   (no scale factor)
* lavalette:   f(r) = K ((N + 1 - r) / r)^b
* beta-like:   f(r) = K (N + 1 - r)^b / r^a

Every per-law fact lives in one table: the parameter dataclasses below,
listed in catalog order in ``LAWS``. A class's fields (in order) are its
parameters; ``model`` is its tag; for the K-bearing laws ``exponents``
maps each exponent field to its powers (on N+1-r, on 1/r). Validation,
evaluation, fitting and the CLI text are all derived from these.

The three K-bearing laws are then one expression K (N+1-r)^b / r^a with
b and a summed from ``exponents``, so the beta-like law nests the others
bit for bit: b = 0 gives zipf and a = b gives lavalette. Parameters are
plain frozen dataclasses; all evaluation is pure, so everything here is
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Union

import math

import numpy as np

from .errors import ValidationError, shown
from .ingest import RankedSeries

# Field name -> (check, rule text); any other field must just be finite.
_FIELD_RULES = {
    "k": (lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
    "rho": (lambda v: math.isfinite(v) and v > -1, "finite and > -1"),
    "n": (lambda v: v >= 1, ">= 1"),
}
_FINITE = (math.isfinite, "finite")


class _Law:
    """Validation shared by every parameter dataclass, driven by its fields."""

    model: ClassVar[str]
    #: Exponent field -> (power on N+1-r, power on 1/r); empty for mandelbrot.
    exponents: ClassVar[dict[str, tuple[int, int]]] = {}

    def __post_init__(self):
        for field in fields(self):
            check, rule = _FIELD_RULES.get(field.name, _FINITE)
            value = getattr(self, field.name)
            try:
                ok = check(value)
            except OverflowError:  # an int past the double range
                ok = False
            if not ok:
                raise ValidationError(f"{field.name} must be {rule}, got {shown(value)}")

    def __repr__(self) -> str:
        # The dataclass repr, but shown() keeps a huge int from raising.
        text = ", ".join(f"{field.name}={shown(getattr(self, field.name), repr)}" for field in fields(self))
        return f"{type(self).__qualname__}({text})"


@dataclass(frozen=True, repr=False)
class ZipfParams(_Law):
    """Power law K / r^alpha; defined for every rank r >= 1."""

    k: float
    alpha: float

    model: ClassVar[str] = "zipf"
    exponents: ClassVar[dict[str, tuple[int, int]]] = {"alpha": (0, 1)}


@dataclass(frozen=True, repr=False)
class MandelbrotParams(_Law):
    """Offset power law ((N + rho) / (r + rho))^(1 + epsilon).

    Carries no scale factor, so f(N) = 1 always; rho > -1 keeps r + rho
    positive for every rank.
    """

    rho: float
    epsilon: float
    n: int

    model: ClassVar[str] = "mandelbrot"


@dataclass(frozen=True, repr=False)
class LavaletteParams(_Law):
    """One-exponent law K ((N + 1 - r) / r)^b with a depleting numerator."""

    k: float
    b: float
    n: int

    model: ClassVar[str] = "lavalette"
    exponents: ClassVar[dict[str, tuple[int, int]]] = {"b": (1, 1)}


@dataclass(frozen=True, repr=False)
class BetaLikeParams(_Law):
    """Two-exponent law K (N + 1 - r)^b / r^a.

    ``a`` acts on the denominator (a > 0 gives a decreasing head), ``b`` on
    the depleting numerator (b > 0 bends the tail down).
    """

    k: float
    a: float
    b: float
    n: int

    model: ClassVar[str] = "beta-like"
    exponents: ClassVar[dict[str, tuple[int, int]]] = {"b": (1, 0), "a": (0, 1)}


ModelParams = Union[ZipfParams, MandelbrotParams, LavaletteParams, BetaLikeParams]

#: Parameter class per model tag, in catalog order.
LAWS = {law.model: law for law in (ZipfParams, MandelbrotParams, LavaletteParams, BetaLikeParams)}

#: Model tags in catalog order (also the tie-break order used by comparisons).
MODEL_TAGS = tuple(LAWS)


def _check_exact(n: int) -> None:
    """Reject a length or rank past 2**53, where integers stop being exact doubles."""
    if n > 2**53:
        raise ValidationError(f"ranks and lengths must be at most 2**53, got {shown(n)}")


def law_length(params: ModelParams, default: int | None = None) -> int | None:
    """The series length ``params`` carry; zipf carries none and gets ``default``."""
    return default if isinstance(params, ZipfParams) else params.n


def _law_values(params: ModelParams, r, n):
    """Value of the law at rank(s) ``r`` of a length-``n`` series."""
    if isinstance(params, MandelbrotParams):
        return ((params.n + params.rho) / (r + params.rho)) ** (1.0 + params.epsilon)
    b = sum(d * getattr(params, name) for name, (d, _) in params.exponents.items())
    a = sum(p * getattr(params, name) for name, (_, p) in params.exponents.items())
    return params.k * (n + 1 - r) ** b / r ** a


def evaluate(params: ModelParams, r: int) -> float:
    """Evaluate the law at integer rank ``r``.

    The laws are defined only on the rank lattice: 1 <= r <= n for the
    n-bearing models, r >= 1 for zipf. Raises ValidationError outside that
    range, and for a rank or params n past 2**53. The result is always finite and strictly positive; where it would
    leave double range, ValidationError names the law and the rank.
    """
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
        raise ValidationError(f"rank must be an integer, got {r!r}")
    r = int(r)
    n = law_length(params)
    if n is None:
        if r < 1:
            raise ValidationError(f"rank {shown(r)} outside valid range r >= 1")
        n = r  # zipf puts power 0 on N+1-r, so any N >= r will do
    elif not 1 <= r <= n:
        raise ValidationError(f"rank {shown(r)} outside valid range 1..{shown(n)}")
    _check_exact(n)
    # A one-element array takes model_values' ufunc loops, so the bits match
    # it; a value out of double range comes out as 0, inf or nan.
    with np.errstate(all="ignore"):
        value = float(_law_values(params, np.array([r], dtype=np.float64), n)[0])
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{params.model} value at rank {r} is outside the double range for {params!r}")
    return value


def model_values(params: ModelParams, n: int | None = None) -> np.ndarray:
    """Tabulate the law over ranks 1..n as a float64 array.

    ``n`` defaults to ``params.n``; zipf carries no length, so it must be
    given, and for the other laws it must match ``params.n``. Unlike
    :func:`curve` this applies no monotonicity check, so it also serves
    fitted parameter sets whose exponents fall outside the decreasing
    regime.
    """
    if n is None and (n := law_length(params)) is None:
        raise ValidationError("zipf needs an explicit length n")
    if n < 1:
        raise ValidationError(f"series length must be >= 1, got {shown(n)}")
    _check_exact(n)
    if law_length(params, n) != n:
        raise ValidationError(f"requested length {shown(n)} does not match params n={shown(params.n)}")
    return _law_values(params, np.arange(1, n + 1, dtype=np.float64), n)


def curve(params: ModelParams, n: int | None = None) -> RankedSeries:
    """Tabulate the law over ranks 1..n as a RankedSeries.

    ``n`` follows :func:`model_values`. A value outside double range
    raises :func:`evaluate`'s ValidationError at the first such rank.
    Parameter sets whose tabulated values increase anywhere (e.g. a
    negative zipf alpha) cannot form a RankedSeries and raise
    ValidationError too.
    """
    with np.errstate(all="ignore"):
        values = model_values(params, n)
    outside = np.flatnonzero(~((values > 0.0) & (values < math.inf)))
    if outside.size:
        evaluate(params, int(outside[0]) + 1)  # same bits as model_values, so this raises
    try:
        return RankedSeries(values)
    except ValidationError as exc:
        raise ValidationError(f"params {params!r} do not produce a non-increasing curve: {exc}") from exc
