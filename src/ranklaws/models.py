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

from dataclasses import dataclass
from typing import ClassVar, Union

import math

import numpy as np

from .errors import Checked, ValidationError, check
from .ingest import RankedSeries


class _Law(Checked):
    """Base of every parameter dataclass; its fields are checked on construction."""

    model: ClassVar[str]
    #: Exponent field -> (power on N+1-r, power on 1/r); empty for mandelbrot.
    exponents: ClassVar[dict[str, tuple[int, int]]] = {}


@dataclass(frozen=True)
class ZipfParams(_Law):
    """Power law K / r^alpha; defined for every rank r >= 1."""

    k: float
    alpha: float

    model: ClassVar[str] = "zipf"
    exponents: ClassVar[dict[str, tuple[int, int]]] = {"alpha": (0, 1)}


@dataclass(frozen=True)
class MandelbrotParams(_Law):
    """Offset power law ((N + rho) / (r + rho))^(1 + epsilon).

    Carries no scale factor, so f(N) = 1 always; rho > -1 keeps r + rho
    positive for every rank.
    """

    rho: float
    epsilon: float
    n: int

    model: ClassVar[str] = "mandelbrot"


@dataclass(frozen=True)
class LavaletteParams(_Law):
    """One-exponent law K ((N + 1 - r) / r)^b with a depleting numerator."""

    k: float
    b: float
    n: int

    model: ClassVar[str] = "lavalette"
    exponents: ClassVar[dict[str, tuple[int, int]]] = {"b": (1, 1)}


@dataclass(frozen=True)
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


def law_length(params: ModelParams, default: int | None = None) -> int | None:
    """The series length ``params`` carry; zipf carries none and gets ``default``."""
    return default if isinstance(params, ZipfParams) else params.n


def _law_values(params: ModelParams, r: np.ndarray, n) -> np.ndarray:
    """Value of the law at the float64 rank(s) ``r`` of a length-``n`` series."""
    if isinstance(params, MandelbrotParams):
        return ((params.n + params.rho) / (r + params.rho)) ** (1.0 + params.epsilon)
    b = sum(d * getattr(params, name) for name, (d, _) in params.exponents.items())
    a = sum(p * getattr(params, name) for name, (_, p) in params.exponents.items())
    return params.k * (n + 1 - r) ** b / r ** a


def evaluate(params: ModelParams, r: int) -> float:
    """Evaluate the law at integer rank ``r``.

    The laws are defined only on the rank lattice: ``r`` is a count (an
    integer in 1..2**53), and at most n for the n-bearing models. Raises
    ValidationError outside that range. The result is always finite and
    strictly positive; where it would leave double range, ValidationError
    names the law and the rank.
    """
    check("rank", r)
    r = int(r)
    n = law_length(params, r)  # zipf puts power 0 on N+1-r, so any N >= r will do
    if r > n:
        raise ValidationError(f"rank {r} outside valid range 1..{n}")
    # A one-element array takes model_values' ufunc loops, so the bits match
    # it; a value out of double range comes out as 0, inf or nan.
    with np.errstate(all="ignore"):
        value = float(_law_values(params, np.array([r], dtype=np.float64), n)[0])
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{params.model} value at rank {r} is outside the double range for {params!r}")
    return value


def model_values(params: ModelParams, n: int | None = None) -> np.ndarray:
    """Tabulate the law over ranks 1..n as a float64 array.

    The integer ``n`` defaults to ``params.n``; zipf carries no length, so it
    must be given, and for the other laws it must match ``params.n``. Unlike
    :func:`curve` this applies no monotonicity check, so it also serves
    fitted parameter sets whose exponents fall outside the decreasing
    regime.
    """
    if n is None and (n := law_length(params)) is None:
        raise ValidationError("zipf needs an explicit length n")
    check("n", n)
    if law_length(params, n) != n:
        raise ValidationError(f"requested length {n} does not match params n={params.n}")
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
