"""Least-squares fitting of the four laws on logarithmic values.

Every fit minimizes the sum of squared residuals of log f(r) against the
observed log values. The three K-bearing laws are exactly log-linear:
log f(r) = log K + sum over exponent fields of value * (d log(N+1-r) -
p log r), with (d, p) read from the law's ``exponents`` entry in
:mod:`ranklaws.models`. So one ordinary least-squares fitter serves all
three; only its design columns differ. It is closed-form, solved through
an orthogonal decomposition of centered columns (never by iterative
search). The zipf-mandelbrot law is different on two counts, documented
here because both surprise users:

* it has no scale factor K, so its log-space regression has no intercept
  and the fitted curve always passes through f(N) = 1;
* its rank offset rho enters nonlinearly; for fixed rho the best slope is
  closed-form, and rho itself is found by golden-section search on that
  profiled objective over [-0.99, 10 N]. The search assumes one minimum in
  the bracket, which the profile need not have, so its result is compared
  with both bracket ends and the best of the three is kept. A fit costs the
  search's golden-section probes plus these three end-comparison profiles,
  whose slopes are kept, so the chosen rho is not profiled again.

A fit needs one value more than the law has free parameters, the names
its ``parameters()`` returns. Goodness of fit is the log-space
coefficient of determination R^2. For a constant series the total sum of
squares vanishes; by convention R^2 is 1 when the model reproduces the
data (SSE <= 1e-20) and 0 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import accel, models
from .errors import FitError, InsufficientDataError, ValidationError
from .ingest import RankedSeries

_RHO_LOWER = -0.99
# Interval tolerance for the rho search. Far tighter than rho ever needs
# on its own, so the slope (and hence epsilon) inherits full precision.
# Near the top of the bracket (10 N) float spacing exceeds it; the search
# then stops at a few ulps of width instead.
_RHO_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of fitting one model to one series.

    ``residuals[i]`` is log(observed value at rank i+1) minus
    log(evaluate(params, i+1)); ``log_sse`` is their sum of squares.
    """

    model: str
    params: models.ModelParams
    r_squared: float
    log_sse: float
    residuals: np.ndarray
    n: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        residuals = np.asarray(self.residuals, dtype=np.float64).copy()
        residuals.setflags(write=False)
        object.__setattr__(self, "residuals", residuals)


@dataclass(frozen=True)
class ComparisonReport:
    """All four fits of one series, plus the comparison verdicts.

    ``reports`` follows catalog order (zipf, mandelbrot, lavalette,
    beta-like). ``best_by_r2`` is the tag attaining the maximum R^2; exact
    ties go to the model with fewer parameters, then catalog order.
    ``nesting_ok`` records whether the beta-like SSE is no worse (within
    1e-9) than both of its restrictions, zipf and lavalette.
    """

    reports: tuple[FitReport, ...]
    best_by_r2: str
    nesting_ok: bool

    def report(self, tag: str) -> FitReport:
        for rep in self.reports:
            if rep.model == tag:
                return rep
        raise KeyError(tag)


def _require_length(series: RankedSeries, minimum: int, what: str) -> None:
    if series.n < minimum:
        raise InsufficientDataError(f"{what} needs at least {minimum} values, got {series.n}")


def _finalize(log_obs: np.ndarray, params: models.ModelParams, warnings: tuple[str, ...] = ()) -> FitReport:
    """Score ``params`` against the log values of a series: residuals, SSE and R^2, all finite.

    Exponents fitted to a series spanning hundreds of decades can make the
    tabulated law overflow or underflow; that is raised as a FitError
    instead of numpy warnings and non-finite numbers. A residual that is
    not finite makes the SSE not finite.
    """
    with np.errstate(all="ignore"):
        residuals = log_obs - np.log(models.model_values(params, log_obs.size))
        sse = float(residuals @ residuals)
        if np.all(log_obs == log_obs[0]):  # constant series: no total sum of squares
            r_squared = 1.0 if sse <= 1e-20 else 0.0
        else:
            centered = log_obs - log_obs.mean()
            r_squared = 1.0 - sse / float(centered @ centered)
    if not (math.isfinite(sse) and math.isfinite(r_squared)):
        raise FitError(f"{type(params).model} fit is not finite in double precision (log_sse={sse!r})")
    return FitReport(
        model=type(params).model,
        params=params,
        r_squared=r_squared,
        log_sse=sse,
        residuals=residuals,
        n=log_obs.size,
        warnings=warnings,
    )


def _centered_ols(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """OLS slope(s) and intercept, solved on centered columns."""
    col_means = design.mean(axis=0)
    y_mean = float(y.mean())
    coef, _, rank, _ = np.linalg.lstsq(design - col_means, y - y_mean, rcond=None)
    # Rank ranges over >= 3 distinct values, so the columns cannot collapse.
    assert rank == design.shape[1], "degenerate design matrix"
    return coef, y_mean - float(col_means @ coef)


def r_squared_log(observed: RankedSeries, fitted: models.ModelParams) -> float:
    """Log-space R^2 of a parameter set against an observed series.

    Raises FitError when the law, its logarithm, the SSE or R^2 is not
    finite in double precision, and ValidationError when ``fitted`` carries
    another length than ``observed``.
    """
    return _finalize(np.log(observed.values), fitted).r_squared


def _fit_log_linear(series: RankedSeries, law: type) -> FitReport:
    """OLS of log value on one column d log(N+1-r) - p log r per exponent field."""
    _require_length(series, len(law.parameters()) + 1, f"{law.model} fit")
    log_rank = np.log(np.arange(1.0, series.n + 1.0))
    log_depletion = log_rank[::-1]  # N+1-r runs over the same integers as r
    design = np.column_stack([d * log_depletion - p * log_rank for d, p in law.exponents.values()])
    del log_depletion, log_rank
    y = np.log(series.values)
    coef, intercept = _centered_ols(design, y)
    try:
        k = math.exp(intercept)
    except OverflowError:
        k = math.inf
    if not 0.0 < k < math.inf:  # K overflows or underflows
        raise FitError(f"{law.model} fit: K is outside the double range (log k = {intercept!r})")
    values = {"k": k, "n": series.n}
    # + 0.0 turns the -0.0 an exact-zero slope can come out as into 0.0.
    values.update((name, float(c) + 0.0) for name, c in zip(law.exponents, coef))
    return _finalize(y, law(**{field.name: values[field.name] for field in fields(law)}))


def fit_zipf(series: RankedSeries) -> FitReport:
    """OLS of log value on -log rank; the slope is alpha."""
    return _fit_log_linear(series, models.ZipfParams)


def fit_lavalette(series: RankedSeries) -> FitReport:
    """OLS of log value on log((N+1-r)/r); the slope is b."""
    return _fit_log_linear(series, models.LavaletteParams)


def fit_beta_like(series: RankedSeries) -> FitReport:
    """Two-column OLS of log value on log(N+1-r) and -log r; the slopes are b and a."""
    return _fit_log_linear(series, models.BetaLikeParams)


def fit_mandelbrot(series: RankedSeries) -> FitReport:
    """Profiled fit of the offset power law.

    For each candidate rho the no-intercept slope is closed form; the
    golden-section search below minimizes that profiled SSE over rho in
    [-0.99, 10 N]. Where the profile has an interior maximum rather than one
    minimum, the search runs to whichever end it meets; so its point is
    compared with both ends, and the lowest SSE of the three wins (the
    search's point on a tie). A rho at or near an end is flagged as a
    warning on the report that names the end and says whether the search
    itself converged there or the end comparison beat the search's point.
    """
    _require_length(series, len(models.MandelbrotParams.parameters()) + 1, "mandelbrot fit")
    y = np.log(series.values)
    lo, hi = _RHO_LOWER, 10.0 * series.n

    def objective(rho: float) -> float:
        return accel.mandelbrot_profile(y, rho)[1]

    a, b = lo, hi
    c = b - (b - a) * _INVPHI
    d = a + (b - a) * _INVPHI
    fc, fd = objective(c), objective(d)
    while b - a > max(_RHO_TOL, 4.0 * math.ulp(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INVPHI
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INVPHI
            fd = objective(d)
    mid = (a + b) / 2.0
    # min keeps the first of equal SSEs, so the search's point wins ties.
    rho, slope, _ = min(((r, *accel.mandelbrot_profile(y, r)) for r in (mid, lo, hi)), key=lambda c: c[2])
    warnings: tuple[str, ...] = ()
    edge = 1e-6 * (hi - lo)
    if rho <= lo + edge or rho >= hi - edge:
        end = f"lower end of the bracket, {lo:g}" if rho <= lo + edge else "upper end of the bracket, 10 N"
        if abs(mid - rho) <= edge:  # the search itself ran to this end
            text = f"rho search converged at the {end} (rho={rho:.6g})"
        else:
            text = (f"rho is the {end} (rho={rho:.6g}), taken by the end comparison over the search's own "
                    f"point rho={mid:.6g}")
        warnings = (f"{text}; fit may be unreliable",)
    params = models.MandelbrotParams(rho=rho, epsilon=slope - 1.0, n=series.n)
    return _finalize(y, params, warnings)


def fit_model(series: RankedSeries, tag: str) -> FitReport:
    """Fit one model selected by tag."""
    try:
        law = models.LAWS[tag]
    except KeyError:
        raise ValidationError(f"unknown model {tag!r}; expected one of {', '.join(models.MODEL_TAGS)}") from None
    if law is models.MandelbrotParams:
        return fit_mandelbrot(series)
    return _fit_log_linear(series, law)


def compare_models(series: RankedSeries) -> ComparisonReport:
    """Fit all four models and rank them by log-space R^2."""
    _require_length(series, max(len(law.parameters()) for law in models.LAWS.values()) + 1, "model comparison")
    reports = []
    for tag in models.MODEL_TAGS:
        try:
            reports.append(fit_model(series, tag))
        except FitError as exc:
            raise type(exc)(f"{tag}: {exc}") from exc
    # min keeps the first of equal keys, so exact ties fall to catalog order.
    best = min(reports, key=lambda rep: (-rep.r_squared, len(rep.params.parameters())))
    sse = {rep.model: rep.log_sse for rep in reports}
    nesting_ok = sse["beta-like"] <= sse["zipf"] + 1e-9 and sse["beta-like"] <= sse["lavalette"] + 1e-9
    return ComparisonReport(reports=tuple(reports), best_by_r2=best.model, nesting_ok=nesting_ok)
