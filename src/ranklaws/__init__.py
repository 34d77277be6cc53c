"""Fitting and comparison of rank-order distribution laws.

The package covers four laws for positive values sorted in decreasing
order (zipf, zipf-mandelbrot, lavalette, and a two-exponent beta-like
law), least-squares fitting of each on logarithmic values, model
comparison by log-space R^2, and two generators for synthetic data: model
curves under lognormal noise and a Simon preferential-attachment process.

``import ranklaws`` loads neither numpy nor any submodule. The first use
of a public name imports them all and binds every name in ``__all__``;
a submodule loads on its own first use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("FitError", "InsufficientDataError", "ParseError", "RankLawsError", "ValidationError"),
    "ingest": ("IngestOptions", "RankedSeries", "parse_csv", "rank_raw"),
    "models": ("MODEL_TAGS", "BetaLikeParams", "LavaletteParams", "MandelbrotParams", "ModelParams",
               "ZipfParams", "curve", "evaluate", "model_values"),
    "fit": ("ComparisonReport", "FitReport", "compare_models", "fit_beta_like", "fit_lavalette",
            "fit_mandelbrot", "fit_model", "fit_zipf", "r_squared_log"),
    "generate": ("NoiseSpec", "SimonConfig", "generate_synthetic", "simulate_simon"),
}
_SUBMODULES = (*_EXPORTS, "accel")

__all__ = [*sorted(name for names in _EXPORTS.values() for name in names), "__version__"]


def __getattr__(name):
    # importlib, not ``from . import``: that looks the name up on this
    # package first, which would call back into this function for ever.
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        loaded = importlib.import_module(f"{__name__}.{module}")
        globals().update((export, getattr(loaded, export)) for export in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
