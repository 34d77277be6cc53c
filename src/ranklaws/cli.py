"""Command-line front end.

Subcommands: fit, compare, generate, simulate, plotdata. Machine output
(JSON report, CSV series, TSV plot data) goes to --output when given,
otherwise to stdout; the human summary then goes to stdout or stderr
respectively, and --quiet drops it. plotdata puts one "ranklaws: warning:"
line per input or fit warning before its summary, since the TSV has no
place for them. JSON reports serialize with sorted keys, two-space indent
and LF line endings so identical inputs give byte-identical files.

Exit codes: 0 success, 1 unreadable or invalid input data, 2 fit
failure, 64 bad flags or flag-supplied parameters. Nothing is written to
stdout on a nonzero exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

# OpenBLAS reads this once, when numpy loads, and otherwise starts one
# busy-waiting worker thread per extra core. A CLI process makes no BLAS
# call that a second thread speeds up, so the worker only burns CPU, and
# summation order (hence the last bits of large reports) would follow the
# host's core count. A thread count the user chose is left alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__, models
from .errors import FitError, ValidationError
from .fit import ComparisonReport, FitReport, compare_models, fit_model
from .generate import NoiseSpec, SimonConfig, generate_synthetic, simulate_simon
from .ingest import IngestOptions, RankedSeries, parse_csv


class _FlagError(Exception):
    """A flag value failed validation; maps to exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--delimiter", default=",", help="field delimiter for CSV input/output (default: comma)")
    common.add_argument("--zero-policy", choices=("reject", "drop"), default="drop",
                        help="what to do with non-positive values (default: drop with a warning)")
    common.add_argument("--pre-ranked", action="store_true",
                        help="input rows carry an explicit rank column instead of being sorted here")
    common.add_argument("--output", metavar="PATH", help="write machine output here instead of stdout")
    common.add_argument("--quiet", action="store_true", help="suppress the human summary and diagnostics")

    parser = _Parser(prog="ranklaws", description="Fit and compare rank-order distribution laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[common], help="fit one model to a ranked series")
    p_fit.add_argument("input", help="CSV/TSV file of values (or rank,value with --pre-ranked)")
    p_fit.add_argument("--model", required=True, choices=models.MODEL_TAGS)
    p_fit.set_defaults(func=_cmd_fit)

    p_cmp = sub.add_parser("compare", parents=[common], help="fit all four models and rank them")
    p_cmp.add_argument("input")
    p_cmp.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("generate", parents=[common], help="emit a synthetic series as CSV")
    p_gen.add_argument("--model", required=True, choices=models.MODEL_TAGS)
    p_gen.add_argument("--n", type=int, help="series length")
    p_gen.add_argument("--k", type=float, help="scale factor K (zipf, lavalette, beta-like)")
    p_gen.add_argument("--alpha", type=float, help="zipf exponent")
    p_gen.add_argument("--a", type=float, help="beta-like rank exponent")
    p_gen.add_argument("--b", type=float, help="lavalette / beta-like depletion exponent")
    p_gen.add_argument("--rho", type=float, help="mandelbrot rank offset")
    p_gen.add_argument("--epsilon", type=float, help="mandelbrot exponent shift")
    p_gen.add_argument("--sigma", type=float, default=0.0, help="lognormal noise level (default 0)")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_gen.set_defaults(func=_cmd_generate)

    p_sim = sub.add_parser("simulate", parents=[common], help="run the preferential-attachment process")
    p_sim.add_argument("--p-new", type=float, required=True, help="probability a step founds a new source")
    p_sim.add_argument("--steps", type=int, required=True, help="total items to allocate")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_plot = sub.add_parser("plotdata", parents=[common], help="emit rank/observed/fitted/residual TSV")
    p_plot.add_argument("input")
    p_plot.add_argument("--model", required=True, choices=models.MODEL_TAGS)
    p_plot.set_defaults(func=_cmd_plotdata)

    return parser


def _read_series(args) -> tuple[RankedSeries, list[str], str]:
    """Load the input file; returns (series, warnings, digest)."""
    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {args.input}: {exc.strerror or exc}") from exc
    digest = hashlib.blake2b(raw, digest_size=8).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{args.input} is not valid UTF-8: {exc}") from exc
    try:
        options = IngestOptions(
            mode="pre-ranked" if args.pre_ranked else "raw",
            zero_policy=args.zero_policy,
            delimiter=args.delimiter,
        )
    except ValidationError as exc:
        raise _FlagError(str(exc)) from exc
    series, warnings = parse_csv(text, options)
    return series, warnings, digest


def _emit(args, payload: str, summary: str | None) -> int:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        dest = sys.stdout
    else:
        sys.stdout.write(payload)
        dest = sys.stderr
    if summary is not None and not args.quiet:
        dest.write(summary + "\n")
    return 0


def _fit_payload(rep: FitReport) -> dict:
    return {
        "model": rep.model,
        "params": dataclasses.asdict(rep.params),
        "r_squared": rep.r_squared,
        "log_sse": rep.log_sse,
        "residuals": rep.residuals.tolist(),
        "n": rep.n,
        "warnings": list(rep.warnings),
    }


def _document(digest: str, series: RankedSeries, warnings: list[str], key: str, payload) -> str:
    doc = {
        "tool_version": __version__,
        "input_digest": digest,
        "series": {"n": series.n, "min": float(series.values[-1]), "max": float(series.values[0])},
        key: payload,
        "warnings": warnings,
    }
    return _json(doc) + "\n"


_SCALARS = (str, int, float, type(None))


def _json(obj, indent: str = "") -> str:
    """Return ``json.dumps(obj, sort_keys=True, indent=2)`` for str-keyed ``obj``.

    ``json.dumps`` with an indent encodes every value in pure Python; its C
    encoder runs only without one. This walks the containers itself and
    hands each non-empty list of scalars, such as the residuals, to the C
    encoder in one call with the indented item separator.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        body = (",\n" + inner).join(f"{json.dumps(k)}: {_json(v, inner)}" for k, v in sorted(obj.items()))
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if all(issubclass(t, _SCALARS) for t in set(map(type, obj))):
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join(_json(item, inner) for item in obj)
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(obj)


def _format_params(params: models.ModelParams) -> str:
    return " ".join(
        f"{'K' if field.name == 'k' else field.name}={getattr(params, field.name):.4f}"
        for field in dataclasses.fields(params)
        if field.name != "n"
    )


def _format_value(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


def _series_csv(series: RankedSeries) -> str:
    return "".join([_format_value(v) + "\n" for v in series.values.tolist()])


def _cmd_fit(args) -> int:
    series, warnings, digest = _read_series(args)
    rep = fit_model(series, args.model)
    summary = f"{rep.model}: {_format_params(rep.params)} R^2={rep.r_squared:.4f}"
    return _emit(args, _document(digest, series, warnings, "fit", _fit_payload(rep)), summary)


def _comparison_table(comp: ComparisonReport) -> str:
    lines = [f"{'model':<12} {'params':<40} {'R^2':>8}"]
    for rep in comp.reports:
        lines.append(f"{rep.model:<12} {_format_params(rep.params):<40} {rep.r_squared:>8.4f}")
    lines.append(f"best: {comp.best_by_r2}   nesting_ok: {str(comp.nesting_ok).lower()}")
    return "\n".join(lines)


def _cmd_compare(args) -> int:
    series, warnings, digest = _read_series(args)
    comp = compare_models(series)
    payload = {
        "reports": [_fit_payload(rep) for rep in comp.reports],
        "best_by_r2": comp.best_by_r2,
        "nesting_ok": comp.nesting_ok,
    }
    return _emit(args, _document(digest, series, warnings, "comparison", payload), _comparison_table(comp))


def _params_from_flags(args) -> models.ModelParams:
    law = models.LAWS[args.model]
    fields = [field.name for field in dataclasses.fields(law)]
    needed = ["n"] + [name for name in fields if name != "n"]
    supplied = {f: getattr(args, f) for f in ("n", "k", "alpha", "a", "b", "rho", "epsilon")}
    if any(supplied[f] is None for f in needed):
        raise _FlagError(f"model {args.model} requires " + " ".join(f"--{f}" for f in needed))
    extra = [f for f, v in supplied.items() if v is not None and f not in needed]
    if extra:
        raise _FlagError(f"--{extra[0]} does not apply to model {args.model}")
    try:
        return law(**{name: supplied[name] for name in fields})
    except ValidationError as exc:
        raise _FlagError(str(exc)) from exc


def _cmd_generate(args) -> int:
    params = _params_from_flags(args)
    if args.n < 1:
        raise _FlagError(f"series length must be >= 1, got {args.n}")
    try:
        noise = NoiseSpec(sigma=args.sigma, seed=args.seed)
    except ValidationError as exc:
        raise _FlagError(str(exc)) from exc
    series = generate_synthetic(params, noise, n=args.n)
    return _emit(args, _series_csv(series), f"generated {series.n} values ({args.model}, sigma={args.sigma:g})")


def _cmd_simulate(args) -> int:
    try:
        config = SimonConfig(p_new=args.p_new, steps=args.steps, seed=args.seed)
    except ValidationError as exc:
        raise _FlagError(str(exc)) from exc
    series = simulate_simon(config)
    return _emit(args, _series_csv(series), f"simulated {config.steps} items over {series.n} sources")


def _cmd_plotdata(args) -> int:
    series, warnings, _ = _read_series(args)
    rep = fit_model(series, args.model)
    columns = zip(series.values.tolist(), models.model_values(rep.params, series.n).tolist(), rep.residuals.tolist())
    lines = ["rank\tobserved\tfitted\tlog_residual"]
    for rank, (observed, fitted, residual) in enumerate(columns, start=1):
        lines.append(f"{rank}\t{_format_value(observed)}\t{_format_value(fitted)}\t{_format_value(residual)}")
    notes = "".join(f"ranklaws: warning: {w}\n" for w in [*warnings, *rep.warnings])
    summary = f"{notes}{rep.model}: {_format_params(rep.params)} R^2={rep.r_squared:.4f}"
    return _emit(args, "\n".join(lines) + "\n", summary)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    quiet = bool(getattr(args, "quiet", False))
    try:
        return args.func(args)
    except _FlagError as exc:
        if not quiet:
            print(f"ranklaws: error: {exc}", file=sys.stderr)
        return 64
    except ValidationError as exc:
        if not quiet:
            print(f"ranklaws: error: {exc}", file=sys.stderr)
        return 1
    except FitError as exc:
        if not quiet:
            print(f"ranklaws: fit error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if not quiet:
            print(f"ranklaws: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
