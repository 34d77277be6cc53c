"""Command-line front end.

Subcommands: fit, compare, generate, simulate, plotdata. fit, compare and
plotdata read an input table, shaped by --delimiter, --zero-policy and
--pre-ranked. Machine output (JSON report, CSV series, TSV plot data) goes
to --output when given, otherwise to stdout; the human summary then goes
to stdout or stderr respectively, and --quiet drops it. plotdata puts one
"ranklaws: warning:" line per input or fit warning before its summary,
since the TSV has no place for them. A JSON report's fit or comparison
object holds the fields of the result dataclass (FitReport,
ComparisonReport). JSON reports serialize with sorted keys, two-space
indent and LF line endings so identical inputs give byte-identical
files. Machine output is written a slice at a time as it is encoded, so
no step holds its whole text.

Exit codes: 0 success, 1 unreadable or invalid input data, a size that
cannot be allocated or a failed write, 2 fit failure, 64 bad flags or
flag-supplied parameters (generate values outside double range and
lengths past 2**53 too). Every check behind exit 1, 2 or 64 runs before
the first byte of output, and the flags are checked before the input is
read, so a bad flag exits 64 even when the input is bad too. A failed
write (a full disk, a closed pipe), even of the last buffered bytes, the
summary or --help, exits 1 through main after the bytes written so far;
no summary follows failed output. So does any write to a standard
stream that was closed at start, and a summary to a stderr that cannot
be written; an error line that cannot be written to stderr is dropped
and the error keeps its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import sys
from collections.abc import Iterator

# OpenBLAS reads this once, when numpy loads, and otherwise starts one
# busy-waiting worker thread per extra core. A CLI process makes no BLAS
# call that a second thread speeds up, so the worker only burns CPU, and
# summation order (hence the last bits of large reports) would follow the
# host's core count. A thread count the user chose is left alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__, models
from .errors import FitError, ValidationError
from .fit import ComparisonReport, FitReport, compare_models, fit_model
from .generate import NoiseSpec, SimonConfig, generate_synthetic, simulate_simon
from .ingest import IngestOptions, RankedSeries, parse_csv


class _InputError(Exception):
    """The input file cannot be opened, decoded or parsed; maps to exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would send these to another stream when theirs is None, and before 3.11.7 raise on a failed write.
    def error(self, message):
        _error_line(f"{self.format_usage()}{self.prog}: error: {message}\n")
        raise SystemExit(64)

    def print_help(self, file=None):
        super().print_help(_stdio(file or sys.stdout))

    def parse_known_args(self, args=None, namespace=None):
        # Subcommands parse through this too, so each reports an unknown flag under its own usage line.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# Law flags of generate, in option order: flag -> noun. The laws that take each flag are those of
# models.LAWS with that field, and every law for --n: generate needs a length even where a law has none.
# An unset flag stays None.
_LAW_FLAGS = {"n": "series length", "k": "scale factor K", "alpha": "exponent", "a": "rank exponent",
              "b": "depletion exponent", "rho": "rank offset", "epsilon": "exponent shift"}


def _build_parser() -> argparse.ArgumentParser:
    source = _Parser(add_help=False)
    source.add_argument("input", help="CSV/TSV file of values (or rank,value with --pre-ranked)")
    source.add_argument("--delimiter", default=",", help="field delimiter for CSV input (default: comma)")
    source.add_argument("--zero-policy", choices=("reject", "drop"), default="drop",
                        help="what to do with non-positive values (default: drop with a warning)")
    source.add_argument("--pre-ranked", action="store_true",
                        help="input rows carry an explicit rank column instead of being sorted here")
    output = _Parser(add_help=False)
    output.add_argument("--output", metavar="PATH", help="write machine output here instead of stdout")
    output.add_argument("--quiet", action="store_true", help="suppress the human summary and diagnostics")
    model = _Parser(add_help=False)
    model.add_argument("--model", required=True, choices=models.MODEL_TAGS)

    parser = _Parser(prog="ranklaws", description="Fit and compare rank-order distribution laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", parents=[source, output, model], help="fit one model to a ranked series")
    p_fit.set_defaults(func=_cmd_fit)

    p_cmp = sub.add_parser("compare", parents=[source, output], help="fit all four models and rank them")
    p_cmp.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("generate", parents=[output, model], help="emit a synthetic series as CSV")
    for name, noun in _LAW_FLAGS.items():
        tags = [tag for tag, law in models.LAWS.items()
                if name == "n" or any(field.name == name for field in dataclasses.fields(law))]
        p_gen.add_argument(f"--{name}", type=int if name == "n" else float, help=f"{noun} ({', '.join(tags)})")
    p_gen.add_argument("--sigma", type=float, default=0.0, help="lognormal noise level (default 0)")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_gen.set_defaults(func=_cmd_generate)

    p_sim = sub.add_parser("simulate", parents=[output], help="run the preferential-attachment process")
    p_sim.add_argument("--p-new", type=float, required=True, help="probability a step founds a new source")
    p_sim.add_argument("--steps", type=int, required=True, help="total items to allocate")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_plot = sub.add_parser("plotdata", parents=[source, output, model], help="emit rank/observed/fitted/residual TSV")
    p_plot.set_defaults(func=_cmd_plotdata)

    return parser


def _read_series(args) -> tuple[RankedSeries, list[str], str]:
    """Load the input file; returns (series, warnings, digest).

    The flags are checked before the file is opened, so a bad flag is
    reported (exit 64) even when the input is bad too.
    """
    mode = "pre-ranked" if args.pre_ranked else "raw"
    options = IngestOptions(mode=mode, zero_policy=args.zero_policy, delimiter=args.delimiter)
    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
        digest = hashlib.blake2b(raw, digest_size=8).hexdigest()
        text = raw.decode("utf-8")
        del raw  # the parse holds the text; a second copy of the input would only add to the peak
        # No output carries labels, so none are built.
        series, warnings = parse_csv(text, options, labels=False)
    except OSError as exc:
        raise _InputError(f"cannot read {args.input}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{args.input} is not valid UTF-8: {exc}") from exc
    except ValidationError as exc:
        raise _InputError(str(exc)) from exc
    return series, warnings, digest


def _emit(args, chunks, summary: str | None) -> int:
    """Write the machine output, an iterable of text chunks, then the summary.

    Each chunk is written as it is made, so no step holds the whole text.
    Every check that can fail the command has run before the first chunk.
    Output is flushed before the summary: a failed write, even of the last
    buffered bytes, raises before it and leaves what was written so far.
    A standard stream that was closed at start (None in ``sys``) fails the
    write that would use it with EBADF.
    """
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        dest = sys.stdout
    else:
        _stdio(sys.stdout).writelines(chunks)
        sys.stdout.flush()
        dest = sys.stderr
    if summary is not None and not args.quiet:
        _stdio(dest).write(summary + "\n")
    return 0


def _stdio(stream):
    """Return ``stream``; a None one (its fd was closed at start) fails like a write to a closed fd."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _error_line(text: str) -> None:
    """Write ``text`` to stderr; the line is best-effort, so a failed write, or a closed stderr, drops it."""
    with contextlib.suppress(OSError):
        _stdio(sys.stderr).write(text)


def _fit_payload(result: FitReport | ComparisonReport) -> dict:
    """The report's object: the result dataclass's fields, nested dataclasses as dicts."""
    return dataclasses.asdict(result)


def _document(digest: str, series: RankedSeries, warnings: list[str], key: str, payload) -> Iterator[str]:
    doc = {
        "tool_version": __version__,
        "input_digest": digest,
        "series": {"n": series.n, "min": float(series.values[-1]), "max": float(series.values[0])},
        key: payload,
        "warnings": warnings,
    }
    return _json(doc)


_SCALARS = (str, int, float, type(None))
_LIST_SLICE = 4096


def _json(obj) -> Iterator[str]:
    """Yield ``json.dumps(obj, sort_keys=True, indent=2)`` plus a final newline, in chunks, for str-keyed ``obj``.

    A float64 ndarray is encoded as the list of its values. ``json.dumps``
    with an indent encodes every value in pure Python; its C encoder runs
    only without one. This walks the containers itself and hands each
    non-empty list of scalars, such as the residuals, to the C encoder one
    slice of _LIST_SLICE items at a time, with the indented item
    separator; an ndarray slice becomes a list through ``.tolist()``. So no
    chunk, and no list built here, grows with the length of a list.
    """
    yield from _encode(obj, "")
    yield "\n"


def _encode(obj, indent: str) -> Iterator[str]:
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            yield sep + json.dumps(key) + ": "
            yield from _encode(value, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(obj, (list, tuple, np.ndarray)) and len(obj):
        sep = "[\n" + inner
        if isinstance(obj, np.ndarray) or all(issubclass(t, _SCALARS) for t in set(map(type, obj))):
            for i in range(0, len(obj), _LIST_SLICE):
                items = obj[i : i + _LIST_SLICE]
                if isinstance(items, np.ndarray):
                    items = items.tolist()
                yield sep + json.dumps(items, separators=(",\n" + inner, ": "))[1:-1]
                sep = ",\n" + inner
        else:
            for item in obj:
                yield sep
                yield from _encode(item, inner)
                sep = ",\n" + inner
        yield "\n" + indent + "]"
    else:
        yield json.dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj)


def _format_number(v: float) -> str:
    return f"{v:.4f}" if v == 0 or 1e-4 <= abs(v) < 1e6 else f"{v:.4e}"


def _format_params(params: models.ModelParams) -> str:
    return " ".join(
        f"{'K' if field.name == 'k' else field.name}={_format_number(getattr(params, field.name))}"
        for field in dataclasses.fields(params)
        if field.name != "n"
    )


def _format_value(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


def _series_csv(series: RankedSeries) -> Iterator[str]:
    """Yield the value-per-line CSV, one _LIST_SLICE of lines per chunk."""
    for i in range(0, series.n, _LIST_SLICE):
        yield "".join([_format_value(v) + "\n" for v in series.values[i : i + _LIST_SLICE].tolist()])


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
    return _emit(args, _document(digest, series, warnings, "comparison", _fit_payload(comp)), _comparison_table(comp))


def _params_from_flags(args) -> models.ModelParams:
    law = models.LAWS[args.model]
    fields = [field.name for field in dataclasses.fields(law)]
    needed = ["n"] + [name for name in fields if name != "n"]
    supplied = {f: getattr(args, f) for f in _LAW_FLAGS}
    if any(supplied[f] is None for f in needed):
        raise ValidationError(f"model {args.model} requires " + " ".join(f"--{f}" for f in needed))
    extra = [f for f, v in supplied.items() if v is not None and f not in needed]
    if extra:
        raise ValidationError(f"--{extra[0]} does not apply to model {args.model}")
    return law(**{name: supplied[name] for name in fields})


def _cmd_generate(args) -> int:
    params = _params_from_flags(args)
    noise = NoiseSpec(sigma=args.sigma, seed=args.seed)
    # The length and values outside double range are rejected here too.
    series = generate_synthetic(params, noise, n=args.n)
    return _emit(args, _series_csv(series), f"generated {series.n} values ({args.model}, sigma={args.sigma:g})")


def _cmd_simulate(args) -> int:
    config = SimonConfig(p_new=args.p_new, steps=args.steps, seed=args.seed)
    series = simulate_simon(config)
    return _emit(args, _series_csv(series), f"simulated {config.steps} items over {series.n} sources")


def _cmd_plotdata(args) -> int:
    series, warnings, _ = _read_series(args)
    rep = fit_model(series, args.model)
    fitted = models.model_values(rep.params, series.n)
    notes = "".join(f"ranklaws: warning: {w}\n" for w in [*warnings, *rep.warnings])
    summary = f"{notes}{rep.model}: {_format_params(rep.params)} R^2={rep.r_squared:.4f}"
    return _emit(args, _plot_table(series.values, fitted, rep.residuals), summary)


def _plot_table(observed: np.ndarray, fitted: np.ndarray, residuals: np.ndarray) -> Iterator[str]:
    """Yield the plotdata TSV: its header, then one _LIST_SLICE of rows per chunk."""
    yield "rank\tobserved\tfitted\tlog_residual\n"
    for i in range(0, observed.size, _LIST_SLICE):
        part = slice(i, i + _LIST_SLICE)
        rows = zip(observed[part].tolist(), fitted[part].tolist(), residuals[part].tolist())
        yield "".join([f"{rank}\t{_format_value(o)}\t{_format_value(f)}\t{_format_value(r)}\n"
                       for rank, (o, f, r) in enumerate(rows, start=i + 1)])


# Exit code and message prefix per exception class; a class not listed takes its nearest listed base's.
_EXITS = {ValidationError: (64, "error"), _InputError: (1, "error"), FitError: (2, "fit error"), OSError: (1, "error"),
          MemoryError: (1, "error")}


def main(argv: list[str] | None = None) -> int:
    args = None
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # help printed, or a usage error reported
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        print(end="", flush=True)  # the last buffered bytes fail here, not at exit; no-op if fd 1 was closed
    except tuple(_EXITS) as exc:
        code, prefix = next(_EXITS[kind] for kind in type(exc).__mro__ if kind in _EXITS)
        if not (args and args.quiet):
            _error_line(f"ranklaws: {prefix}: {exc}\n")
    for stream in filter(None, (sys.stdout, sys.stderr)):  # on every path: a usage error writes to stderr too
        try:
            stream.flush()
        except OSError:  # it failed, and would again at exit: point its fd at devnull
            with contextlib.suppress(OSError):  # unless it has no file descriptor, asked before devnull is opened
                fd, devnull = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
    return code


def console_main() -> None:
    raise SystemExit(main())
