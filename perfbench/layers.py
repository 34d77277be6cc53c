"""Traced pass: per-layer spans taken from outside the program.

The program is imported in this process from the checkout's ``src``, and its
functions are wrapped where their callers look them up (module attributes),
so nothing in ``src`` changes. A span records its name, its parent and its
duration; a layer's self time is its spans' durations minus their child
spans. Ops run through ``cli.main`` in-process, alternating untraced and
traced, so the tracing overhead is measured rather than assumed.

Layers are the package modules ``cli``, ``ingest``, ``fit``, ``models``,
``accel`` and ``generate``; the import cost of ``__init__`` is measured in
fresh interpreters by the caller.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

# fit_mandelbrot's golden-section search ends after ~70 profile calls when it
# can converge (67 at n = 200; about 80 would reach its 1e-10 width at
# n = 10^6). Above rho ~ 2^19 it cannot, so the wrapper stops it here; on the
# noisy beta-like series of paper-200 and ingest-200k that happens from
# n ~ 10^5 on.
RHO_PROBE_CAP = 200
# A traced op's self times must sum to its wall time, taken outside every
# span, within this share (median over the traced ops).
CONSISTENCY_TOLERANCE = 0.02
SIMON_REPEATS = 3


class ProbeCapHit(Exception):
    pass


class Tracer:
    """Spans of one op, kept in memory as [name, parent index, duration]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.series = None  # the first series parse_csv returned

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else None, 0.0])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter() - start
            self.stack.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _, dur in self.spans:
            out[name] += dur
        for _, parent, dur in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= dur
        return dict(out)


@contextlib.contextmanager
def patched(patches):
    """Install (module, attribute, replacement) triples; restore them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, new in patches:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)


def op_patches(tracer: Tracer, rl) -> list:
    """Wrappers for every layer boundary an op crosses."""
    cli, ingest, generate, models, accel = rl.cli, rl.ingest, rl.generate, rl.models, rl.accel
    w = tracer.wrap

    def rows(args, res):
        if tracer.series is None:
            tracer.series = res[0]
        return {"ingest.rows": res[0].n}

    def steps(args, res):
        # Computed bytes: the two uniform arrays read and the owners array written.
        return {"accel.simon_steps": res.size, "accel.simon_bytes": args[0].nbytes + args[1].nbytes + res.nbytes}

    patches = [
        (cli, "_read_series", w("cli.read", cli._read_series)),
        (cli, "_emit", w("cli.write", cli._emit)),
        (cli, "parse_csv", w("ingest.parse_csv", cli.parse_csv, rows)),
        (ingest, "rank_raw", w("ingest.rank_raw", ingest.rank_raw)),
        (generate, "rank_raw", w("ingest.rank_raw", generate.rank_raw)),
        (cli, "fit_model", w("fit.fit_model", cli.fit_model)),
        (cli, "compare_models", w("fit.compare_models", cli.compare_models)),
        (models, "model_values", w("models.model_values", models.model_values)),
        (accel, "mandelbrot_profile", w("accel.mandelbrot_profile", accel.mandelbrot_profile)),
        (cli, "simulate_simon", w("generate.simulate_simon", cli.simulate_simon)),
        (accel, "simon_owners", w("accel.simon_owners", accel.simon_owners, steps)),
    ]
    for encoder in ("_document", "_fit_payload", "_series_csv", "_comparison_table"):
        patches.append((cli, encoder, w("cli.encode", getattr(cli, encoder))))
    return patches


def _run_cli(rl, argvs) -> list[str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            try:
                rc = rl.cli.main(argv)
            except Exception as exc:  # a crash in the program fails this op, not the benchmark
                return [f"{argv[0]} raised {exc!r}"]
            if rc != 0:
                return [f"{argv[0]} exited {rc}: {sink.getvalue().strip()[-300:]}"]
    return []


def op_layers(self_t: dict[str, float]) -> dict[str, float]:
    """Layer self times of one traced op; the op's own span is CLI glue."""
    return {
        "cli.self_s": sum(v for k, v in self_t.items() if k == "op" or k.startswith("cli.")),
        "ingest.parse_csv.self_s": self_t.get("ingest.parse_csv", 0.0),
        "ingest.rank_raw_s": self_t.get("ingest.rank_raw", 0.0),
        "fit.self_s": self_t.get("fit.fit_model", 0.0) + self_t.get("fit.compare_models", 0.0),
        "models.model_values_s": self_t.get("models.model_values", 0.0),
    }


@dataclass
class TracedPass:
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)  # per traced op: op_layers + counts
    self_times: list[dict] = field(default_factory=list)  # per traced op: every span name
    series: object = None  # parsed by the first traced op; input of the rho probe
    attempted: int = 0
    errors: list[tuple[int, list[str]]] = field(default_factory=list)  # (op index, messages)

    def consistency(self) -> float:
        """Median over traced ops of |op wall time - sum of its self times| / op wall time."""
        return statistics.median(abs(t - sum(s.values())) / t for t, s in zip(self.traced_s, self.self_times))


def traced_ops(rl, workload, before, check, deadline: float) -> TracedPass:
    """Run ops in-process until the deadline, alternating untraced and traced.

    At least one op of each kind runs, and no op starts unless a typical op
    still ends by the deadline. ``before(op)`` and ``check(op)`` run around
    each op, exactly as in the untraced benchmark; ``check`` returns the op's
    output errors.
    """
    out = TracedPass()
    i = 0
    while i < 2 or time.perf_counter() + statistics.median(out.untraced_s + out.traced_s) <= deadline:
        op = workload.op(i)
        before(op)
        traced = i % 2 == 1
        tracer = Tracer()
        with patched(op_patches(tracer, rl) if traced else []):
            start = time.perf_counter()
            with tracer.span("op"):
                errors = _run_cli(rl, op.argvs)
            elapsed = time.perf_counter() - start
        out.attempted += 1
        errors = errors or check(op)
        if errors:
            out.errors.append((i, errors))
        if traced:
            self_t = tracer.self_times()
            out.traced_s.append(elapsed)
            out.self_times.append(self_t)
            row = op_layers(self_t)
            row["ingest.rows"] = tracer.counts["ingest.rows"]
            row["cli.output_bytes"] = sum(p.stat().st_size for p in op.outputs if p.exists())
            out.layers.append(row)
            if out.series is None:
                out.series = tracer.series
        else:
            out.untraced_s.append(elapsed)
        i += 1
    return out


def simon_kernel(rl, seed: int) -> dict[str, float]:
    """Time generate.simulate_simon at the simon-pipeline size, split by layer."""
    rows = []
    for rep in range(SIMON_REPEATS):
        tracer = Tracer()
        config = rl.SimonConfig(p_new=0.1, steps=1_000_000, seed=(seed * 1_000_003 + rep) % 2**63)
        wanted = {(rl.accel, "simon_owners"), (rl.generate, "rank_raw")}
        patches = [p for p in op_patches(tracer, rl) if p[:2] in wanted]
        with patched(patches), tracer.span("generate.simulate_simon"):
            rl.generate.simulate_simon(config)
        self_t = tracer.self_times()
        rows.append({
            "accel.simon_owners_s": self_t["accel.simon_owners"],
            "generate.simulate_simon.self_s": self_t["generate.simulate_simon"],
            "accel.simon_steps": tracer.counts["accel.simon_steps"],
            "accel.simon_bytes": tracer.counts["accel.simon_bytes"],
        })
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def rho_probe(rl, series) -> dict[str, float]:
    """Run fit_mandelbrot on a series, stopping the rho search at RHO_PROBE_CAP profile calls."""
    calls: list[float] = []
    profile = rl.accel.mandelbrot_profile

    def capped(log_values, rho):
        if len(calls) >= RHO_PROBE_CAP:
            raise ProbeCapHit
        start = time.perf_counter()
        result = profile(log_values, rho)
        calls.append(time.perf_counter() - start)
        return result

    cap_hit = 0
    with patched([(rl.accel, "mandelbrot_profile", capped)]):
        try:
            rl.fit.fit_mandelbrot(series)
        except ProbeCapHit:
            cap_hit = 1
    return {
        "fit.rho_probes": len(calls),
        "fit.rho_probe_cap_hit": cap_hit,
        "accel.mandelbrot_profile_s": statistics.median(calls),
        "accel.mandelbrot_profile_values": len(calls) * series.n,
    }
