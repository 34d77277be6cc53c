"""End-to-end and per-layer benchmark of the ``ranklaws`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload paper-200 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

With ``--trace 0`` one client runs ops in a closed loop, one ``ranklaws``
child process at a time, for ``--seconds``, and reports end-to-end metrics:

* ``setup_s``: median wall time of a fresh interpreter importing ranklaws.cli;
* ``op_p50_s``, ``op_tail_s``: median op wall time, and the op wall time at
  the highest percentile with 10 ops above it (the median below 20 ops);
* ``values_per_s``: ranked values of passing ops per second of op wall time;
* ``cpu_per_op_s``: median user + system time of an op's children (wait4);
* ``peak_rss_mb``: the largest RSS of any child;
* ``ok_ratio``: ops whose every output check passed, over ops attempted.

With ``--trace 1`` it instead measures imports in fresh interpreters, runs
ops in-process with the layer wrappers of ``layers.py`` and reports
per-layer metrics. The accel and generate metrics come from a kernel pass
that every workload runs: ``simulate_simon`` at 10^6 steps, and
``fit_mandelbrot`` on the first traced op's series with the rho search
capped at ``layers.RHO_PROBE_CAP`` profile calls.

Every op's output is checked. A table goes to stderr, a record of the run and
its machine goes to ``.perfbench_out/BENCH_<workload>_trace<t>_seed<s>.json``,
and the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 if any output
check failed and 2 if the program could not be set up.

``compare`` is not an end-to-end op above n ~ 10^4: its mandelbrot rho search
does not finish there. The traced run counts that as ``fit.rho_probe_cap_hit``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAUNCH = "from ranklaws.cli import console_main; console_main()"
IMPORT_PROBE = (
    "import json, time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import ranklaws.cli, ranklaws.accel as a; t2 = time.perf_counter(); "
    "print(json.dumps({'numpy_s': t1 - t0, 'ranklaws_s': t2 - t1, "
    "'file': ranklaws.cli.__file__, 'numba': a.NUMBA_ENABLED}))"
)
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 100
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "RANKLAWS_NUMBA", "PYTHONDONTWRITEBYTECODE")

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "values_per_s": "1/s",
    "cpu_per_op_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
PER_LAYER = {
    "import.numpy_s": "s", "import.ranklaws_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "ingest.parse_csv.self_s": "s", "ingest.rank_raw_s": "s", "ingest.rows": "count",
    "fit.self_s": "s", "models.model_values_s": "s",
    "fit.rho_probes": "count", "fit.rho_probe_cap_hit": "count",
    "accel.mandelbrot_profile_s": "s", "accel.mandelbrot_profile_values": "count",
    "generate.simulate_simon.self_s": "s", "accel.simon_owners_s": "s",
    "accel.simon_steps": "count", "accel.simon_bytes": "bytes",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The program under test could not be found, imported or run."""


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], work: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``python3 <args>`` and reap it with wait4 for its CPU time and peak RSS."""
    actions = [
        (os.POSIX_SPAWN_OPEN, fd, str(work / name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for fd, name in ((1, "child.out"), (2, "child.err"))
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], _env(), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(timeout * 1000)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reaped = True
    finally:
        if not reaped:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, timed_out)


def child_error(child: Child, what: str, work: Path) -> str:
    if child.timed_out:
        return f"{what} timed out after {CHILD_TIMEOUT_S} s"
    err = (work / "child.err").read_text(errors="replace").strip()
    return f"{what} exited {child.rc}: {err[-300:]}"


def import_probe(work: Path) -> tuple[float, dict]:
    """One fresh interpreter importing ranklaws.cli: its wall time and its own import timings."""
    child = run_child(["-c", IMPORT_PROBE], work, timeout=60)
    if child.rc != 0:
        raise SetupError(child_error(child, "import ranklaws.cli", work))
    probe = json.loads((work / "child.out").read_text().splitlines()[-1])
    if not Path(probe["file"]).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported ranklaws from {probe['file']}, not from {SRC}")
    return child.wall, probe


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_times() -> list[int] | None:
    """Machine-wide CPU time counters (user ... steal), or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor took between two _cpu_times() readings."""
    if before is None or after is None or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def environment(load_at_start) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_settings": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": load_at_start,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND samples that percentile would fall under the median,
    or not exist, so the median is reported instead, as percentile 50: the
    maximum of a few ops mostly measures the machine's noise.
    """
    ordered = sorted(values)
    if len(ordered) < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    k = len(ordered) - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / len(ordered)


def remove_outputs(op) -> None:
    """Delete an op's outputs before it runs, so a check never reads an earlier op's files."""
    for path in op.outputs:
        path.unlink(missing_ok=True)


def safe_check(workload, op) -> tuple[list[str], int]:
    """The op's output errors and ranked values; a malformed output is an error, not a crash."""
    try:
        return workload.check(op)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"output check raised {exc!r}"], 0


def run_untraced(workload, seconds: float, work: Path) -> dict:
    walls, cpus, values = [], [], 0
    peak_rss = 0.0
    errors_seen = []
    setup_walls = []
    start = time.perf_counter()
    deadline = start + seconds

    def setup_due() -> bool:
        # Import probes are spread evenly over the run, so set-up time is
        # sampled under the same machine load as the ops.
        return time.perf_counter() >= start + len(setup_walls) * seconds / SETUP_REPEATS

    i = 0
    # Start an op only if a typical op still ends by the deadline, so long ops
    # do not stretch the run.
    while i == 0 or time.perf_counter() + statistics.median(walls) <= deadline:
        while len(setup_walls) < SETUP_REPEATS and setup_due():
            setup_walls.append(import_probe(work)[0])
        op = workload.op(i)
        remove_outputs(op)
        wall = cpu = 0.0
        errors = []
        for argv in op.argvs:
            child = run_child(["-c", LAUNCH, *argv], work)
            wall, cpu, peak_rss = wall + child.wall, cpu + child.cpu, max(peak_rss, child.rss_mb)
            if child.rc != 0 or child.timed_out:
                errors = [child_error(child, argv[0], work)]
                break
        if not errors:
            errors, n = safe_check(workload, op)
            values += 0 if errors else n
        if errors:
            errors_seen.append((i, errors))
        walls.append(wall)
        cpus.append(cpu)
        i += 1
    while len(setup_walls) < SETUP_REPEATS:
        setup_walls.append(import_probe(work)[0])
    tail_s, tail_pct = tail(walls)
    return {
        "metrics": {
            "setup_s": statistics.median(setup_walls),
            "op_p50_s": statistics.median(walls),
            "op_tail_s": tail_s,
            "values_per_s": values / sum(walls),
            "cpu_per_op_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss,
            "ok_ratio": (len(walls) - len(errors_seen)) / len(walls),
        },
        "attempted": len(walls),
        "failed": len(errors_seen),
        "errors": errors_seen,
        "detail": {"op_tail_percentile": tail_pct, "ops": len(walls), "op_walls_s": walls,
                   "failed_ratio": len(errors_seen) / len(walls)},
    }


def _import_program():
    sys.path.insert(0, str(SRC))
    import ranklaws
    import ranklaws.cli  # noqa: F401  (binds ranklaws.cli)

    if not Path(ranklaws.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported ranklaws from {ranklaws.__file__}, not from {SRC}")
    return ranklaws


def run_traced(workload, seconds: float, seed: int, work: Path) -> dict:
    probes = [import_probe(work)[1] for _ in range(SETUP_REPEATS)]
    imports = {f"import.{k}": statistics.median(p[k] for p in probes) for k in ("numpy_s", "ranklaws_s")}
    rl = _import_program()
    passed = layers.traced_ops(rl, workload, remove_outputs, lambda op: safe_check(workload, op)[0],
                               time.perf_counter() + seconds)
    metrics = {k: statistics.median(row[k] for row in passed.layers) for k in passed.layers[0]}
    metrics.update(imports)
    metrics["trace.overhead_s"] = statistics.median(passed.traced_s) - statistics.median(passed.untraced_s)
    metrics.update(layers.simon_kernel(rl, seed))
    if passed.series is None:
        raise SetupError(f"no traced op parsed a series: {passed.errors[:1]}")
    metrics.update(layers.rho_probe(rl, passed.series))
    errors = list(passed.errors)
    consistency = passed.consistency()  # checked once per run, so it counts as one more attempt
    if consistency > layers.CONSISTENCY_TOLERANCE:
        errors.append(("trace", [f"self times sum to {consistency:.1%} away from the traced op's wall time"]))
    # Self time per span name, median over traced ops (zero where an op does not
    # cross a layer), next to the import a CLI process pays before its op starts.
    names = {k for s in passed.self_times for k in s}
    breakdown = {k: statistics.median(s.get(k, 0.0) for s in passed.self_times) for k in names}
    breakdown["import"] = sum(imports.values())
    return {
        "metrics": metrics,
        "attempted": passed.attempted + 1,
        "failed": len(errors),
        "errors": errors,
        "detail": {
            "op_self_s": dict(sorted(breakdown.items(), key=lambda kv: -kv[1])),
            "untraced_op_s": statistics.median(passed.untraced_s),
            "traced_op_s": statistics.median(passed.traced_s),
            "consistency": consistency,
            "consistency_tolerance": layers.CONSISTENCY_TOLERANCE,
            "rho_probe_cap": layers.RHO_PROBE_CAP,
            "ops": {"untraced": len(passed.untraced_s), "traced": len(passed.traced_s)},
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, load_at_start) -> dict:
    work = OUT / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cpu_before = _cpu_times()
    try:
        workload = workloads.make(name, work, seed)
        # The first probe warms the file cache and checks the checkout's copy is imported.
        numba_enabled = import_probe(work)[1]["numba"]
        workload.prepare()
        result = (run_traced(workload, seconds, seed, work) if trace
                  else run_untraced(workload, seconds, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    result["metrics"] = {k: result["metrics"][k] for k in units}
    result["record"] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rows": workload.rows, "input_bytes": workload.input_bytes,
        "numba_enabled": numba_enabled, "environment": environment(load_at_start),
        # Steal inflates wall time but not CPU time; a noisy run shows it here.
        "steal_share": steal_share(cpu_before, _cpu_times()),
    }
    return result


def report(name: str, result: dict, trace: bool) -> None:
    units = PER_LAYER if trace else END_TO_END
    rec = result["record"]
    steal = "n/a" if rec["steal_share"] is None else f"{rec['steal_share']:.1%}"
    print(f"== {name} (seed {rec['seed']}, {rec['rows']} rows, {rec['input_bytes']} input bytes, "
          f"numba {rec['numba_enabled']}, steal {steal}, {'traced' if trace else 'untraced'})", file=sys.stderr)
    for key, value in result["metrics"].items():
        print(f"  {key:<34} {value:>16.6g} {units[key]}", file=sys.stderr)
    for key, value in result["detail"].items():
        if key == "op_self_s":
            print("  self time per op by span, largest first (median s):", file=sys.stderr)
            for span, t in value.items():
                print(f"    {span:<32} {t:>16.6g}", file=sys.stderr)
        elif key != "op_walls_s":
            print(f"  {key:<34} {value}", file=sys.stderr)
    for where, errors in result["errors"]:
        for err in errors:
            print(f"  FAILED op {where}: {err}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{name}_trace{int(trace)}_seed{rec['seed']}.json"
    record = dict(rec, metrics=result["metrics"], detail=result["detail"],
                  attempted=result["attempted"], failed=result["failed"], errors=result["errors"])
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the op loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ranklaws" / "cli.py").is_file():
        print(f"perfbench: no ranklaws source under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM unwind normally, so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_at_start = os.getloadavg()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), load_at_start)
            report(name, results[name], bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: cannot set up the program: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{key}" if prefix else key): {"value": value, "unit": units[key]}
        for name, res in results.items() for key, value in res["metrics"].items()
    }
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
