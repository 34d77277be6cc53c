"""The three workloads: their seeded inputs, their ops and the checks on each op's output.

An op is a short list of ``ranklaws`` command lines run one after another.
The program only ever sees the files written here; every parameter of the
inputs comes from the workload seed.

* ``paper-200``: ``compare`` on a fresh n = 200 beta-like series with the
  paper's physics parameters. Interpreter and numpy start-up dominate.
* ``simon-pipeline``: ``simulate`` 10^6 steps, then ``fit`` the ~10^5 plain
  rows it wrote. The Simon kernel and plain-row ingest dominate.
* ``ingest-200k``: ``fit`` on a shuffled 2*10^5-row ``journal,impact`` file
  with a header. Labelled parsing and JSON encoding dominate; no kernel runs.
  At 10^6 rows an op takes ~9 s, so a run held only 3-4 ops and its median
  moved by up to 23% between runs; the layer shares do not depend on size.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The paper's physics row: K (N+1-r)^b / r^a under lognormal noise sigma.
PAPER_K, PAPER_A, PAPER_B, PAPER_SIGMA = 0.0273, 0.4058, 0.991, 0.05
# Fitted a and b of a generated series must lie this close to the generating
# values. At n = 200 their spread over 300 seeds is sd 0.005 (a) and 0.005 (b).
AB_TOLERANCE = 0.05
SIMON_P_NEW = 0.1
SIMON_STEPS = 1_000_000
# A beta-like fit of Simon-process counts is close to a power law
# (R^2 about 0.976 at 10^6 steps); a broken fit or series reads far lower.
SIMON_MIN_R2 = 0.9


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def beta_like_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """A noisy beta-like curve at the paper's parameters, in shuffled order."""
    r = np.arange(1.0, n + 1.0)
    values = PAPER_K * (n + 1.0 - r) ** PAPER_B / r**PAPER_A * np.exp(rng.normal(0.0, PAPER_SIGMA, n))
    rng.shuffle(values)
    return values


@dataclass
class Op:
    """One closed-loop operation: command lines run in order, and the files they write."""

    argvs: list[list[str]]
    key: int  # ops with the same key run the same inputs and must write the same bytes
    outputs: list[Path]


@dataclass
class Workload:
    name: str
    work: Path
    seed: int
    rows: int = 0
    input_bytes: int = 0
    seen: dict = field(default_factory=dict)  # key -> output digests of its first run

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> tuple[list[str], int]:
        """Return (errors, ranked values processed) for a finished op."""
        raise NotImplementedError

    def _check_same_bytes(self, op: Op, blobs: list[bytes]) -> list[str]:
        digests = [digest(b) for b in blobs]
        first = self.seen.setdefault(op.key, digests)
        if first != digests:
            return [f"input {op.key}: output bytes differ from an earlier run of the same input"]
        return []


def _check_report(doc: dict, n: int, in_digest: str) -> list[str]:
    errors = []
    if doc.get("input_digest") != in_digest:
        errors.append(f"input_digest {doc.get('input_digest')} != {in_digest}")
    if doc.get("series", {}).get("n") != n:
        errors.append(f"series n {doc.get('series', {}).get('n')} != rows written {n}")
    return errors


def _check_ab(rep: dict) -> list[str]:
    a, b = rep["params"]["a"], rep["params"]["b"]
    if abs(a - PAPER_A) > AB_TOLERANCE or abs(b - PAPER_B) > AB_TOLERANCE:
        return [f"beta-like a={a:.4f} b={b:.4f} not within {AB_TOLERANCE} of {PAPER_A}, {PAPER_B}"]
    return []


def _load_json(path: Path) -> tuple[bytes, dict | None, list[str]]:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        return b"", None, [f"{path.name}: {exc.strerror}"]
    try:
        return raw, json.loads(raw), []
    except ValueError as exc:
        return raw, None, [f"{path.name}: not JSON ({exc})"]


class Paper200(Workload):
    POOL = 16
    N = 200

    def prepare(self) -> None:
        self.inputs = []
        for j in range(self.POOL):
            values = beta_like_values(np.random.default_rng([self.seed, 1, j]), self.N)
            raw = "".join(repr(float(v)) + "\n" for v in values).encode()
            path = self.work / f"paper_{j}.csv"
            path.write_bytes(raw)
            self.inputs.append((path, digest(raw)))
            self.rows += self.N
            self.input_bytes += len(raw)

    def op(self, i: int) -> Op:
        j = i % self.POOL
        out = self.work / f"paper_{j}.json"
        return Op([["compare", str(self.inputs[j][0]), "--output", str(out)]], j, [out])

    def check(self, op: Op) -> tuple[list[str], int]:
        raw, doc, errors = _load_json(op.outputs[0])
        if doc is None:
            return errors, 0
        errors += _check_report(doc, self.N, self.inputs[op.key][1])
        comp = doc["comparison"]
        if comp["nesting_ok"] is not True:
            errors.append("nesting_ok is not true")
        reports = {rep["model"]: rep for rep in comp["reports"]}
        if sorted(reports) != ["beta-like", "lavalette", "mandelbrot", "zipf"]:
            errors.append(f"compare reported models {sorted(reports)}")
        else:
            errors += _check_ab(reports["beta-like"])
        errors += self._check_same_bytes(op, [raw])
        return errors, self.N


class SimonPipeline(Workload):
    POOL = 4

    def prepare(self) -> None:
        # The inputs are flags; each pool entry is one simulate seed.
        self.sim_seeds = [(self.seed * 1_000_003 + j) % 2**63 for j in range(self.POOL)]

    def op(self, i: int) -> Op:
        j = i % self.POOL
        sim, out = self.work / f"simon_{j}.csv", self.work / f"simon_{j}.json"
        simulate = ["simulate", "--p-new", str(SIMON_P_NEW), "--steps", str(SIMON_STEPS),
                    "--seed", str(self.sim_seeds[j]), "--output", str(sim)]
        fit = ["fit", str(sim), "--model", "beta-like", "--output", str(out)]
        return Op([simulate, fit], j, [sim, out])

    def check(self, op: Op) -> tuple[list[str], int]:
        sim_raw = op.outputs[0].read_bytes()
        counts = np.array(sim_raw.split(), dtype=np.float64)
        errors = []
        if counts.sum() != SIMON_STEPS:
            errors.append(f"simulate counts sum to {counts.sum():.0f}, not {SIMON_STEPS}")
        # Sources = 1 + Binomial(steps - 1, p_new).
        mean = 1 + SIMON_P_NEW * (SIMON_STEPS - 1)
        sd = math.sqrt((SIMON_STEPS - 1) * SIMON_P_NEW * (1 - SIMON_P_NEW))
        if abs(counts.size - mean) > 6 * sd:
            errors.append(f"{counts.size} sources, outside 6 sd of {mean:.0f}")
        raw, doc, json_errors = _load_json(op.outputs[1])
        errors += json_errors
        if doc is not None:
            errors += _check_report(doc, counts.size, digest(sim_raw))
            fit = doc["fit"]
            a, b, r2 = fit["params"]["a"], fit["params"]["b"], fit["r_squared"]
            if not (math.isfinite(a) and math.isfinite(b) and r2 > SIMON_MIN_R2):
                errors.append(f"beta-like fit of Simon counts a={a} b={b} R^2={r2} (want R^2 > {SIMON_MIN_R2})")
        errors += self._check_same_bytes(op, [sim_raw, raw])
        if not self.rows:  # record the first simulate output as the fit's input
            self.rows, self.input_bytes = counts.size, len(sim_raw)
        return errors, counts.size


class Ingest200K(Workload):
    N = 200_000

    def prepare(self) -> None:
        values = beta_like_values(np.random.default_rng([self.seed, 3]), self.N)
        body = "".join(f"J{i:07d},{v!r}\n" for i, v in enumerate(values.tolist()))
        raw = ("journal,impact\n" + body).encode()
        self.path = self.work / "ingest.csv"
        self.path.write_bytes(raw)
        self.in_digest = digest(raw)
        self.rows, self.input_bytes = self.N, len(raw)

    def op(self, i: int) -> Op:
        out = self.work / "ingest.json"
        return Op([["fit", str(self.path), "--model", "beta-like", "--output", str(out)]], 0, [out])

    def check(self, op: Op) -> tuple[list[str], int]:
        raw, doc, errors = _load_json(op.outputs[0])
        if doc is None:
            return errors, 0
        errors += _check_report(doc, self.N, self.in_digest)
        if doc["fit"]["n"] != self.N or len(doc["fit"]["residuals"]) != self.N:
            errors.append("fit n or residual count differs from rows written")
        errors += _check_ab(doc["fit"])
        errors += self._check_same_bytes(op, [raw])
        return errors, self.N


WORKLOADS = {"paper-200": Paper200, "simon-pipeline": SimonPipeline, "ingest-200k": Ingest200K}


def make(name: str, work: Path, seed: int) -> Workload:
    return WORKLOADS[name](name, work, seed)
