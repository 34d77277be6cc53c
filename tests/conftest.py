"""Shared fixtures: reference parameter sets and random generators.

DISCIPLINE_ROWS is a catalog of fitted two-exponent parameter sets for
journal-impact-factor data across eleven disciplines; it spans the
exponent ranges the package is designed for (a in 0.22..0.51, b in
0.68..1.06) and drives the fixture-based suites.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

import ranklaws as rl

DISCIPLINE_ROWS = (
    ("physics", 0.0273, 0.4058, 0.991),
    ("mathematics", 0.0437, 0.2622, 0.676),
    ("computer-science", 0.0066, 0.2840, 1.0626),
    ("agroscience", 0.0070, 0.2210, 0.9597),
    ("environmental-science", 0.0358, 0.2781, 0.9357),
    ("biosciences", 0.0304, 0.5140, 1.0161),
    ("chemistry", 0.0549, 0.4560, 0.9733),
    ("engineering", 0.0033, 0.3522, 1.0472),
    ("geosciences", 0.0463, 0.3505, 0.8739),
    ("material-science", 0.0408, 0.4477, 0.9072),
    ("medicine", 0.0819, 0.4307, 0.7735),
)


def ulp_diff(x: float, y: float) -> float:
    """Distance between two floats in units of the larger one's ulp."""
    if x == y:
        return 0.0
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


def random_zipf(rng: np.random.Generator) -> rl.ZipfParams:
    return rl.ZipfParams(k=float(rng.uniform(0.01, 50.0)), alpha=float(rng.uniform(0.1, 2.5)))


def random_mandelbrot(rng: np.random.Generator, n: int) -> rl.MandelbrotParams:
    return rl.MandelbrotParams(
        rho=float(rng.uniform(-0.5, 30.0)),
        epsilon=float(rng.uniform(0.05, 2.0)),
        n=n,
    )


def random_lavalette(rng: np.random.Generator, n: int) -> rl.LavaletteParams:
    return rl.LavaletteParams(
        k=float(rng.uniform(0.01, 50.0)),
        b=float(rng.uniform(0.1, 2.0)),
        n=n,
    )


def random_beta_like(rng: np.random.Generator, n: int) -> rl.BetaLikeParams:
    return rl.BetaLikeParams(
        k=float(rng.uniform(0.01, 50.0)),
        a=float(rng.uniform(0.1, 1.5)),
        b=float(rng.uniform(0.1, 1.5)),
        n=n,
    )


def random_series(rng: np.random.Generator, min_n: int = 4) -> rl.RankedSeries:
    """A valid series from a mixed population: model curves under noise
    plus adversarial shapes (constant, heavy ties, two-point at minimum
    length)."""
    kind = int(rng.integers(0, 8))
    n = int(rng.integers(min_n, 80))
    if kind == 0:
        return rl.RankedSeries(np.full(n, float(rng.uniform(0.1, 100.0))))
    if kind == 1:
        distinct = np.sort(rng.uniform(0.1, 50.0, size=int(rng.integers(2, 4))))[::-1]
        values = np.repeat(distinct, int(np.ceil(n / distinct.size)))[:n]
        return rl.RankedSeries(values)
    if kind == 2:
        high, low = sorted(rng.uniform(0.1, 50.0, size=2), reverse=True)
        values = np.full(min_n, low)
        values[0] = high
        return rl.RankedSeries(values)
    sigma = float(rng.uniform(0.0, 0.5))
    noise = rl.NoiseSpec(sigma=sigma, seed=int(rng.integers(0, 2**32)))
    if kind == 3:
        return rl.generate_synthetic(random_zipf(rng), noise, n=n)
    if kind == 4:
        return rl.generate_synthetic(random_mandelbrot(rng, n), noise)
    if kind == 5:
        return rl.generate_synthetic(random_lavalette(rng, n), noise)
    return rl.generate_synthetic(random_beta_like(rng, n), noise)


def traced_peak(fn, *args):
    """Call ``fn(*args)``; return its result and the most memory it held at once, in bytes, per tracemalloc.

    Memory already allocated before the call does not count; what the
    call allocates and keeps, such as its result, does.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
