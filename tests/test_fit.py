"""Fitting: exact recovery, R^2 conventions, comparisons, and OLS properties."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import ranklaws as rl
from ranklaws import accel
from conftest import random_beta_like, random_lavalette, random_series, random_zipf


class TestExactRecovery:
    @pytest.mark.parametrize(
        "k,a,b,n",
        [
            (0.0273, 0.4058, 0.991, 100),
            (0.0437, 0.2622, 0.676, 50),
        ],
    )
    def test_beta_like_noiseless_round_trip(self, k, a, b, n):
        rep = rl.fit_beta_like(rl.curve(rl.BetaLikeParams(k=k, a=a, b=b, n=n)))
        assert rep.params.k == pytest.approx(k, rel=1e-8)
        assert rep.params.a == pytest.approx(a, rel=1e-8)
        assert rep.params.b == pytest.approx(b, rel=1e-8)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_zipf_noiseless_round_trip(self):
        rep = rl.fit_zipf(rl.curve(rl.ZipfParams(k=2, alpha=1.5), n=20))
        assert rep.params.alpha == pytest.approx(1.5, abs=1e-10)
        assert rep.params.k == pytest.approx(2.0, abs=1e-10)

    def test_lavalette_noiseless_round_trip(self):
        rep = rl.fit_lavalette(rl.curve(rl.LavaletteParams(k=1, b=0.8, n=30)))
        assert rep.params.b == pytest.approx(0.8, abs=1e-10)

    def test_lavalette_fits_equal_exponent_beta_data(self):
        rep = rl.fit_lavalette(rl.curve(rl.BetaLikeParams(k=1, a=0.3, b=0.3, n=30)))
        assert rep.params.b == pytest.approx(0.3, abs=1e-10)

    def test_mandelbrot_noiseless_round_trip(self):
        rep = rl.fit_mandelbrot(rl.curve(rl.MandelbrotParams(rho=2.0, epsilon=0.3, n=50)))
        assert rep.params.rho == pytest.approx(2.0, abs=1e-4)
        assert rep.params.epsilon == pytest.approx(0.3, abs=1e-6)
        assert rep.warnings == ()

    def test_mandelbrot_plain_inverse_rank(self):
        rep = rl.fit_mandelbrot(rl.curve(rl.MandelbrotParams(rho=0, epsilon=0, n=10)))
        assert rep.log_sse <= 1e-20


class TestConstantSeries:
    CONSTANT = rl.RankedSeries(np.full(4, 7.5))

    # Exponents of a constant series are exact zeros; a -0.0 would print as
    # "-0.0000" and serialize as -0.0.
    def test_beta_like_fits_constant_exactly(self):
        rep = rl.fit_beta_like(self.CONSTANT)
        assert rep.params.a == pytest.approx(0.0, abs=1e-12)
        assert rep.params.b == pytest.approx(0.0, abs=1e-12)
        assert math.copysign(1.0, rep.params.a) == math.copysign(1.0, rep.params.b) == 1.0
        assert rep.params.k == pytest.approx(7.5, rel=1e-12)
        assert rep.r_squared == 1.0

    def test_zipf_fits_constant(self):
        rep = rl.fit_zipf(self.CONSTANT)
        assert rep.params.alpha == pytest.approx(0.0, abs=1e-12)
        assert math.copysign(1.0, rep.params.alpha) == 1.0
        assert rep.params.k == pytest.approx(7.5, rel=1e-12)
        assert rep.r_squared == 1.0

    def test_lavalette_fits_constant(self):
        rep = rl.fit_lavalette(self.CONSTANT)
        assert rep.params.b == pytest.approx(0.0, abs=1e-12)
        assert math.copysign(1.0, rep.params.b) == 1.0
        assert rep.r_squared == 1.0


class TestRSquared:
    def test_exact_curve_gives_one(self):
        params = rl.LavaletteParams(k=2, b=0.6, n=12)
        assert rl.r_squared_log(rl.curve(params), params) == 1.0

    def test_constant_convention_perfect(self):
        series = rl.RankedSeries(np.full(5, 3.0))
        fitted = rl.ZipfParams(k=3.0, alpha=0.0)
        assert rl.r_squared_log(series, fitted) == 1.0

    def test_constant_convention_imperfect(self):
        series = rl.RankedSeries(np.full(5, 3.0))
        fitted = rl.ZipfParams(k=3.0, alpha=1.0)
        assert rl.r_squared_log(series, fitted) == 0.0

    def test_hand_oracle(self):
        # observed (4, 2, 1) against K=4, alpha=1 (model values 4, 2, 4/3):
        # only rank 3 has a residual, log(1) - log(4/3).
        series = rl.RankedSeries(np.array([4.0, 2.0, 1.0]))
        sse = (math.log(1.0) - math.log(4.0 / 3.0)) ** 2
        logs = [math.log(v) for v in (4.0, 2.0, 1.0)]
        mean = sum(logs) / 3
        sst = sum((v - mean) ** 2 for v in logs)
        expected = 1.0 - sse / sst
        got = rl.r_squared_log(series, rl.ZipfParams(k=4, alpha=1))
        assert got == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9138719370961819, abs=1e-15)

    def test_length_mismatch_rejected(self):
        series = rl.RankedSeries(np.array([4.0, 2.0, 1.0]))
        with pytest.raises(rl.ValidationError, match="match"):
            rl.r_squared_log(series, rl.LavaletteParams(k=1, b=1, n=5))

    def test_zipf_exempt_from_length_check(self):
        series = rl.RankedSeries(np.array([4.0, 2.0, 1.0]))
        assert rl.r_squared_log(series, rl.ZipfParams(k=4, alpha=1)) <= 1.0


class TestReportInvariants:
    def test_report_internally_consistent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            series = random_series(rng)
            for fitter in (rl.fit_zipf, rl.fit_lavalette, rl.fit_beta_like, rl.fit_mandelbrot):
                rep = fitter(series)
                assert rep.r_squared <= 1.0
                assert rep.n == series.n
                assert rep.log_sse == pytest.approx(float(rep.residuals @ rep.residuals), rel=1e-12)
                expected = np.log(series.values) - np.log(
                    [rl.evaluate(rep.params, r) for r in range(1, series.n + 1)]
                )
                assert np.allclose(rep.residuals, expected, atol=1e-12)

    def test_fit_is_deterministic(self):
        series = rl.generate_synthetic(rl.BetaLikeParams(k=1, a=0.4, b=0.9, n=40), rl.NoiseSpec(sigma=0.1, seed=3))
        one, two = rl.fit_mandelbrot(series), rl.fit_mandelbrot(series)
        assert one.params == two.params
        assert one.r_squared == two.r_squared

    def test_insufficient_data_errors(self):
        three = rl.RankedSeries(np.array([3.0, 2.0, 1.0]))
        two = rl.RankedSeries(np.array([3.0, 2.0]))
        with pytest.raises(rl.InsufficientDataError):
            rl.fit_zipf(two)
        with pytest.raises(rl.InsufficientDataError):
            rl.fit_lavalette(two)
        with pytest.raises(rl.InsufficientDataError):
            rl.fit_mandelbrot(two)
        with pytest.raises(rl.InsufficientDataError):
            rl.fit_beta_like(three)
        with pytest.raises(rl.InsufficientDataError):
            rl.compare_models(three)

    def test_minimum_lengths_accepted(self):
        three = rl.RankedSeries(np.array([3.0, 2.0, 1.0]))
        four = rl.RankedSeries(np.array([4.0, 3.0, 2.0, 1.0]))
        rl.fit_zipf(three)
        rl.fit_lavalette(three)
        rl.fit_mandelbrot(three)
        rl.fit_beta_like(four)
        rl.compare_models(four)

    @pytest.mark.parametrize("values", [
        [1e300, 2.0**60, 12345.0, 3.5, 1.0, 0.1, 1e-310],  # the fitted law overflows at the low ranks
        [1.7e308, 1.6e308, 1.5e308, 1e-300],  # the fitted K overflows
    ])
    def test_overflowing_law_is_fit_error(self, values):
        series = rl.RankedSeries(np.array(values))
        with pytest.raises(rl.FitError, match=r"^zipf fit is not finite"):
            rl.fit_zipf(series)
        with pytest.raises(rl.FitError, match=r"^zipf: zipf fit is not finite"):
            rl.compare_models(series)

    def test_fit_model_dispatch(self):
        series = rl.curve(rl.ZipfParams(k=2, alpha=1.0), n=10)
        assert rl.fit_model(series, "zipf").params == rl.fit_zipf(series).params
        with pytest.raises(rl.ValidationError, match="unknown model"):
            rl.fit_model(series, "weibull")


class TestOlsProperties:
    def test_nested_dominance(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            series = random_series(rng)
            beta = rl.fit_beta_like(series)
            zipf = rl.fit_zipf(series)
            lavalette = rl.fit_lavalette(series)
            assert beta.r_squared >= max(zipf.r_squared, lavalette.r_squared) - 1e-9
            assert beta.log_sse <= zipf.log_sse + 1e-9
            assert beta.log_sse <= lavalette.log_sse + 1e-9

    def test_scale_equivariance_of_k_models(self):
        # The mandelbrot law has no scale factor (f(N) = 1 by construction),
        # so equivariance applies to the three laws that carry K.
        rng = np.random.default_rng(13)
        for _ in range(25):
            series = random_series(rng)
            for c in (1e-3, 1e3):
                scaled = rl.RankedSeries(series.values * c)
                for fitter in (rl.fit_zipf, rl.fit_lavalette, rl.fit_beta_like):
                    base, shifted = fitter(series), fitter(scaled)
                    assert shifted.params.k == pytest.approx(base.params.k * c, rel=1e-10)
                    if isinstance(base.params, rl.ZipfParams):
                        assert shifted.params.alpha == pytest.approx(base.params.alpha, abs=1e-10)
                    elif isinstance(base.params, rl.LavaletteParams):
                        assert shifted.params.b == pytest.approx(base.params.b, abs=1e-10)
                    else:
                        assert shifted.params.a == pytest.approx(base.params.a, abs=1e-10)
                        assert shifted.params.b == pytest.approx(base.params.b, abs=1e-10)
                    assert shifted.r_squared == pytest.approx(base.r_squared, abs=1e-10)
                    assert np.allclose(shifted.residuals, base.residuals, atol=1e-10)

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            series = random_series(rng)
            n = series.n
            ranks = np.arange(1.0, n + 1.0)
            log_rank = np.log(ranks)
            log_depl = np.log(n + 1.0 - ranks)
            ones = np.ones(n)
            cases = [
                (rl.fit_zipf(series), (ones, log_rank)),
                (rl.fit_lavalette(series), (ones, log_depl - log_rank)),
                (rl.fit_beta_like(series), (ones, log_depl, log_rank)),
            ]
            for rep, columns in cases:
                for column in columns:
                    assert abs(float(rep.residuals @ column)) <= 1e-9

    def test_reflection_duality_on_palindromic_fixture(self):
        # The only non-increasing palindromic series are constant ones, where
        # the reversed series is identical and a, b swap as zeros.
        series = rl.RankedSeries(np.full(6, 2.5))
        rep = rl.fit_beta_like(series)
        reversed_rep = rl.fit_beta_like(rl.RankedSeries(series.values[::-1]))
        assert rep.params.a == pytest.approx(reversed_rep.params.b, abs=1e-12)
        assert rep.params.b == pytest.approx(reversed_rep.params.a, abs=1e-12)

    def test_mandelbrot_no_worse_than_bracket_endpoints(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            series = random_series(rng)
            rep = rl.fit_mandelbrot(series)
            y = np.log(series.values)
            for rho in (0.0, 10.0 * series.n):
                assert rep.log_sse <= accel.mandelbrot_profile(y, rho)[1] + 1e-9

    def test_mandelbrot_search_ends_on_large_series(self, monkeypatch):
        # Near rho = 10 N float spacing exceeds the absolute tolerance; the
        # search must still end. Raising past the cap turns a hang into a failure.
        series = rl.generate_synthetic(
            rl.BetaLikeParams(k=0.0273, a=0.4058, b=0.991, n=200_000), rl.NoiseSpec(sigma=0.1, seed=1)
        )
        profile, calls = accel.mandelbrot_profile, []

        def counted(y, rho):
            calls.append(rho)
            assert len(calls) < 100, "rho search did not end within 100 profile calls"
            return profile(y, rho)

        monkeypatch.setattr(accel, "mandelbrot_profile", counted)
        start = time.perf_counter()
        rep = rl.fit_mandelbrot(series)
        assert time.perf_counter() - start < 20.0
        assert math.isfinite(rep.params.rho)

    def test_mandelbrot_bracket_edge_warning(self):
        # A strongly tail-bent series pushes rho to the top of the bracket.
        series = rl.curve(rl.BetaLikeParams(k=0.0273, a=0.4058, b=0.991, n=100))
        rep = rl.fit_mandelbrot(series)
        assert any("bracket edge" in w for w in rep.warnings)


class TestCompareModels:
    def test_beta_like_wins_on_two_exponent_data(self):
        series = rl.generate_synthetic(
            rl.BetaLikeParams(k=1.0, a=0.45, b=0.9, n=120), rl.NoiseSpec(sigma=0.02, seed=5)
        )
        comp = rl.compare_models(series)
        assert comp.best_by_r2 == "beta-like"
        assert comp.nesting_ok is True

    def test_zipf_data_resolves_tie_to_zipf(self):
        series = rl.curve(rl.ZipfParams(k=3.0, alpha=1.2), n=40)
        comp = rl.compare_models(series)
        beta = comp.report("beta-like")
        assert abs(beta.params.b) <= 1e-8
        assert beta.r_squared == comp.report("zipf").r_squared
        assert comp.best_by_r2 == "zipf"
        assert comp.nesting_ok is True

    def test_lavalette_data_resolves_tie_to_lavalette(self):
        series = rl.curve(rl.LavaletteParams(k=2.0, b=0.7, n=40))
        comp = rl.compare_models(series)
        assert comp.report("lavalette").r_squared == comp.report("beta-like").r_squared == 1.0
        assert comp.best_by_r2 == "lavalette"

    def test_constant_unit_data_ties_all_models(self):
        comp = rl.compare_models(rl.RankedSeries(np.full(6, 1.0)))
        assert [rep.r_squared for rep in comp.reports] == [1.0, 1.0, 1.0, 1.0]
        assert comp.best_by_r2 == "zipf"
        assert comp.nesting_ok is True

    def test_constant_scaled_data_still_selects_zipf(self):
        # The mandelbrot law is pinned at f(N) = 1, so it cannot reproduce a
        # constant series at any other level; the K-bearing models still tie.
        comp = rl.compare_models(rl.RankedSeries(np.full(6, 3.0)))
        assert comp.report("mandelbrot").r_squared == 0.0
        assert comp.report("zipf").r_squared == 1.0
        assert comp.best_by_r2 == "zipf"

    def test_reports_in_catalog_order(self):
        comp = rl.compare_models(rl.RankedSeries(np.array([4.0, 3.0, 2.0, 1.0])))
        assert tuple(rep.model for rep in comp.reports) == rl.MODEL_TAGS
