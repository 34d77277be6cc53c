"""The four laws: direct evaluation, tabulation, and the nesting identities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

import ranklaws as rl
from ranklaws import cli, models
from conftest import random_beta_like, random_lavalette, random_mandelbrot, random_zipf, ulp_diff


class TestEvaluate:
    def test_beta_like_direct_substitution(self):
        assert rl.evaluate(rl.BetaLikeParams(k=1, a=1, b=1, n=3), 1) == 3.0

    def test_beta_like_at_last_rank(self):
        # At r = n the numerator term is 1^b = 1, so f(n) = k * n^(-a).
        params = rl.BetaLikeParams(k=0.0273, a=0.4058, b=0.991, n=100)
        expected = 0.0273 * 100.0 ** (-0.4058)
        assert expected == pytest.approx(0.004212720509245773, rel=1e-15)
        assert rl.evaluate(params, 100) == pytest.approx(expected, rel=1e-14)

    def test_zipf_zero_exponent_is_constant(self):
        assert rl.evaluate(rl.ZipfParams(k=5, alpha=0), 17) == 5.0

    def test_lavalette_direct_substitution(self):
        assert rl.evaluate(rl.LavaletteParams(k=2, b=1, n=5), 5) == 0.4

    def test_zipf_any_rank_above_one(self):
        assert rl.evaluate(rl.ZipfParams(k=2, alpha=1), 4) == 0.5

    @pytest.mark.parametrize("rank, message", [
        (0, "rank must be >= 1, got 0"),
        (-3, "rank must be >= 1, got -3"),
        (101, "rank 101 outside valid range 1..100"),
    ], ids=["0", "-3", "101"])
    def test_rank_outside_range_rejected(self, rank, message):
        params = rl.BetaLikeParams(k=1, a=0.5, b=0.5, n=100)
        with pytest.raises(rl.ValidationError) as info:
            rl.evaluate(params, rank)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: rl.evaluate(rl.ZipfParams(k=1, alpha=1), 2**53 + 1),
             f"rank must be at most 2**53, got {2**53 + 1}"),
            (lambda: rl.evaluate(rl.ZipfParams(k=1, alpha=1), 2**1100),  # past float conversion
             f"rank must be at most 2**53, got {2**1100}"),
            (lambda: rl.evaluate(rl.MandelbrotParams(rho=0, epsilon=0, n=10**400), 5),
             f"n must be at most 2**53, got {10**400}"),
            (lambda: rl.evaluate(rl.LavaletteParams(k=1, b=1, n=2**53 + 1), 1),
             f"n must be at most 2**53, got {2**53 + 1}"),
        ],
        ids=["zipf-rank-2**53+1", "zipf-rank-2**1100", "mandelbrot-n-10**400", "lavalette-n-2**53+1"],
    )
    def test_ranks_and_lengths_past_exact_doubles_rejected(self, call, message):
        # Past 2**53 not every integer is a double, so ranks and N+1-r would round;
        # a law with such an n is rejected when it is built.
        with pytest.raises(rl.ValidationError) as info:
            call()
        assert str(info.value) == message

    def test_largest_exact_rank_accepted(self):
        assert rl.evaluate(rl.ZipfParams(k=1, alpha=1), 2**53) == 2.0**-53

    def test_zipf_rank_must_be_positive(self):
        with pytest.raises(rl.ValidationError) as info:
            rl.evaluate(rl.ZipfParams(k=1, alpha=1), 0)
        assert str(info.value) == "rank must be >= 1, got 0"

    def test_rank_must_be_integer(self):
        with pytest.raises(rl.ValidationError) as info:
            rl.evaluate(rl.ZipfParams(k=1, alpha=1), 2.0)
        assert str(info.value) == "rank must be an integer, got 2.0"

    def test_numpy_integer_rank_accepted(self):
        assert rl.evaluate(rl.ZipfParams(k=1, alpha=1), np.int64(2)) == 0.5

    @pytest.mark.parametrize(
        "make, rank",
        [
            (lambda: rl.ZipfParams(k=1, alpha=-400), 10),  # 1 / 10^-400: the divisor underflows to zero
            (lambda: rl.BetaLikeParams(k=1, a=0, b=400, n=20), 1),
            (lambda: rl.MandelbrotParams(rho=0, epsilon=400, n=20), 1),
            (lambda: rl.ZipfParams(k=1, alpha=400), 10),  # underflows to 0.0
            (lambda: rl.ZipfParams(k=1, alpha=np.float64(-400)), 10),  # numpy divides by zero with a warning
        ],
        ids=["params0-10", "params1-1", "params2-1", "params3-10", "params4-10"],
    )
    def test_value_outside_double_range_rejected(self, make, rank):
        params = make()
        with pytest.raises(rl.ValidationError, match=f"^{params.model} value at rank {rank} "):
            rl.evaluate(params, rank)


class TestCurve:
    def test_beta_like_b_zero_is_inverse_rank(self):
        series = rl.curve(rl.BetaLikeParams(k=1, a=1, b=0, n=4))
        assert series.values.tolist() == [1.0, 1 / 2, 1 / 3, 1 / 4]

    def test_lavalette_three_points(self):
        series = rl.curve(rl.LavaletteParams(k=1, b=1, n=3))
        assert series.values.tolist() == [3.0, 1.0, 1 / 3]

    def test_mandelbrot_reduces_to_n_over_r(self):
        series = rl.curve(rl.MandelbrotParams(rho=0, epsilon=0, n=4))
        assert series.values.tolist() == [4.0, 2.0, 4 / 3, 1.0]

    def test_zipf_needs_explicit_length(self):
        with pytest.raises(rl.ValidationError, match="explicit length"):
            rl.curve(rl.ZipfParams(k=1, alpha=1))

    def test_length_defaults_to_params_n(self):
        params = rl.LavaletteParams(k=1, b=1, n=3)
        assert rl.model_values(params).tolist() == rl.model_values(params, 3).tolist() == [3.0, 1.0, 1 / 3]

    @pytest.mark.parametrize("tabulate", [
        rl.model_values,
        rl.curve,
        lambda params: rl.generate_synthetic(params, rl.NoiseSpec()),
    ], ids=["model_values", "curve", "generate_synthetic"])
    def test_zipf_length_rule_has_one_text(self, tabulate):
        with pytest.raises(rl.ValidationError) as info:
            tabulate(rl.ZipfParams(k=1, alpha=1))
        assert str(info.value) == "zipf needs an explicit length n"

    @pytest.mark.parametrize("tabulate", [
        rl.model_values,
        rl.curve,
        lambda params, n: rl.generate_synthetic(params, rl.NoiseSpec(), n=n),
    ], ids=["model_values", "curve", "generate_synthetic"])
    @pytest.mark.parametrize("n", [3.5, 3.0, True])
    def test_non_integer_length_rejected(self, tabulate, n):
        with pytest.raises(rl.ValidationError) as info:
            tabulate(rl.ZipfParams(k=1, alpha=1), n)
        assert str(info.value) == f"n must be an integer, got {n!r}"

    def test_numpy_integer_length_accepted(self):
        params = rl.LavaletteParams(k=1, b=1, n=np.int64(3))
        assert rl.model_values(params).tolist() == rl.model_values(params, np.int32(3)).tolist() == [3.0, 1.0, 1 / 3]

    @pytest.mark.parametrize("make, n, size", [
        (lambda: rl.ZipfParams(k=1, alpha=1), 2**53 + 1, 2**53 + 1),
        (lambda: rl.ZipfParams(k=1, alpha=1), 10**23, 10**23),
        (lambda: rl.BetaLikeParams(k=1, a=1, b=1, n=10**23), None, 10**23),
        (lambda: rl.MandelbrotParams(rho=0, epsilon=0, n=10**400), None, 10**400),
    ], ids=["zipf-2**53+1", "zipf-10**23", "beta-like-10**23", "mandelbrot-10**400"])
    def test_length_past_exact_doubles_rejected(self, make, n, size):
        # Rejected before numpy is asked for the array; a law carrying such
        # an n is rejected when it is built.
        message = f"n must be at most 2**53, got {size}"
        for tabulate in (rl.model_values, rl.curve):
            with pytest.raises(rl.ValidationError) as info:
                tabulate(make(), n)
            assert str(info.value) == message
        with pytest.raises(rl.ValidationError) as info:
            rl.generate_synthetic(make(), rl.NoiseSpec(), n=n)
        assert str(info.value) == message

    def test_zero_length_rejected(self):
        with pytest.raises(rl.ValidationError) as info:
            rl.curve(rl.ZipfParams(k=1, alpha=1), n=0)
        assert str(info.value) == "n must be >= 1, got 0"

    def test_mismatched_length_rejected(self):
        with pytest.raises(rl.ValidationError, match="does not match"):
            rl.curve(rl.LavaletteParams(k=1, b=1, n=3), n=5)

    def test_increasing_params_cannot_form_series(self):
        with pytest.raises(rl.ValidationError, match="non-increasing"):
            rl.curve(rl.ZipfParams(k=1, alpha=-1), n=5)

    @pytest.mark.parametrize("make, rank", [
        (lambda: rl.ZipfParams(k=1, alpha=-400), 6),
        (lambda: rl.ZipfParams(k=1, alpha=400), 6),
        (lambda: rl.MandelbrotParams(rho=-0.999, epsilon=300, n=20), 1),
    ], ids=["params0-6", "params1-6", "params2-1"])
    def test_values_outside_double_range_rejected(self, make, rank):
        # The first rank that leaves double range is named, with evaluate's
        # text; no numpy warning escapes.
        params = make()
        with pytest.raises(rl.ValidationError) as info:
            rl.curve(params, n=20)
        assert str(info.value) == f"{params.model} value at rank {rank} is outside the double range for {params!r}"

    def test_matches_evaluate_pointwise(self):
        # evaluate and model_values share one float64 path: the same bits
        # wherever the value is a positive double, an error everywhere else.
        cases = [
            (rl.BetaLikeParams(k=0.5, a=0.7, b=1.2, n=25), set()),
            (rl.ZipfParams(k=1, alpha=400), set(range(6, 26))),  # r^400 overflows, so f is 0
            (rl.ZipfParams(k=1, alpha=-400), set(range(6, 26))),  # f overflows
            (rl.MandelbrotParams(rho=-0.999, epsilon=300, n=20), {1, 2}),  # f overflows at the head
        ]
        for params, outside in cases:
            with np.errstate(all="ignore"):
                table = rl.model_values(params, getattr(params, "n", 25)).tolist()
            assert {rank for rank, value in enumerate(table, 1) if not 0.0 < value < math.inf} == outside
            for rank, value in enumerate(table, 1):
                if rank in outside:
                    with pytest.raises(rl.ValidationError, match=f"^{params.model} value at rank {rank} "):
                        rl.evaluate(params, rank)
                else:
                    assert rl.evaluate(params, rank) == value


class TestNestingIdentities:
    def test_b_zero_equals_zipf_exactly(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            zipf = random_zipf(rng)
            n = int(rng.integers(1, 60))
            beta = rl.BetaLikeParams(k=zipf.k, a=zipf.alpha, b=0.0, n=n)
            for r in range(1, n + 1):
                assert rl.evaluate(beta, r) == rl.evaluate(zipf, r)
            assert np.array_equal(rl.model_values(beta, n), rl.model_values(zipf, n))

    def test_a_equals_b_matches_lavalette(self):
        # Contract allows 2 ulps; the shared expression shape makes the
        # reduction exact, so assert the stronger bit equality.
        rng = np.random.default_rng(202)
        for _ in range(50):
            lav = random_lavalette(rng, int(rng.integers(1, 60)))
            beta = rl.BetaLikeParams(k=lav.k, a=lav.b, b=lav.b, n=lav.n)
            for r in range(1, lav.n + 1):
                assert rl.evaluate(beta, r) == rl.evaluate(lav, r)
            assert np.array_equal(rl.model_values(beta, lav.n), rl.model_values(lav, lav.n))

    def test_reflection_swaps_negated_exponents(self):
        # Substituting r -> n+1-r in k (n+1-r)^b / r^a gives k r^b / (n+1-r)^a,
        # i.e. the law with exponents swapped AND negated.
        rng = np.random.default_rng(303)
        for _ in range(50):
            beta = random_beta_like(rng, int(rng.integers(1, 40)))
            mirrored = rl.BetaLikeParams(k=beta.k, a=-beta.b, b=-beta.a, n=beta.n)
            for r in range(1, beta.n + 1):
                lhs = rl.evaluate(beta, r)
                rhs = rl.evaluate(mirrored, beta.n + 1 - r)
                assert ulp_diff(lhs, rhs) <= 4

    def test_all_evaluations_finite_and_positive(self):
        rng = np.random.default_rng(404)
        for _ in range(25):
            n = int(rng.integers(1, 50))
            for params in (
                random_zipf(rng),
                random_mandelbrot(rng, n),
                random_lavalette(rng, n),
                random_beta_like(rng, n),
            ):
                values = rl.model_values(params, n)
                assert np.all(np.isfinite(values))
                assert np.all(values > 0)


class TestParamValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: rl.ZipfParams(k=0, alpha=1),
            lambda: rl.ZipfParams(k=-1, alpha=1),
            lambda: rl.ZipfParams(k=math.nan, alpha=1),
            lambda: rl.ZipfParams(k=1, alpha=math.inf),
            lambda: rl.MandelbrotParams(rho=-1.0, epsilon=0, n=5),
            lambda: rl.MandelbrotParams(rho=0, epsilon=0, n=0),
            lambda: rl.LavaletteParams(k=0, b=1, n=5),
            lambda: rl.BetaLikeParams(k=1, a=1, b=math.nan, n=5),
            lambda: rl.BetaLikeParams(k=1, a=1, b=1, n=0),
        ],
    )
    def test_invalid_params_rejected(self, build):
        with pytest.raises(rl.ValidationError):
            build()

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: rl.ZipfParams(k=0.0, alpha=1), "k must be finite and > 0, got 0.0"),
            (lambda: rl.MandelbrotParams(rho=-1.0, epsilon=0, n=5), "rho must be finite and > -1, got -1.0"),
            (lambda: rl.LavaletteParams(k=1, b=1, n=0), "n must be >= 1, got 0"),
            (lambda: rl.ZipfParams(k=1, alpha=math.inf), "alpha must be finite, got inf"),
            (lambda: rl.BetaLikeParams(k=1, a=math.nan, b=1, n=5), "a must be finite, got nan"),
        ],
    )
    def test_field_rule_messages(self, build, message):
        with pytest.raises(rl.ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_params_are_immutable(self):
        params = rl.ZipfParams(k=1, alpha=1)
        with pytest.raises(Exception):
            params.k = 2.0


HUGE = 10**5000  # more digits than Python writes in decimal by default


class TestIntsPastDecimalLimit:
    """Texts name an int Python will not write in decimal by its size."""

    @pytest.mark.parametrize("call, message", [
        (lambda: rl.evaluate(rl.ZipfParams(k=1, alpha=1), HUGE),
         "rank must be at most 2**53, got <int of 16610 bits>"),
        (lambda: rl.evaluate(rl.ZipfParams(k=1, alpha=1), -HUGE),
         "rank must be >= 1, got <negative int of 16610 bits>"),
        (lambda: rl.evaluate(rl.MandelbrotParams(rho=0, epsilon=0, n=HUGE), 5),
         "n must be at most 2**53, got <int of 16610 bits>"),
        (lambda: rl.evaluate(rl.MandelbrotParams(rho=0, epsilon=0, n=5), HUGE),
         "rank must be at most 2**53, got <int of 16610 bits>"),
        (lambda: rl.model_values(rl.MandelbrotParams(rho=0, epsilon=0, n=HUGE)),
         "n must be at most 2**53, got <int of 16610 bits>"),
        (lambda: rl.model_values(rl.MandelbrotParams(rho=0, epsilon=0, n=HUGE), 5),
         "n must be at most 2**53, got <int of 16610 bits>"),
        (lambda: rl.model_values(rl.ZipfParams(k=1, alpha=1), -HUGE),
         "n must be >= 1, got <negative int of 16610 bits>"),
        (lambda: rl.MandelbrotParams(rho=0, epsilon=0, n=-HUGE), "n must be >= 1, got <negative int of 16610 bits>"),
        # A float field given an int past double range fails its rule
        # rather than raising OverflowError from math.isfinite.
        (lambda: rl.ZipfParams(k=10**400, alpha=1), "k must be finite and > 0, got " + str(10**400)),
        (lambda: rl.ZipfParams(k=1, alpha=-HUGE), "alpha must be finite, got <negative int of 16610 bits>"),
    ], ids=["zipf-rank", "zipf-negative-rank", "mandelbrot-n", "mandelbrot-rank", "model-values-n",
            "model-values-mismatch", "model-values-negative", "negative-n", "k-past-double", "alpha"])
    def test_validation_error_text(self, call, message):
        with pytest.raises(rl.ValidationError) as info:
            call()
        assert str(info.value) == message

    def test_repr(self):
        # A law with a huge n is never built, so it never needs a repr.
        with pytest.raises(rl.ValidationError) as info:
            rl.MandelbrotParams(rho=0, epsilon=0, n=HUGE)
        assert str(info.value) == "n must be at most 2**53, got <int of 16610 bits>"
        assert repr(rl.MandelbrotParams(rho=0, epsilon=0, n=2**53)) == (
            "MandelbrotParams(rho=0, epsilon=0, n=9007199254740992)"
        )

    def test_texts_up_to_2_64_unchanged(self):
        with pytest.raises(rl.ValidationError) as info:
            rl.BetaLikeParams(k=1.5, a=0.25, b=-3, n=2**64)
        assert str(info.value) == "n must be at most 2**53, got 18446744073709551616"
        assert repr(rl.BetaLikeParams(k=1.5, a=0.25, b=-3, n=2**53)) == (
            "BetaLikeParams(k=1.5, a=0.25, b=-3, n=9007199254740992)"
        )
        assert repr(rl.ZipfParams(k=np.float64(2.0), alpha=1)) == f"ZipfParams(k={np.float64(2.0)!r}, alpha=1)"
        with pytest.raises(rl.ValidationError) as info:
            rl.evaluate(rl.ZipfParams(k=1, alpha=1), 2**64)
        assert str(info.value) == "rank must be at most 2**53, got 18446744073709551616"


@dataclass(frozen=True)
class FlatParams(models._Law):
    """Zipf under another tag: a law without n declared in its dataclass alone."""

    k: float
    alpha: float

    model: ClassVar[str] = "flat"
    exponents: ClassVar[dict[str, tuple[int, int]]] = models.ZipfParams.exponents


class TestLawWithoutLength:
    """A new law without n needs no edit outside its own dataclass."""

    flat = FlatParams(k=2.0, alpha=0.7)
    zipf = rl.ZipfParams(k=2.0, alpha=0.7)

    def test_parameters_in_field_order(self):
        assert [law.parameters() for law in models.LAWS.values()] == [
            ("k", "alpha"), ("rho", "epsilon"), ("k", "b"), ("k", "a", "b"),
        ]
        assert FlatParams.parameters() == ("k", "alpha")

    def test_tabulates_as_zipf(self):
        assert rl.model_values(self.flat, 9).tobytes() == rl.model_values(self.zipf, 9).tobytes()
        assert rl.evaluate(self.flat, 10**6) == rl.evaluate(self.zipf, 10**6)

    def test_length_error_names_the_law(self):
        with pytest.raises(rl.ValidationError) as info:
            rl.model_values(self.flat)
        assert str(info.value) == "flat needs an explicit length n"

    def test_fits_as_zipf(self, monkeypatch):
        monkeypatch.setitem(models.LAWS, "flat", FlatParams)
        series = rl.generate_synthetic(self.zipf, rl.NoiseSpec(sigma=0.1, seed=3), n=50)
        flat, zipf = rl.fit_model(series, "flat"), rl.fit_zipf(series)
        assert (flat.params.k, flat.params.alpha, flat.log_sse) == (zipf.params.k, zipf.params.alpha, zipf.log_sse)
        with pytest.raises(rl.InsufficientDataError) as info:
            rl.fit_model(rl.RankedSeries([2.0, 1.0]), "flat")
        assert str(info.value) == "flat fit needs at least 3 values, got 2"

    def test_summary_text(self):
        assert cli._format_params(self.flat) == "K=2.0000 alpha=0.7000"
