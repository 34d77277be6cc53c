"""The field rules every params and config dataclass is checked against."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

import ranklaws as rl
from ranklaws.errors import _RULES, Checked

CHECKED = (rl.ZipfParams, rl.MandelbrotParams, rl.LavaletteParams, rl.BetaLikeParams,
           rl.NoiseSpec, rl.SimonConfig, rl.IngestOptions)
# Law exponents, which only have to be finite.
FINITE_ONLY = {"alpha", "a", "b", "epsilon"}


@pytest.mark.parametrize("make, message", [
    (lambda: rl.ZipfParams(k=0, alpha=1), "k must be finite and > 0, got 0"),
    (lambda: rl.MandelbrotParams(rho=-1.5, epsilon=0, n=5), "rho must be finite and > -1, got -1.5"),
    (lambda: rl.LavaletteParams(k=1, b=1, n=2.5), "n must be an integer, got 2.5"),
    (lambda: rl.BetaLikeParams(k=1, a=1, b=1, n=0), "n must be >= 1, got 0"),
    (lambda: rl.MandelbrotParams(rho=0, epsilon=float("inf"), n=5), "epsilon must be finite, got inf"),
    (lambda: rl.NoiseSpec(sigma=-0.1), "sigma must be finite and >= 0, got -0.1"),
    (lambda: rl.SimonConfig(p_new=1.0, steps=10), "p_new must lie strictly inside (0, 1), got 1.0"),
    (lambda: rl.SimonConfig(p_new=0.5, steps=0), "steps must be >= 1, got 0"),
    (lambda: rl.SimonConfig(p_new=0.5, steps=2**53 + 1), "steps must be at most 2**53, got 9007199254740993"),
    (lambda: rl.NoiseSpec(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: rl.SimonConfig(p_new=0.5, steps=3, seed=2**64),
     "seed must fit in 64 unsigned bits, got 18446744073709551616"),
    (lambda: rl.IngestOptions(mode="ranked"), "mode must be 'raw' or 'pre-ranked', got 'ranked'"),
    (lambda: rl.IngestOptions(zero_policy="keep"), "zero_policy must be 'reject' or 'drop', got 'keep'"),
    (lambda: rl.IngestOptions(delimiter="ab"), "delimiter must be a single printable character or tab, got 'ab'"),
    (lambda: rl.IngestOptions(delimiter='"'), "delimiter must not be the quote character '\"', got '\"'"),
    (lambda: rl.IngestOptions(delimiter="."), "delimiter must not occur in numbers: a digit or one of '.+-eE_', got '.'"),
], ids=["k", "rho", "n-integer", "n-positive", "exponent", "sigma", "p_new", "steps-positive", "steps-exact",
        "seed-integer", "seed-64-bits", "mode", "zero_policy", "delimiter", "delimiter-quote", "delimiter-number"])
def test_rule_text(make, message):
    with pytest.raises(rl.ValidationError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make, message", [
    (lambda: rl.ZipfParams(k="1", alpha=1), "k must be finite and > 0, got '1'"),
    (lambda: rl.ZipfParams(k=None, alpha=1), "k must be finite and > 0, got None"),
    (lambda: rl.BetaLikeParams(k=1, a=1j, b=1, n=5), "a must be finite, got 1j"),
    (lambda: rl.LavaletteParams(k=1, b=1, n=True), "n must be an integer, got True"),
    (lambda: rl.ZipfParams(k=True, alpha=False), "k must be finite and > 0, got True"),
    (lambda: rl.ZipfParams(k=1, alpha=False), "alpha must be finite, got False"),
    (lambda: rl.MandelbrotParams(rho=False, epsilon=True, n=3), "rho must be finite and > -1, got False"),
    (lambda: rl.NoiseSpec(sigma=True), "sigma must be finite and >= 0, got True"),
    (lambda: rl.NoiseSpec(seed=True), "seed must be an integer, got True"),
    (lambda: rl.SimonConfig(p_new=True, steps=3), "p_new must lie strictly inside (0, 1), got True"),
    (lambda: rl.IngestOptions(delimiter=5), "delimiter must be a single printable character or tab, got 5"),
    (lambda: rl.IngestOptions(delimiter=None), "delimiter must be a single printable character or tab, got None"),
], ids=["k-str", "k-none", "a-complex", "n-bool", "k-bool", "alpha-bool", "rho-bool", "sigma-bool", "seed-bool",
        "p_new-bool", "delimiter-int", "delimiter-none"])
def test_wrong_type_is_validation_error(make, message):
    with pytest.raises(rl.ValidationError) as info:
        make()
    assert str(info.value) == message


# One valid instance per class with float fields; each float field is swapped for a bool below.
FLOAT_FIELDS = [
    (rl.ZipfParams(k=1.0, alpha=1.0), "k", "be finite and > 0"),
    (rl.ZipfParams(k=1.0, alpha=1.0), "alpha", "be finite"),
    (rl.MandelbrotParams(rho=0.0, epsilon=0.0, n=3), "rho", "be finite and > -1"),
    (rl.MandelbrotParams(rho=0.0, epsilon=0.0, n=3), "epsilon", "be finite"),
    (rl.LavaletteParams(k=1.0, b=1.0, n=3), "k", "be finite and > 0"),
    (rl.LavaletteParams(k=1.0, b=1.0, n=3), "b", "be finite"),
    (rl.BetaLikeParams(k=1.0, a=1.0, b=1.0, n=3), "k", "be finite and > 0"),
    (rl.BetaLikeParams(k=1.0, a=1.0, b=1.0, n=3), "a", "be finite"),
    (rl.BetaLikeParams(k=1.0, a=1.0, b=1.0, n=3), "b", "be finite"),
    (rl.NoiseSpec(), "sigma", "be finite and >= 0"),
]


@pytest.mark.parametrize("instance, name, rule", FLOAT_FIELDS,
                         ids=[f"{type(inst).__name__}.{name}" for inst, name, _ in FLOAT_FIELDS])
@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
def test_float_field_rejects_bool(instance, name, rule, flag):
    # A bool passes math.isfinite and compares as 0 or 1, so the check rejects it before any rule.
    with pytest.raises(rl.ValidationError) as info:
        type(instance)(**{**vars(instance), name: flag})
    if isinstance(flag, bool):
        assert str(info.value) == f"{name} must {rule}, got {flag!r}"
    else:  # repr of a numpy bool differs between numpy 1.24 and 2.x
        assert str(info.value).startswith(f"{name} must {rule}, got ")


def test_rule_table_names_every_field():
    # A field missing from _RULES would fall back to the finite rule unnoticed.
    assert all(issubclass(cls, Checked) for cls in CHECKED)
    # rank is checked as evaluate's argument, not as a field.
    names = {field.name for cls in CHECKED for field in fields(cls)}
    assert FINITE_ONLY <= names
    assert set(_RULES) - (names - FINITE_ONLY) == {"rank"}
    assert names - FINITE_ONLY <= set(_RULES)


HUGE = 10**5000  # more digits than Python writes in decimal by default


@pytest.mark.parametrize("name, make", [
    ("n", lambda n: rl.LavaletteParams(k=1, b=1, n=n)),
    ("n", lambda n: rl.model_values(rl.ZipfParams(k=1, alpha=1), n)),
    ("rank", lambda r: rl.evaluate(rl.ZipfParams(k=1, alpha=1), r)),
    ("steps", lambda steps: rl.SimonConfig(p_new=0.5, steps=steps)),
], ids=["LavaletteParams", "model_values", "evaluate", "SimonConfig"])
@pytest.mark.parametrize("value, rule, shown", [
    (2.5, "be an integer", "2.5"),
    (True, "be an integer", "True"),
    (0, "be >= 1", "0"),
    (-HUGE, "be >= 1", "<negative int of 16610 bits>"),
    (2**53 + 1, "be at most 2**53", "9007199254740993"),
    (HUGE, "be at most 2**53", "<int of 16610 bits>"),
], ids=["float", "bool", "zero", "negative-huge", "2**53+1", "huge"])
def test_one_count_rule(name, make, value, rule, shown):
    # A law's n, an explicit length, an evaluated rank and a Simon step total are all counts.
    with pytest.raises(rl.ValidationError) as info:
        make(value)
    assert str(info.value) == f"{name} must {rule}, got {shown}"
