"""Synthetic series and the preferential-attachment simulator."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import ranklaws as rl
from ranklaws import accel
from conftest import traced_peak
from test_accel import reference_simon_owners

GOLDEN = Path(__file__).parent / "data" / "betalike_n200_sigma01_seed42.csv"


class TestGenerateSynthetic:
    def test_zero_sigma_reproduces_curve_bitwise(self):
        params = rl.BetaLikeParams(k=0.0273, a=0.4058, b=0.991, n=50)
        series = rl.generate_synthetic(params, rl.NoiseSpec(sigma=0.0))
        assert series == rl.curve(params)

    def test_zipf_needs_explicit_length(self):
        params = rl.ZipfParams(k=1.0, alpha=1.0)
        with pytest.raises(rl.ValidationError, match="n"):
            rl.generate_synthetic(params, rl.NoiseSpec())
        assert rl.generate_synthetic(params, rl.NoiseSpec(), n=5).n == 5

    def test_same_seed_same_series(self):
        params = rl.LavaletteParams(k=1.0, b=0.5, n=30)
        noise = rl.NoiseSpec(sigma=0.2, seed=99)
        assert rl.generate_synthetic(params, noise) == rl.generate_synthetic(params, noise)

    def test_different_seeds_differ(self):
        params = rl.LavaletteParams(k=1.0, b=0.5, n=30)
        one = rl.generate_synthetic(params, rl.NoiseSpec(sigma=0.2, seed=1))
        two = rl.generate_synthetic(params, rl.NoiseSpec(sigma=0.2, seed=2))
        assert one != two

    def test_output_is_sorted_and_positive(self):
        params = rl.ZipfParams(k=1.0, alpha=0.1)
        series = rl.generate_synthetic(params, rl.NoiseSpec(sigma=1.5, seed=4), n=200)
        assert np.all(np.diff(series.values) <= 0)
        assert np.all(series.values > 0)

    def test_golden_fixture_regenerates_byte_identical(self):
        params = rl.BetaLikeParams(k=0.0273, a=0.4058, b=0.991, n=200)
        series = rl.generate_synthetic(params, rl.NoiseSpec(sigma=0.1, seed=42))
        lines = [repr(float(v)) for v in series.values]
        assert GOLDEN.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_golden_fixture_recovers_parameters(self):
        series, warnings = rl.parse_csv(GOLDEN.read_text(), rl.IngestOptions())
        assert warnings == []
        rep = rl.fit_beta_like(series)
        assert rep.r_squared >= 0.99
        assert rep.params.a == pytest.approx(0.4058, abs=0.04)
        assert rep.params.b == pytest.approx(0.991, abs=0.04)

    @pytest.mark.parametrize("params, sigma", [
        (rl.ZipfParams(k=1.0, alpha=-400.0), 0.0),
        (rl.ZipfParams(k=1.0, alpha=400.0), 0.0),
        (rl.MandelbrotParams(rho=-0.999, epsilon=300.0, n=20), 0.0),
        (rl.ZipfParams(k=1.0, alpha=1.0), 1000.0),
    ])
    def test_values_outside_double_range_rejected(self, params, sigma):
        with pytest.raises(rl.ValidationError, match="values must all be"):
            rl.generate_synthetic(params, rl.NoiseSpec(sigma=sigma, seed=3), n=20)

    def test_noise_spec_validation(self):
        with pytest.raises(rl.ValidationError):
            rl.NoiseSpec(sigma=-0.1)
        with pytest.raises(rl.ValidationError):
            rl.NoiseSpec(seed=-1)
        with pytest.raises(rl.ValidationError):
            rl.NoiseSpec(seed=2**64)
        with pytest.raises(rl.ValidationError, match="seed must be an integer"):
            rl.NoiseSpec(seed=1.5)
        rl.NoiseSpec(sigma=0.0, seed=2**64 - 1)

    def test_numpy_scalars_give_same_series(self):
        params = rl.ZipfParams(k=1.0, alpha=1.0)
        series = rl.generate_synthetic(params, rl.NoiseSpec(sigma=np.float32(0.1), seed=np.int64(3)), n=50)
        assert series == rl.generate_synthetic(params, rl.NoiseSpec(sigma=float(np.float32(0.1)), seed=3), n=50)


class TestSimulateSimon:
    def test_single_step_is_single_source(self):
        series = rl.simulate_simon(rl.SimonConfig(p_new=0.5, steps=1, seed=0))
        assert series.values.tolist() == [1.0]

    def test_counts_conserve_steps(self):
        for seed in range(5):
            series = rl.simulate_simon(rl.SimonConfig(p_new=0.1, steps=4000, seed=seed))
            assert int(series.values.sum()) == 4000
            assert 1 <= series.n <= 4000
            assert np.all(series.values >= 1)

    def test_numpy_scalars_give_same_counts(self):
        config = rl.SimonConfig(p_new=np.float64(0.1), steps=np.int64(1000), seed=np.uint64(3))
        assert rl.simulate_simon(config) == rl.simulate_simon(rl.SimonConfig(p_new=0.1, steps=1000, seed=3))

    def test_same_seed_same_counts(self):
        config = rl.SimonConfig(p_new=0.2, steps=2000, seed=7)
        assert rl.simulate_simon(config) == rl.simulate_simon(config)

    def test_high_innovation_is_nearly_flat(self):
        # p_new near 1 makes almost every step a new source, so the count
        # distribution degenerates and the fitted exponent collapses.
        series = rl.simulate_simon(rl.SimonConfig(p_new=0.999, steps=10_000, seed=0))
        assert rl.fit_zipf(series).params.alpha <= 0.1

    def test_low_innovation_concentrates_mass(self):
        steps = 20_000
        series = rl.simulate_simon(rl.SimonConfig(p_new=0.05, steps=steps, seed=1))
        assert series.n < steps / 4
        assert series.values[0] > 10 * np.median(series.values)

    @pytest.mark.parametrize("steps", [accel._BLOCK, accel._BLOCK + 2])
    def test_uniforms_drawn_in_one_stream(self, steps):
        # Both kinds of uniforms are drawn a block at a time, the picks from
        # a second generator; the result must equal one draw of all the
        # new-source uniforms, then one of all the picks.
        rng = np.random.default_rng(5)
        u_new, u_pick = rng.random(steps - 1), rng.random(steps - 1)
        owners = reference_simon_owners(u_new, u_pick, 0.3)
        expected = rl.rank_raw(np.bincount(owners).astype(np.float64))
        assert rl.simulate_simon(rl.SimonConfig(p_new=0.3, steps=steps, seed=5)) == expected

    def test_counts_tallied_across_block_spans(self):
        # With nearly every step a new source, there are more sources than
        # items in a block, so one tally spans several blocks.
        steps = 4 * accel._BLOCK + 3
        rng = np.random.default_rng(8)
        owners = reference_simon_owners(rng.random(steps - 1), rng.random(steps - 1), 0.95)
        expected = rl.rank_raw(np.bincount(owners).astype(np.float64))
        assert rl.simulate_simon(rl.SimonConfig(p_new=0.95, steps=steps, seed=8)) == expected

    def test_peak_memory_per_step(self):
        # The one steps-long array is the owners (4 bytes); the rest is per
        # block (about 2 MB) or per source (about 0.1 sources per step).
        # Holding all the pick uniforms (8 bytes) or an int64 copy of the
        # owners, as np.bincount(owners) makes, would pass 10.
        steps = 10**6
        _, peak = traced_peak(rl.simulate_simon, rl.SimonConfig(p_new=0.1, steps=steps, seed=0))
        assert peak <= 10 * steps

    def test_selection_is_proportional_to_counts(self):
        # Freeze a two-source prefix (source 0 holds 2 units, source 1 holds
        # 1) and drive only the third step across many pick variates: the
        # pick must land on source 0 with probability 2/3.
        from ranklaws.accel import simon_owners

        trials = 100_000
        rng = np.random.default_rng(123)
        hits = 0
        u_pick = rng.random(trials)
        for u in u_pick:
            owners = np.zeros(4, dtype=np.int64)
            simon_owners(np.array([0.9, 0.1, 0.9]) < 0.5, np.array([0.0, 0.0, u]), owners, 0)
            # owners[0] = 0, owners[1] copies slot 0, owners[2] = 1 (new),
            # owners[3] picks uniformly over the first three slots.
            assert owners[1] == 0 and owners[2] == 1
            if owners[3] == 0:
                hits += 1
        assert hits / trials == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_config_validation(self):
        with pytest.raises(rl.ValidationError):
            rl.SimonConfig(p_new=0.0, steps=10)
        with pytest.raises(rl.ValidationError):
            rl.SimonConfig(p_new=1.0, steps=10)
        with pytest.raises(rl.ValidationError):
            rl.SimonConfig(p_new=0.5, steps=0)
        with pytest.raises(rl.ValidationError):
            rl.SimonConfig(p_new=0.5, steps=10, seed=-3)
        with pytest.raises(rl.ValidationError, match="seed must be an integer"):
            rl.SimonConfig(p_new=0.5, steps=3, seed=True)

    @pytest.mark.parametrize("make, message", [
        (lambda: rl.SimonConfig(p_new=0.5, steps=10**5000), "steps must be at most 2**53, got <int of 16610 bits>"),
        (lambda: rl.SimonConfig(p_new=0.5, steps=-(10**5000)),
         "steps must be >= 1, got <negative int of 16610 bits>"),
        (lambda: rl.SimonConfig(p_new=0.5, steps=3, seed=10**5000),
         "seed must fit in 64 unsigned bits, got <int of 16610 bits>"),
        (lambda: rl.NoiseSpec(seed=-(10**5000)), "seed must fit in 64 unsigned bits, got <negative int of 16610 bits>"),
    ], ids=["steps", "negative-steps", "simon-seed", "noise-seed"])
    def test_ints_past_decimal_limit_named_by_size(self, make, message):
        # str() of an int of more than 4300 digits raises ValueError.
        with pytest.raises(rl.ValidationError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize("steps", [2**53 + 1, 10**20])
    def test_steps_past_exact_doubles_rejected(self, steps):
        # The kernel scales each pick by its item index, a double.
        with pytest.raises(rl.ValidationError) as info:
            rl.SimonConfig(p_new=0.5, steps=steps)
        assert str(info.value) == f"steps must be at most 2**53, got {steps}"
