"""The numpy kernels against plain reference computations."""

from __future__ import annotations

import numpy as np
import pytest

from ranklaws import accel, generate
from conftest import traced_peak


def random_kernel_inputs(rng, steps):
    return rng.random(steps - 1), rng.random(steps - 1)


def reference_simon_owners(u_new, u_pick, p_new):
    """The allocation as one sequential loop, step by step."""
    steps = u_new.shape[0] + 1
    owners = np.zeros(steps, dtype=np.int64)
    n_new = 0
    for t in range(1, steps):
        if u_new[t - 1] < p_new:
            n_new += 1
            owners[t] = n_new
        else:
            j = int(u_pick[t - 1] * t)
            if j > t - 1:
                j = t - 1
            owners[t] = owners[j]
    return owners


BLOCK = generate._BLOCK


def run_kernel(is_new, u_pick, dtype=np.int64):
    """Every owner of a run, resolved one block of BLOCK items per kernel call, as simulate_simon calls it."""
    owners = np.zeros(is_new.shape[0] + 1, dtype=dtype)
    newest = 0
    for lo in range(1, owners.size, BLOCK):
        hi = min(lo + BLOCK, owners.size)
        block = accel.simon_owners(is_new[lo - 1 : hi - 1], u_pick[lo - 1 : hi - 1], owners[:hi], newest)
        assert block.base is owners
        assert block.size == hi - lo
        newest += int(np.count_nonzero(is_new[lo - 1 : hi - 1]))
    return owners


class TestSimonParity:
    def test_numpy_and_loop_agree(self):
        # The loop's owners of the first steps items depend only on the
        # first steps - 1 variates, so one run of it serves every prefix.
        # The sizes put the last item just before, on and just after the
        # kernel's block edges.
        rng = np.random.default_rng(0)
        sizes = (1, 2, 3, 17, 1000, BLOCK - 1, BLOCK, BLOCK + 1, 100_000, 2 * BLOCK + 1)
        u_new, u_pick = random_kernel_inputs(rng, max(sizes))
        for p_new in (0.05, 0.5, 0.95):
            expected = reference_simon_owners(u_new, u_pick, p_new)
            for steps in sizes:
                for dtype in (np.int32, np.int64):
                    a = run_kernel(u_new[: steps - 1] < p_new, u_pick[: steps - 1], dtype)
                    assert a.dtype == dtype
                    assert np.array_equal(a, expected[:steps])

    def test_pick_index_clamped_at_upper_edge(self):
        # u_pick of exactly 1.0 would index one past the known slots without
        # the clamp.
        u_new = np.array([0.99, 0.99])
        u_pick = np.array([1.0, 1.0])
        owners = run_kernel(u_new < 0.5, u_pick)
        assert owners.tolist() == [0, 0, 0]
        # Item 3 must copy item 2 (source 0); pointing at itself instead
        # would make it a root and give it the newest source, 1.
        owners = run_kernel(np.array([0.1, 0.9, 0.9]) < 0.5, np.array([0.0, 0.0, 1.0]))
        assert owners.tolist() == [0, 1, 0, 0]

    def test_deepest_forest_resolves_to_first_source(self):
        # Item 1 founds source 1, item 2 copies item 0, and every later pick
        # clamps to the previous item: a chain of depth steps - 2 down to
        # item 0. Any item left short of the root by too few jumping rounds
        # would read source 1.
        steps = 1_000_000
        u_new = np.full(steps - 1, 0.9)
        u_new[0] = 0.1
        u_pick = np.ones(steps - 1)
        u_pick[1] = 0.0
        owners = run_kernel(u_new < 0.5, u_pick)
        expected = np.zeros(steps, dtype=np.int64)
        expected[1] = 1
        assert np.array_equal(owners, expected)

    def test_chain_across_block_edges(self):
        # The first block is the chain above. Every later item t picks item
        # t - BLOCK, so each link of its chain crosses a block edge, and it
        # ends at item 1 (source 1) exactly when t = 1 mod BLOCK.
        steps = 3 * BLOCK + 2
        u_new = np.full(steps - 1, 0.9)
        u_new[0] = 0.1
        u_pick = np.ones(steps - 1)
        u_pick[1] = 0.0
        t = np.arange(BLOCK + 1, steps)
        u_pick[BLOCK:] = (t - BLOCK + 0.5) / t
        assert np.array_equal((u_pick[BLOCK:] * t).astype(np.int64), t - BLOCK)
        owners = run_kernel(u_new < 0.5, u_pick)
        expected = (np.arange(steps) % BLOCK == 1).astype(np.int64)
        assert np.array_equal(owners, expected)

    def test_allocates_only_block_sized_arrays(self):
        # One block on top of a resolved prefix far longer than it: the
        # kernel's peak is a few block-long int64 arrays, whatever the
        # prefix. A copy of the owners, or any array as long as them, would
        # exceed the bound and differ between the two prefixes by megabytes.
        rng = np.random.default_rng(4)
        is_new, u_pick = rng.random(BLOCK) < 0.1, rng.random(BLOCK)
        peaks = []
        for prefix in (2 * 10**6, 4 * 10**6):
            owners = np.zeros(prefix + BLOCK, dtype=np.int32)
            block, peak = traced_peak(accel.simon_owners, is_new, u_pick, owners, 0)
            assert block.base is owners
            peaks.append(peak)
        assert max(peaks) <= 8 * BLOCK * 8
        assert peaks[1] <= peaks[0] + BLOCK


class TestMandelbrotProfileParity:
    def test_matches_lstsq(self):
        rng = np.random.default_rng(2)
        for n in (3, 50, 400):
            log_values = np.sort(rng.normal(0, 1, n))[::-1].copy()
            for rho in (-0.5, 0.0, 3.7, 100.0):
                x = np.log((n + rho) / (np.arange(1.0, n + 1.0) + rho))
                (ref_slope,), *_ = np.linalg.lstsq(x[:, None], log_values, rcond=None)
                ref_sse = float(np.sum((log_values - ref_slope * x) ** 2))
                slope, sse = accel.mandelbrot_profile(log_values, rho)
                assert slope == pytest.approx(ref_slope, rel=1e-12)
                assert sse == pytest.approx(ref_sse, rel=1e-12)

    @pytest.mark.parametrize("rho", [-0.99, 30.0])
    def test_finite_at_bracket_edges_on_widest_values(self, rho):
        # Every log value of a double lies in [-745, 710], and the fit's rho
        # bracket (-0.99, 10 n] keeps the regressor finite and nonzero, so the
        # slope and SSE stay finite; n = 3 is the shortest mandelbrot fit.
        log_values = np.log(np.array([1.7e308, 1.0, 5e-324]))
        slope, sse = accel.mandelbrot_profile(log_values, rho)
        assert np.isfinite(slope) and np.isfinite(sse)
