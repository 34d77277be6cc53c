"""Synthetic ranked series: model curves with noise, and a Simon process.

Both generators seed fresh PCG64 generators per call (numpy's
default_rng), so identical inputs give byte-identical series within a
build and nothing global is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import accel, models
from .errors import Checked
from .ingest import RankedSeries, rank_raw

@dataclass(frozen=True)
class NoiseSpec(Checked):
    """Multiplicative lognormal noise: values are scaled by exp(g), g ~ N(0, sigma^2).

    Noise lives in log space because the fitters do; sigma is then directly
    the standard deviation of the fit residuals.
    """

    sigma: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class SimonConfig(Checked):
    """Preferential-attachment run: steps items, new source with probability p_new."""

    p_new: float
    steps: int
    seed: int = 0


def generate_synthetic(params: models.ModelParams, noise: NoiseSpec, n: int | None = None) -> RankedSeries:
    """Tabulate a model, perturb it, and re-rank.

    ``n`` follows :func:`ranklaws.models.model_values`. With sigma = 0 the
    output equals curve(params) exactly. Noise can break monotonicity, so
    the perturbed values are re-sorted descending and re-ranked. Values
    that leave double range raise ValidationError.
    """
    rng = np.random.default_rng(noise.seed)
    with np.errstate(all="ignore"):  # an overflow or underflow gives inf or 0, which rank_raw rejects
        values = models.model_values(params, n)
        values *= np.exp(rng.normal(0.0, noise.sigma, size=values.size))
    return rank_raw(values)


def simulate_simon(config: SimonConfig) -> RankedSeries:
    """Run the allocation process and rank the final source counts.

    The first item founds source 0. Each later step founds a new
    one-item source with probability p_new, otherwise awards the item to
    the owner of a uniformly chosen past item, i.e. to an existing source
    with probability proportional to its count.

    The uniforms form one stream: every new-source uniform, then every
    pick uniform. The steps go in blocks of ``accel._BLOCK``. Each block
    draws its new-source uniforms, then its pick uniforms from a second
    generator advanced past all the new-source draws, and
    ``accel.simon_owners`` resolves its owners. The owners, 4 bytes per
    step below 2**31 steps and 8 from there on, are the only steps-long
    array; items are tallied per source as they are resolved, a span of
    blocks at a time.
    """
    # The owners are freed when _source_counts returns, before the ranking.
    return rank_raw(_source_counts(config).astype(np.float64))


def _source_counts(config: SimonConfig) -> np.ndarray:
    """Items per source of one run of the process, sources in founding order."""
    steps = int(config.steps)  # advance() overflows on a numpy integer
    rng_new = np.random.default_rng(config.seed)
    rng_pick = np.random.default_rng(config.seed)
    rng_pick.bit_generator.advance(steps - 1)
    owners = np.zeros(steps, dtype=np.int32 if steps <= 2**31 else np.int64)
    counts = np.ones(1, dtype=np.int64)  # item 0 founds source 0
    newest, counted = 0, 1  # the last source founded; the items counted
    uniforms = np.empty(min(accel._BLOCK, steps - 1))
    flags = np.empty(uniforms.size, dtype=bool)
    for lo in range(1, steps, accel._BLOCK):
        hi = min(lo + accel._BLOCK, steps)
        u, is_new = uniforms[: hi - lo], flags[: hi - lo]
        np.less(rng_new.random(out=u), float(config.p_new), out=is_new)
        accel.simon_owners(is_new, rng_pick.random(out=u), owners[:hi], newest)
        newest += int(np.count_nonzero(is_new))
        # A tally is as long as there are sources, so each one spans at
        # least as many items: counting costs O(steps) in all, and its int64
        # copy of the owners it spans stays within a block or a tally.
        if hi - counted >= newest or hi == steps:
            tally = np.bincount(owners[counted:hi], minlength=newest + 1)
            tally[: counts.size] += counts
            counts, counted = tally, hi
    return counts
