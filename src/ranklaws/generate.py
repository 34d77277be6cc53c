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

# Items per call of accel.simon_owners in simulate_simon: the block arrays
# stay a few MB at most.
_BLOCK = 1 << 16


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
    output equals curve(params) exactly for a law whose curve does not
    increase. Noise, or a law that increases in rank (such as zipf with a
    negative alpha, where curve raises), can break monotonicity, so the
    values are re-sorted descending and re-ranked. Values that leave
    double range raise ValidationError.
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
    pick uniform. The steps go in blocks of ``_BLOCK``. Each block
    draws its new-source uniforms, then its pick uniforms from a second
    generator advanced past all the new-source draws, and
    ``accel.simon_owners`` resolves its owners. The owners, 4 bytes per
    step below 2**31 steps and 8 from there on, are the only steps-long
    array. They are tallied per source once every block is resolved, and
    freed before the ranking.
    """
    steps, p_new = int(config.steps), float(config.p_new)  # advance() overflows on a numpy integer
    rng_new = np.random.default_rng(config.seed)
    rng_pick = np.random.default_rng(config.seed)
    rng_pick.bit_generator.advance(steps - 1)
    owners = np.zeros(steps, dtype=np.int32 if steps <= 2**31 else np.int64)
    newest = 0  # the last source founded; item 0 founds source 0
    for lo in range(1, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        is_new = rng_new.random(hi - lo) < p_new
        accel.simon_owners(is_new, rng_pick.random(hi - lo), owners[:hi], newest)
        newest += int(np.count_nonzero(is_new))
    # bincount copies its input to int64: a chunk no longer than the tally
    # keeps that copy within the tally's size.
    chunk = max(newest + 1, _BLOCK)
    counts = np.zeros(newest + 1, dtype=np.int64)
    for lo in range(0, steps, chunk):
        counts += np.bincount(owners[lo : lo + chunk], minlength=newest + 1)
    del owners
    return rank_raw(counts.astype(np.float64))
