"""Synthetic ranked series: model curves with noise, and a Simon process.

Both generators own a fresh seeded PCG64 generator per call (numpy's
default_rng), so identical inputs give byte-identical series within a
build and nothing global is touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import accel, models
from .errors import Checked
from .ingest import RankedSeries, rank_raw

# New-source uniforms drawn per call by simulate_simon.
_DRAW_CHUNK = 1 << 16


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
    with probability proportional to its count. All uniforms are drawn up
    front, every new-source uniform before every pick uniform, so
    ``accel.simon_owners`` resolves every owner with array operations and
    no RNG calls. The steps-long arrays are the new-source flags (1 byte
    per step), the pick uniforms (8) and the kernel's owners (8); the
    new-source uniforms are drawn a chunk at a time into one small buffer.
    """
    rng = np.random.default_rng(config.seed)
    is_new = np.empty(config.steps - 1, dtype=bool)
    buf = np.empty(min(_DRAW_CHUNK, is_new.size))
    for lo in range(0, is_new.size, _DRAW_CHUNK):
        u_new = rng.random(out=buf[: is_new.size - lo])
        np.less(u_new, float(config.p_new), out=is_new[lo : lo + u_new.size])
    u_pick = rng.random(config.steps - 1)
    owners = accel.simon_owners(is_new, u_pick)
    counts = np.bincount(owners)
    return rank_raw(counts.astype(np.float64))
