"""The numeric kernels of the Simon process and the mandelbrot fit.

``simon_owners`` allocates one block of Simon steps to sources, and
``mandelbrot_profile`` is the no-intercept regression evaluated at each
golden-section probe of rho and at the three end-comparison points.
Neither dominates a CLI run, where parsing and encoding do. They are kept
apart from their callers, which look them up on this module at call
time, so that the benchmark's layer trace can time them here.

The Simon kernel resolves one block of items per call. Its caller holds
the owners of every item, the only steps-long array, and draws each
block's uniforms just before the call, so no other array grows with the
number of steps.
"""

from __future__ import annotations

import math

import numpy as np

# No compiled backend exists; kept because benchmark import probes read it.
NUMBA_ENABLED = False


def simon_owners(is_new: np.ndarray, u_pick: np.ndarray, owners: np.ndarray, newest: int) -> np.ndarray:
    """Allocate one block of steps to sources, writing the owners in place.

    The block is the last ``is_new.size`` items of ``owners``, items lo to
    owners.size - 1 with lo >= 1; owners[:lo] are already resolved, and
    ``newest`` is the number of the last source founded among them (item 0
    founds source 0). Returns the block's owners, a view of ``owners``.

    For item t of the block, with i = t - lo: if is_new[i] it founds the
    next source, otherwise it goes to the owner of past item
    int(u_pick[i] * t), which realizes selection proportional to current
    counts.

    Every item points at itself (a new source) or at an earlier item, so
    the pointers form a forest whose roots are the sources. A pick before
    the block copies an owner already fixed; the block's other items are
    resolved by pointer jumping (Wyllie's list ranking) over the block
    alone, which halves every path per round and reaches the roots in at
    most log2(block size) + 1 rounds. Every array allocated here is block
    sized.
    """
    lo, hi = owners.shape[0] - is_new.shape[0], owners.shape[0]
    index = np.arange(lo, hi)
    # int(u*t) with u just below 1.0 can round up to t; clamp to t-1.
    pick = np.minimum((u_pick * index).astype(np.int64), index - 1)
    # Each root's value: its source number for a new source, else the
    # owner already fixed for a pick before the block. A pick inside the
    # block reads a placeholder that the jumping below bypasses.
    value = np.where(is_new, newest + np.cumsum(is_new), owners[pick])
    # Pointers count from the block start; the roots point at themselves.
    parent = np.where(is_new | (pick < lo), index, pick) - lo
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            break
        parent = jumped
    block = owners[lo:]
    block[:] = value[parent]
    return block


def mandelbrot_profile(log_values: np.ndarray, rho: float) -> tuple[float, float]:
    """Best no-intercept slope and its SSE for the shifted-rank regressor.

    Regresses log_values on x_r = log(n+rho) - log(r+rho) without an
    intercept and returns (slope, sse).
    """
    n = log_values.shape[0]
    x = math.log(n + rho) - np.log(np.arange(1.0, n + 1.0) + rho)
    slope = float(np.dot(x, log_values)) / float(np.dot(x, x))
    resid = log_values - slope * x
    return slope, float(np.dot(resid, resid))
