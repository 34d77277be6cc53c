"""Hot numeric kernels, one numpy implementation each.

Two kernels dominate runtime: the preferential-attachment allocation of
the Simon process and the profiled no-intercept regression evaluated once
per golden-section probe. Callers look both up on this module at call
time, so a profiler can wrap them here.

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

# Items per call of simon_owners in ``generate.simulate_simon``: the block
# arrays stay a few MB at most.
_BLOCK = 1 << 16


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
    index = np.arange(lo, hi, dtype=np.int64)
    # The product is cast to int64 a buffer at a time, never held whole.
    pick = np.multiply(u_pick, index, out=np.empty_like(index), casting="unsafe")
    # int(u*t) with u just below 1.0 can round up to t; clamp to t-1.
    index -= 1
    np.minimum(pick, index, out=pick)
    # Each root's value: the owner already fixed for a pick before the
    # block, or for a new source its number. A pick inside the block reads
    # a placeholder that the jumping below bypasses. Every index is in
    # range; mode="clip" lets take write straight into out, where the
    # default mode="raise" buffers a whole extra array.
    value = np.take(owners, pick, mode="clip")
    sources = np.cumsum(is_new, dtype=owners.dtype)
    sources += newest
    np.copyto(value, sources, where=is_new)
    del sources
    # Indices now count from the block start. The roots, new sources and
    # picks before the block, point at themselves.
    index -= lo - 1
    pick -= lo
    np.copyto(pick, index, where=is_new | (pick < 0))
    parent, nxt = pick, index
    while True:
        np.take(parent, parent, out=nxt, mode="clip")
        if np.array_equal(nxt, parent):
            break
        parent, nxt = nxt, parent
    block = owners[lo:]
    np.take(value, parent, out=block, mode="clip")
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
