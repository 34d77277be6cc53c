"""Hot numeric kernels, one numpy implementation each.

Two kernels dominate runtime: the preferential-attachment allocation of
the Simon process and the profiled no-intercept regression evaluated once
per golden-section probe. Callers look both up on this module at call
time, so a profiler can wrap them here.

Of the Simon kernel's arrays only its inputs (the new-source flags, one
byte per step, and the pick uniforms, eight) and its result (the owners,
eight) are steps-long; it works through the steps in blocks of fixed
size.
"""

from __future__ import annotations

import math

import numpy as np

# No compiled backend exists; kept because benchmark import probes read it.
NUMBA_ENABLED = False

# Items per block of simon_owners: its block arrays stay a few MB at most.
_BLOCK = 1 << 16


def simon_owners(is_new: np.ndarray, u_pick: np.ndarray) -> np.ndarray:
    """Allocate steps to sources; owners[t] is the 0-based source of item t.

    Item 0 always belongs to source 0. For step t >= 1: if is_new[t-1] a
    fresh source is created, otherwise the item goes to the owner of past
    item int(u_pick[t-1] * t), which realizes selection proportional to
    current counts.

    Every item points at itself (a new source) or at an earlier item, so
    the pointers form a forest whose roots are the sources. Items are
    resolved one block of _BLOCK consecutive indices at a time, in order.
    A pick before the block copies an owner already fixed; the block's
    other items are resolved by pointer jumping (Wyllie's list ranking)
    over the block alone, which halves every path per round and reaches
    the roots in at most log2(_BLOCK) + 1 rounds. ``owners`` is the only
    steps-long array allocated here; the rest is per block.
    """
    steps = is_new.shape[0] + 1
    owners = np.zeros(steps, dtype=np.int64)
    founded = 0  # sources created before the block
    for lo in range(1, steps, _BLOCK):
        hi = min(lo + _BLOCK, steps)
        new = is_new[lo - 1 : hi - 1]
        index = np.arange(lo, hi, dtype=np.int64)
        pick = np.empty_like(index)
        np.copyto(pick, u_pick[lo - 1 : hi - 1] * index, casting="unsafe")
        # int(u*t) with u just below 1.0 can round up to t; clamp to t-1.
        index -= 1
        np.minimum(pick, index, out=pick)
        # Each root's value: the owner already fixed for a pick before the
        # block, or for a new source its number, the count of new sources
        # up to it. A pick inside the block reads a placeholder that the
        # jumping below bypasses. Every index is in range; mode="clip" lets
        # take write straight into out, where the default mode="raise"
        # buffers a whole extra array.
        value = np.take(owners, pick, mode="clip")
        sources = np.cumsum(new, dtype=np.int64)
        sources += founded
        founded = int(sources[-1])
        np.copyto(value, sources, where=new)
        # Indices now count from the block start. The roots, new sources
        # and picks before the block, point at themselves.
        index -= lo - 1
        pick -= lo
        np.copyto(pick, index, where=new | (pick < 0))
        parent, nxt = pick, index
        while True:
            np.take(parent, parent, out=nxt, mode="clip")
            if np.array_equal(nxt, parent):
                break
            parent, nxt = nxt, parent
        np.take(value, parent, out=owners[lo:hi], mode="clip")
    return owners


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
