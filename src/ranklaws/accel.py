"""Hot numeric kernels, one numpy implementation each.

Two kernels dominate runtime: the preferential-attachment allocation of
the Simon process and the profiled no-intercept regression evaluated once
per golden-section probe. Callers look both up on this module at call
time, so a profiler can wrap them here.
"""

from __future__ import annotations

import math

import numpy as np

# No compiled backend exists; kept because benchmark import probes read it.
NUMBA_ENABLED = False


def simon_owners(u_new: np.ndarray, u_pick: np.ndarray, p_new: float) -> np.ndarray:
    """Allocate steps to sources; owners[t] is the 0-based source of item t.

    Item 0 always belongs to source 0. For step t >= 1: if u_new[t-1] <
    p_new a fresh source is created, otherwise the item goes to the owner
    of a uniformly chosen past item, which realizes selection proportional
    to current counts.

    Every item points at itself (a new source) or at an earlier item, so
    the pointers form a forest whose roots are the sources. Pointer
    jumping (Wyllie's list ranking) halves every path per round and
    reaches the roots in at most ceil(log2(steps)) + 1 rounds.
    """
    steps = u_new.shape[0] + 1
    is_new = u_new < p_new
    ids = np.arange(steps, dtype=np.int64)
    parent = np.zeros(steps, dtype=np.int64)
    # int(u*t) with u just below 1.0 can round up to t; clamp to t-1.
    np.copyto(parent[1:], u_pick * ids[1:], casting="unsafe")
    np.minimum(parent[1:], ids[:-1], out=parent[1:])
    np.copyto(parent[1:], ids[1:], where=is_new)
    # From here ids holds each root's source number: the count of new
    # sources up to it.
    np.cumsum(is_new, out=ids[1:])
    # Every index is in range; mode="clip" lets take write straight into
    # out, where the default mode="raise" buffers a whole extra array.
    nxt = np.empty_like(parent)
    while True:
        np.take(parent, parent, out=nxt, mode="clip")
        if np.array_equal(nxt, parent):
            break
        parent, nxt = nxt, parent
    return np.take(ids, parent, out=nxt, mode="clip")


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
