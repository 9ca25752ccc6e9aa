"""Distance sweeps and node-count optimization of the per-node ebit rate.

The figure of merit is Q(N, L) = R(N, L)/N, the delivered ebit rate per
employed repeater node; N*(L) is its first integer argmax over
N = 2..n_max.  Each (platform, architecture) pair walks N upward in chunks,
one (L x N) array pass per chunk over the distances still open, whose
entries equal the :func:`muxrepeater.chain.chain_time` records.  A distance
closes once the bound U of :func:`muxrepeater.chain._q_bound` at the next
N, U = C * P_enc(N) * eta_final * c/L with C = 1 (blind) or E(L/c)/N
(held), times 1 + ``_MARGIN`` for rounding and quadrature error, is at most
its best Q: no larger N can then win or tie.  So the record is that of the
exhaustive search, and a distance that closes before n_max holds the
optimum over all N >= 2.  P_enc underflows within some 540 node counts,
where every distance closes, so a huge n_max costs nothing.  For a best Q
that is subnormal or 0, where rounding is no longer relative, that match is
tested rather than proven.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .chain import ChainPlan, _chain_block, _q_bound, _rows
from .modes import ModeSpace
from .params import (NoiseParams, PhysicalConstants, PlatformParams,
                     _check_count)

# (L, N) entries per chain block, and node counts per step of the walk: a
# slice of _BLOCK_ENTRIES // _CHUNK distances is walked as one block a step
_BLOCK_ENTRIES = 8192
_CHUNK = 16
# relative margin of the bound over the best Q before a distance closes
_MARGIN = 1e-9


def sweep(l_grid_km: Iterable[float], platforms: Sequence[PlatformParams],
          architectures: Sequence[str], constants: PhysicalConstants,
          space: ModeSpace, noise: NoiseParams = NoiseParams(),
          n_max: int = 200, waiting_count: str = "links") -> list[ChainPlan]:
    """One optimized record per (L, platform, architecture) grid point.

    Each record is the first maximum of Q over N = 2..n_max, so ties break
    toward the smaller node count, and it equals the :func:`chain_time`
    record at N*.  No unimodality is assumed: the ceil/floor alternation in
    the connection chain makes Q(N) non-smooth; the walk over N stops at a
    distance once the module's bound proves that no larger N can win.
    Output order is deterministic: distance-major, then platform order as
    given, then architecture order as given.  The grid is walked in slices
    of ``_BLOCK_ENTRIES // _CHUNK`` distances, each pair in that
    platform-then-architecture order, so no block holds more than
    ``_BLOCK_ENTRIES`` (L, N) entries whatever n_max; the spectral averages
    of a slice's first chunk are kept until the slice ends.
    """
    _check_count(n_max, "n_max", 2)
    l_values = np.array(list(l_grid_km), dtype=float)
    step = _BLOCK_ENTRIES // _CHUNK
    records = []
    for start in range(0, l_values.size, step):
        l_slice, averages = l_values[start:start + step], {}
        columns = [_search(architecture, platform, l_slice, n_max, constants,
                           space, noise, waiting_count, averages)
                   for platform in platforms for architecture in architectures]
        records.extend(record for row in zip(*columns) for record in row)
    return records


def _search(architecture: str, platform: PlatformParams, l_km: np.ndarray,
            n_max: int, constants: PhysicalConstants, space: ModeSpace,
            noise: NoiseParams, waiting_count: str,
            averages: dict) -> list[ChainPlan]:
    """First-maximum record over N = 2..n_max at each distance of a slice.

    Only the first chunk sees every distance of the slice, so only its
    spectral averages go into ``averages``.
    """
    records = [None] * l_km.size
    best_q = np.full(l_km.size, -np.inf)
    live = np.arange(l_km.size)   # the distances still open
    for first in range(2, n_max + 1, _CHUNK):
        n = np.arange(first, min(first + _CHUNK, n_max + 1))
        block = _chain_block(architecture, platform, n, l_km[live, None],
                             constants, space, noise, waiting_count,
                             averages if first == 2 else None)
        # column 0 is the best so far, so argmax keeps the first maximum
        q = np.column_stack([best_q[live], block.q_ebit_per_s_per_node])
        top = q.argmax(axis=1)
        won = np.flatnonzero(top)
        best_q[live[won]] = q[won, top[won]]
        for row, record in zip(live[won], _rows(block, won, top[won] - 1)):
            records[row] = record
        bound = _q_bound(architecture, platform, n[-1] + 1, l_km[live],
                         constants, space, noise)
        # a nan best, which argmax keeps, cannot be beaten either
        live = live[bound * (1.0 + _MARGIN) > best_q[live]]
        if not live.size:
            break
    return records
