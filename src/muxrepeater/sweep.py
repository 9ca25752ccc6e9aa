"""Distance sweeps and node-count optimization of the per-node ebit rate.

The figure of merit is Q(N, L) = R(N, L)/N, the delivered ebit rate per
employed repeater node; N*(L) is its exhaustive integer argmax over
N = 2..n_max.  Each (platform, architecture) pair is one array pass
over (L x N) blocks whose entries equal the
:func:`muxrepeater.chain.chain_time` records; platforms with one chi_eff and
lifetime law store for equal times and so share each spectral ebit average.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .chain import ChainPlan, _chain_block, _rows
from .modes import ModeSpace
from .params import (NoiseParams, PhysicalConstants, PlatformParams,
                     _check_count)

# (L, N) entries per chain block; a block holds at least one distance
_BLOCK_ENTRIES = 8192


def sweep(l_grid_km: Iterable[float], platforms: Sequence[PlatformParams],
          architectures: Sequence[str], constants: PhysicalConstants,
          space: ModeSpace, noise: NoiseParams | None = None,
          n_max: int = 200, waiting_count: str = "links") -> list[ChainPlan]:
    """One optimized record per (L, platform, architecture) grid point.

    Each record is the first maximum of Q over N = 2..n_max, so ties break
    toward the smaller node count, and it equals the :func:`chain_time`
    record at N*.  No unimodality is assumed: the ceil/floor alternation in
    the connection chain makes Q(N) non-smooth.
    Output order is deterministic: distance-major, then platform order as
    given, then architecture order as given.  Blocks are built in that
    platform-then-architecture order, each over a slice of at most
    ``_BLOCK_ENTRIES`` (L, N) entries, and each is dropped after its argmax;
    the spectral averages of a slice are kept until the slice ends.
    """
    _check_count(n_max, "n_max", 2)
    n_values = np.arange(2, n_max + 1)
    l_values = np.array(list(l_grid_km), dtype=float)
    step = max(1, _BLOCK_ENTRIES // n_values.size)
    pairs = [(p, a) for p in platforms for a in architectures]
    records = []
    for start in range(0, l_values.size, step):
        l_column, averages, columns = l_values[start:start + step, None], {}, []
        for platform, architecture in pairs:
            block = _chain_block(architecture, platform, n_values, l_column,
                                 constants, space, noise, waiting_count,
                                 averages)
            q = block.q_ebit_per_s_per_node
            columns.append(_rows(block, np.arange(len(q)), q.argmax(axis=1)))
            del block, q  # before the next block is built
        records.extend(record for row in zip(*columns) for record in row)
    return records
