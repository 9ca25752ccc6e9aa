"""Distance sweeps and node-count optimization of the per-node ebit rate.

The figure of merit is Q(N, L) = R(N, L)/N, the delivered ebit rate per
employed repeater node; N*(L) is its exhaustive integer argmax over the
node-count range, evaluated in one array pass per grid point whose entries
equal the :func:`muxrepeater.chain.chain_time` records at each N.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .chain import ChainPlan, _chain_block, _row
from .modes import ModeSpace
from .params import NoiseParams, PhysicalConstants, PlatformParams


def optimize_nodes(l_km: float, platform: PlatformParams, architecture: str,
                   constants: PhysicalConstants, space: ModeSpace,
                   noise: NoiseParams | None = None,
                   n_range: Sequence[int] = range(2, 201),
                   **chain_kwargs) -> tuple[int, ChainPlan]:
    """Exhaustive argmax of the per-node rate over the node-count range.

    No unimodality is assumed: the ceil/floor alternation in the connection
    chain makes Q(N) non-smooth.  The whole range is evaluated in one array
    pass; the first maximum in ``n_range`` order wins, so ties break toward
    the smaller node count of an ascending range.  The returned record is
    the row the argmax picked, equal to the :func:`chain_time` record at N*.
    """
    n_values = np.array(list(n_range), dtype=np.int64)
    if n_values.size == 0:
        raise ValueError("n_range must be non-empty")
    if n_values.min() < 2:
        raise ValueError("node counts below 2 are not valid chains")
    block = _chain_block(architecture, platform, n_values, l_km, constants,
                         space, noise, **chain_kwargs)
    best = _row(block, int(np.argmax(block.q_ebit_per_s_per_node)))
    return best.n_nodes, best


def sweep(l_grid_km: Iterable[float], platforms: Sequence[PlatformParams],
          architectures: Sequence[str], constants: PhysicalConstants,
          space: ModeSpace, noise: NoiseParams | None = None,
          n_range: Sequence[int] = range(2, 201),
          **chain_kwargs) -> list[ChainPlan]:
    """One optimized record per (L, platform, architecture) grid point.

    Output order is deterministic: distance-major, then platform order as
    given, then architecture order as given.
    """
    records = []
    for l_km in l_grid_km:
        for platform in platforms:
            for architecture in architectures:
                _, record = optimize_nodes(l_km, platform, architecture,
                                           constants, space, noise, n_range,
                                           **chain_kwargs)
                records.append(record)
    return records
