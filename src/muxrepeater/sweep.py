"""Distance sweeps and node-count optimization of the per-node ebit rate.

The figure of merit is Q(N, L) = R(N, L)/N, the delivered ebit rate per
employed repeater node; N*(L) is its exhaustive integer argmax over the
records that :func:`muxrepeater.chain.chain_time` returns.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .chain import ChainPlan, chain_time
from .modes import ModeSpace
from .params import NoiseParams, PhysicalConstants, PlatformParams


def optimize_nodes(l_km: float, platform: PlatformParams, architecture: str,
                   constants: PhysicalConstants, space: ModeSpace,
                   noise: NoiseParams | None = None,
                   n_range: Sequence[int] = range(2, 201),
                   **chain_kwargs) -> tuple[int, ChainPlan]:
    """Exhaustive argmax of the per-node rate over the node-count range.

    No unimodality is assumed: the ceil/floor alternation in the connection
    chain makes Q(N) non-smooth.  Ties break toward the smaller node count.
    """
    n_values = list(n_range)
    if not n_values:
        raise ValueError("n_range must be non-empty")
    if min(n_values) < 2:
        raise ValueError("node counts below 2 are not valid chains")
    best: ChainPlan | None = None
    for n in n_values:
        record = chain_time(architecture, platform, n, l_km, constants, space,
                            noise, **chain_kwargs)
        if best is None or record.q_ebit_per_s_per_node > best.q_ebit_per_s_per_node:
            best = record
    assert best is not None
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
