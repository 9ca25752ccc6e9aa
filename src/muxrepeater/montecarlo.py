"""Stochastic round-level simulation of the chain protocol.

Serves as an independent check on the analytic waiting-time and total-time
formulas.  Draws come from numpy's PCG64 generator seeded through
``default_rng(seed)``; chunk sizes are either fixed constants or derived
deterministically from the inputs, and first moments of integer round counts
accumulate exactly, so a given seed reproduces the same estimates bit for
bit on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (
    _chain_setup,
    expected_max_rounds,
    mean_entanglement,
    p_eng_chain,
)
from .modes import ModeSpace
from .params import NoiseParams, PhysicalConstants, PlatformParams

_TRIAL_CHUNK = 1 << 16
_PHASE_CHUNK = 1 << 15
_PHASE_BUDGET = 1 << 22
_FLAG_FRACTION = 1e-3


class SimulationBudgetError(RuntimeError):
    """Too many samples hit the per-sample round cap to trust the estimate."""


@dataclass(frozen=True)
class McConfig:
    """Sampling budget for one Monte Carlo estimate."""

    samples: int
    seed: int = 0
    max_rounds: int = 10_000_000

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples_used: int


@dataclass(frozen=True)
class ChainMcResult:
    t_tot_us: McEstimate
    mean_ef: McEstimate


def _check_flagged(flagged: int, samples: int, what: str) -> None:
    if flagged > _FLAG_FRACTION * samples:
        raise SimulationBudgetError(
            f"{flagged} of {samples} samples exceeded max_rounds while "
            f"simulating {what}; raise max_rounds or rethink the parameters")


def _estimate(total: float, total_sq: float, n: int) -> McEstimate:
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        std_error = math.sqrt(var / n)
    else:
        std_error = 0.0
    return McEstimate(mean=mean, std_error=std_error, samples_used=n)


def _slowest_rounds(p: float, links: int, cfg: McConfig,
                    what: str) -> McEstimate:
    """Mean over trials of the slowest of ``links`` geometric(p) rounds."""
    rng = np.random.default_rng(cfg.seed)
    total = 0
    total_sq = 0.0
    flagged = 0
    remaining = cfg.samples
    while remaining > 0:
        b = min(_TRIAL_CHUNK, remaining)
        mx = rng.geometric(p, size=(b, links)).max(axis=1)
        flagged += int(np.count_nonzero(mx > cfg.max_rounds))
        total += int(mx.sum())
        mxf = mx.astype(float)
        total_sq += float(np.sum(mxf * mxf))
        remaining -= b
    _check_flagged(flagged, cfg.samples, what)
    return _estimate(float(total), total_sq, cfg.samples)


def mc_expected_max_rounds(n_links: int, p_g: float, cfg: McConfig) -> McEstimate:
    """Sample mean of the slowest link's heralding round over n_links links.

    Each trial draws one geometric(p_g) round count per link and records the
    maximum; the estimate checks :func:`muxrepeater.chain.expected_max_rounds`.
    """
    if n_links < 1:
        raise ValueError("n_links must be >= 1")
    if not 0.0 < p_g <= 1.0:
        raise ValueError("p_g must lie in (0, 1]")
    return _slowest_rounds(p_g, n_links, cfg, "slowest-link waiting rounds")


def _mc_ahierarchical(platform, n_nodes, l_km, constants, space, noise, cfg):
    l0_km, t_rep, budget, p_enc, eta_final = _chain_setup(
        platform, n_nodes, l_km, constants)
    # Blind operation: every link, every connection, and the final detections
    # are independent per-period Bernoulli events, so the period count to the
    # first joint success is exactly geometric in their product.
    p_round = p_eng_chain(budget.p_g, n_nodes) * p_enc * eta_final
    if p_round <= 0.0:
        raise SimulationBudgetError(
            "per-period success probability underflowed to zero")
    if 1.0 / p_round > cfg.max_rounds:
        raise SimulationBudgetError(
            "expected rounds per sample exceed max_rounds")
    rounds_est = _slowest_rounds(p_round, 1, cfg, "blind-protocol rounds")
    ef = mean_entanglement(platform, space, t_rep, noise)
    return ChainMcResult(
        t_tot_us=McEstimate(mean=rounds_est.mean * t_rep,
                            std_error=rounds_est.std_error * t_rep,
                            samples_used=cfg.samples),
        mean_ef=McEstimate(mean=ef, std_error=0.0, samples_used=cfg.samples))


def _ef_for_wait_counts(d: np.ndarray, t_rep: float, overhead: float,
                        platform, space, noise) -> np.ndarray:
    """Map integer wait counts to link ebit contents via their unique values."""
    unique = np.unique(d)
    table = np.array([
        mean_entanglement(platform, space, float(u) * t_rep + overhead, noise)
        for u in unique])
    return table[np.searchsorted(unique, d)]


def _mc_semihierarchical(platform, n_nodes, l_km, constants, space, noise, cfg):
    l0_km, t_rep, budget, p_enc, eta_final = _chain_setup(
        platform, n_nodes, l_km, constants)
    q = p_enc * eta_final
    if budget.p_g <= 0.0 or q <= 0.0:
        raise SimulationBudgetError(
            "per-attempt success probability underflowed to zero")
    if expected_max_rounds(n_nodes - 1, budget.p_g) / q > cfg.max_rounds:
        raise SimulationBudgetError(
            "expected rounds per sample exceed max_rounds")
    rng = np.random.default_rng(cfg.seed)
    m = n_nodes - 1
    overhead = l_km / constants.c
    # a memory waits l0/c for its own heralding before the hold begins, so
    # first-try storage matches the analytic (L + L0)/c assumption
    ef_overhead = (l_km + l0_km) / constants.c
    # trial chunk sized so one chunk's expected pass count stays bounded;
    # derived from q alone, so chunking (and the draw stream) is reproducible
    trial_chunk = max(1, min(_TRIAL_CHUNK, int(_PHASE_BUDGET * q)))
    sum_t = 0.0
    sum_t_sq = 0.0
    sum_ef = 0.0
    sum_ef_sq = 0.0
    flagged = 0
    remaining = cfg.samples
    while remaining > 0:
        b = min(trial_chunk, remaining)
        # Heralded links hold until the slowest finishes; the connection
        # stage then either succeeds or the whole pass restarts, so the
        # number of passes per trial is geometric in q.
        attempts = rng.geometric(q, size=b)
        n_phases = int(attempts.sum())
        last_idx = np.cumsum(attempts) - 1
        phase_max = np.empty(n_phases, dtype=np.int64)
        last_draws = np.empty((b, m), dtype=np.int64)
        start = 0
        while start < n_phases:
            stop = min(start + _PHASE_CHUNK, n_phases)
            draws = rng.geometric(budget.p_g, size=(stop - start, m))
            phase_max[start:stop] = draws.max(axis=1)
            sel = (last_idx >= start) & (last_idx < stop)
            last_draws[sel] = draws[last_idx[sel] - start]
            start = stop
        rounds = np.add.reduceat(phase_max, last_idx + 1 - attempts)
        flagged += int(np.count_nonzero(rounds > cfg.max_rounds))
        t_trial = rounds.astype(float) * t_rep + attempts.astype(float) * overhead
        sum_t += float(np.sum(t_trial))
        sum_t_sq += float(np.sum(t_trial * t_trial))
        d = phase_max[last_idx][:, None] - last_draws
        ef_links = _ef_for_wait_counts(d, t_rep, ef_overhead, platform, space,
                                       noise)
        ef_trial = ef_links.mean(axis=1)
        sum_ef += float(np.sum(ef_trial))
        sum_ef_sq += float(np.sum(ef_trial * ef_trial))
        remaining -= b
    _check_flagged(flagged, cfg.samples, "held-protocol rounds")
    return ChainMcResult(
        t_tot_us=_estimate(sum_t, sum_t_sq, cfg.samples),
        mean_ef=_estimate(sum_ef, sum_ef_sq, cfg.samples))


def mc_chain_time(architecture: str, platform: PlatformParams, n_nodes: int,
                  l_km: float, constants: PhysicalConstants, space: ModeSpace,
                  cfg: McConfig, noise: NoiseParams | None = None) -> ChainMcResult:
    """Simulate full distributions and estimate T_tot and the ebit content.

    The blind architecture stores for exactly one clock period, so its ebit
    content is deterministic (zero standard error).  The held architecture
    evaluates each trial's ebit content at the realized per-link storage
    times of the final, successful pass, averaged over links.
    """
    if architecture == "ahierarchical":
        return _mc_ahierarchical(platform, n_nodes, l_km, constants, space,
                                 noise, cfg)
    if architecture == "semihierarchical":
        return _mc_semihierarchical(platform, n_nodes, l_km, constants, space,
                                    noise, cfg)
    raise ValueError(f"unknown architecture {architecture!r}")
