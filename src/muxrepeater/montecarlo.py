"""Stochastic round-level simulation of the chain protocol.

Serves as an independent check on the analytic waiting-time and total-time
formulas.  :func:`mc_chain_time` takes every deterministic chain quantity
(clock period, link and connection probabilities, first-try storage, the
blind ebit content) from the :func:`muxrepeater.chain.chain_time` record, so
the cross-check differs from the model only by what it samples.  Draws come
from numpy's PCG64 generator seeded through ``default_rng(seed)``, in chunks
sized from the inputs alone, and integer round counts sum exactly, so a
given seed reproduces the same estimates bit for bit on every run.  The
held-chain sampler draws raw per-racer rounds only for a trial's final pass;
:func:`_earlier_pass_rounds` draws the earlier ones.

The slowest-racer sampler draws, per racer, the raw variate numpy's geometric
consumes (an exponential below p = 1/3, a uniform from 1/3 up) and maps only
each trial's largest through numpy's nondecreasing transform, so its maxima
equal ``geometric(...).max(axis=1)`` bit for bit; ``TestGeometricRowMax``
pins that coupling on both sides of the branch point.  The raw variates are
drawn in consecutive blocks of whole rows into one reused buffer of at most
``_DRAW_BLOCK`` values; the generator fills a block row-major exactly as it
fills one (trials, racers) array, so the maxima and the generator state after
the draw do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (ChainPlan, _racers, chain_time, expected_max_rounds,
                    mean_entanglement)
from .modes import ModeSpace
from .params import NoiseParams, PhysicalConstants, PlatformParams

_TRIAL_CHUNK = 1 << 16
_PASS_BUDGET = 1 << 22
# raw variates per draw block (1 MB of float64), whole rows at a time
_DRAW_BLOCK = 1 << 17
# up to this many racers a column-wise maximum is at least as fast as
# max(axis=1); past it the per-column call overhead dominates
_COLUMN_MAX_UP_TO = 48
_FLAG_FRACTION = 1e-3
# numpy's random_geometric inverts an exponential below this p, searches above
_GEOMETRIC_SEARCH_FROM = 1.0 / 3.0
# numpy's inversion saturates to INT64_MAX from this double up
_INT64_SATURATION = 9.223372036854776e18


class SimulationBudgetError(RuntimeError):
    """Too many samples hit the per-sample round cap to trust the estimate."""


@dataclass(frozen=True)
class McConfig:
    """Sampling budget for one Monte Carlo estimate; integers, not bools."""

    samples: int
    seed: int = 0
    max_rounds: int = 10_000_000

    def __post_init__(self) -> None:
        for name, least in (("samples", 1), ("seed", 0), ("max_rounds", 1)):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))
                    or value < least):
                raise ValueError(f"{name} must be an integer >= {least}")


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


def _geometric_search_sums(p: float) -> np.ndarray:
    """The partial sums p + p*q + ... of numpy's geometric search loop.

    Built with the loop's own ``prod *= q; sum += prod`` steps, up to 1 or to
    where adding the next term leaves the sum unchanged.  numpy returns the
    first k whose sum reaches the uniform; a uniform above the last sum
    (chance below 1e-15) never ends numpy's loop and maps to one past it here.
    """
    q = 1.0 - p
    total = prod = p
    sums = [total]
    while total < 1.0:
        prod *= q
        if total + prod == total:
            break
        total += prod
        sums.append(total)
    return np.array(sums)


def _geometric_row_max(rng, p: float, shape: tuple[int, int]) -> np.ndarray:
    """``rng.geometric(p, size=shape).max(axis=1)``, bit for bit.

    Draws the raw variates numpy's geometric consumes, one per racer and in
    the same order, so the generator ends in the same state.  numpy maps each
    through a nondecreasing function, so only the row maxima are mapped.
    """
    rows, racers = shape
    search = p >= _GEOMETRIC_SEARCH_FROM
    draw = rng.random if search else rng.standard_exponential
    step = max(1, _DRAW_BLOCK // racers)
    block = np.empty((min(step, rows), racers))
    mx = np.empty(rows)
    for start in range(0, rows, step):
        x = block[:min(step, rows - start)]
        draw(out=x)
        out = mx[start:start + len(x)]
        if racers > _COLUMN_MAX_UP_TO:
            np.max(x, axis=1, out=out)
        else:
            np.copyto(out, x[:, 0])
            for j in range(1, racers):
                np.maximum(out, x[:, j], out=out)
    if search:
        return np.searchsorted(_geometric_search_sums(p), mx) + 1
    # at tiny p, z passes INT64_MAX (inf at subnormal p); numpy saturates
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.ceil(-mx / math.log1p(-p))
        return np.where(z >= _INT64_SATURATION, np.iinfo(np.int64).max,
                        z.astype(np.int64))


def _slowest_rounds(p: float, links: int, cfg: McConfig,
                    what: str) -> McEstimate:
    """Mean over trials of the slowest of ``links`` geometric(p) rounds."""
    rng = np.random.default_rng(cfg.seed)
    total = 0.0
    total_sq = 0.0
    flagged = 0
    remaining = cfg.samples
    while remaining > 0:
        b = min(_TRIAL_CHUNK, remaining)
        mx = _geometric_row_max(rng, p, (b, links))
        flagged += int(np.count_nonzero(mx > cfg.max_rounds))
        # float sums are exact below 2**53 and, unlike int64, never wrap
        mxf = mx.astype(float)
        total += float(np.sum(mxf))
        total_sq += float(np.sum(mxf * mxf))
        remaining -= b
    _check_flagged(flagged, cfg.samples, what)
    return _estimate(total, total_sq, cfg.samples)


def mc_expected_max_rounds(n_links: int, p_g: float, cfg: McConfig) -> McEstimate:
    """Sample mean of the slowest link's heralding round over n_links links.

    Each trial draws one raw variate per link, as numpy's ``geometric(p_g)``
    would, and maps the largest through numpy's nondecreasing transform
    (switching at p = 1/3, pinned by ``TestGeometricRowMax``), so the maxima
    equal ``geometric(...).max(axis=1)`` bit for bit.  No round count is
    sampled from F(j)**n_links, so the estimate independently checks
    :func:`muxrepeater.chain.expected_max_rounds`.
    """
    if (isinstance(n_links, bool)
            or not isinstance(n_links, (int, np.integer)) or n_links < 1):
        raise ValueError("n_links must be >= 1")
    if not 0.0 < p_g <= 1.0:
        raise ValueError("p_g must lie in (0, 1]")
    return _slowest_rounds(p_g, n_links, cfg, "slowest-link waiting rounds")


def _mc_ahierarchical(plan: ChainPlan, cfg: McConfig) -> ChainMcResult:
    # Blind operation: every link, every connection, and the final detections
    # are independent per-period Bernoulli events, so the period count to the
    # first joint success is exactly geometric in their product.
    if plan.p_success <= 0.0:
        raise SimulationBudgetError(
            "per-period success probability underflowed to zero")
    if 1.0 / plan.p_success > cfg.max_rounds:
        raise SimulationBudgetError(
            "expected rounds per sample exceed max_rounds")
    rounds_est = _slowest_rounds(plan.p_success, 1, cfg,
                                 "blind-protocol rounds")
    t_rep = plan.t_rep_us
    return ChainMcResult(
        t_tot_us=McEstimate(mean=rounds_est.mean * t_rep,
                            std_error=rounds_est.std_error * t_rep,
                            samples_used=cfg.samples),
        mean_ef=McEstimate(mean=plan.mean_ef, std_error=0.0,
                           samples_used=cfg.samples))


def _earlier_pass_rounds(rng, passes, p: float, racers: int) -> np.ndarray:
    """Rounds of trial i's ``passes[i]`` failed passes, as an integer array.

    A pass lasts as long as the slowest of its geometric(p) racers.  Only the
    passes lasting 2+ rounds are drawn: a binomial count per trial, then one
    uniform each through the exact inverse CDF of the maximum given >= 2.
    """
    if p == 1.0:   # no slow pass, and log1p(-p) would be -inf
        return passes
    log_all_first = racers * math.log(p)   # p**racers may underflow to 0
    slow = rng.binomial(passes, -math.expm1(log_all_first))
    u = rng.uniform(math.exp(log_all_first), 1.0, size=slow.sum())
    j = np.ceil(np.log(-np.expm1(np.log(u) / racers)) / math.log1p(-p))
    extra = np.maximum(j.astype(np.int64), 2) - 1
    ends = np.concatenate(([0], np.cumsum(extra)))[np.cumsum(slow)]
    return passes + np.diff(ends, prepend=0)


def _mc_semihierarchical(plan: ChainPlan, racers: int, platform, space,
                         noise, c: float, cfg: McConfig) -> ChainMcResult:
    p_g, q, t_rep = plan.p_g, plan.p_success, plan.t_rep_us
    if p_g <= 0.0 or q <= 0.0:
        raise SimulationBudgetError(
            "per-attempt success probability underflowed to zero")
    if expected_max_rounds(racers, p_g) / q > cfg.max_rounds:
        raise SimulationBudgetError(
            "expected rounds per sample exceed max_rounds")
    rng = np.random.default_rng(cfg.seed)
    overhead = plan.l_km / c
    # derived from q alone, the trial chunk reproducibly bounds its expected
    # pass count, and so its slow-pass uniforms
    trial_chunk = max(1, min(_TRIAL_CHUNK, int(_PASS_BUDGET * q)))
    sums = np.zeros(4)   # T_tot, T_tot**2, E_F, E_F**2 over trials
    flagged = 0
    remaining = cfg.samples
    while remaining > 0:
        b = min(trial_chunk, remaining)
        # Heralded links hold until the slowest finishes; the connection
        # stage then either succeeds or the whole pass restarts, so the
        # number of passes per trial is geometric in q.
        attempts = rng.geometric(q, size=b)
        earlier = _earlier_pass_rounds(rng, attempts - 1, p_g, racers)
        last = rng.geometric(p_g, size=(b, racers))
        last_max = last.max(axis=1)
        rounds = earlier + last_max
        flagged += int(np.count_nonzero(rounds > cfg.max_rounds))
        t_trial = rounds.astype(float) * t_rep + attempts.astype(float) * overhead
        wait, index = np.unique(last_max[:, None] - last, return_inverse=True)
        # a memory waits l0/c for its own heralding before the hold begins,
        # so a first-try hold lasts the record's (L + L0)/c storage
        ef = mean_entanglement(platform, space, wait * t_rep + plan.storage_us,
                               noise)
        ef_trial = ef[index].reshape(last.shape).mean(axis=1)
        sums += [np.sum(t_trial), np.sum(t_trial * t_trial), np.sum(ef_trial),
                 np.sum(ef_trial * ef_trial)]
        remaining -= b
    _check_flagged(flagged, cfg.samples, "held-protocol rounds")
    return ChainMcResult(
        t_tot_us=_estimate(*sums[:2].tolist(), cfg.samples),
        mean_ef=_estimate(*sums[2:].tolist(), cfg.samples))


def mc_chain_time(architecture: str, platform: PlatformParams, n_nodes: int,
                  l_km: float, constants: PhysicalConstants, space: ModeSpace,
                  cfg: McConfig, noise: NoiseParams | None = None,
                  waiting_count: str = "links") -> ChainMcResult:
    """Simulate full distributions and estimate T_tot and the ebit content.

    The samplers read the :func:`muxrepeater.chain.chain_time` record,
    which also checks the arguments.  The blind architecture stores for
    exactly one clock period, so its ebit content is the record's (zero
    standard error).  The held architecture races N-1 or N heralders
    (``waiting_count``, as in ``chain_time``) and takes each trial's ebit
    content at the racers' realized storage times in the final, successful
    pass, averaged over racers.
    """
    plan = chain_time(architecture, platform, n_nodes, l_km, constants, space,
                      noise, waiting_count)
    if architecture == "ahierarchical":
        return _mc_ahierarchical(plan, cfg)
    return _mc_semihierarchical(plan, _racers(n_nodes, waiting_count),
                                platform, space, noise, constants.c, cfg)
