"""Stochastic round-level simulation of the chain protocol.

Serves as an independent check on the analytic waiting-time and total-time
formulas.  :func:`mc_chain_time` takes every deterministic chain quantity
(clock period, link and connection probabilities, first-try storage, the
blind ebit content) from the :func:`muxrepeater.chain.chain_time` record, so
the cross-check differs from the model only by what it samples.  Every
estimate runs through one trial loop, :func:`_sample`.  Draws come from
numpy's PCG64 generator seeded through ``default_rng(seed)``, in trial chunks
sized from the inputs alone, and integer round counts sum exactly, so a
given seed reproduces the same estimates bit for bit on every run.  The
held-chain sampler draws raw per-racer rounds only for a trial's final pass;
:func:`_earlier_pass_rounds` draws the earlier ones.

The slowest-racer sampler draws, per racer, the raw variate numpy's geometric
consumes (an exponential below p = 1/3, a uniform from 1/3 up) and maps only
each trial's largest through numpy's nondecreasing transform, so its maxima
equal ``geometric(...).max(axis=1)`` bit for bit; ``TestGeometricRowMax``
pins that coupling on both sides of the branch point.  Its trial chunk
bounds each draw to ``_DRAW_BLOCK`` raw variates (1 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (ChainPlan, _racers, chain_time, expected_max_rounds,
                    mean_entanglement)
from .modes import ModeSpace
from .params import (NoiseParams, PhysicalConstants, PlatformParams,
                     _check_count)

_TRIAL_CHUNK = 1 << 16
_PASS_BUDGET = 1 << 22
# raw variates per slowest-racer trial chunk (1 MB of float64)
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
            _check_count(getattr(self, name), name, least)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples_used: int


@dataclass(frozen=True)
class ChainMcResult:
    t_tot_us: McEstimate
    mean_ef: McEstimate
    plan: ChainPlan      # the chain_time record the samplers read


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

    cumprod and cumsum take the loop's ``prod *= q; sum += prod`` steps.  At
    p >= 1/3 the term p*q**k is below half an ulp of the sum by k = 90; the
    later of the 128 sums repeat the last or are at least 1, so
    ``searchsorted`` finds numpy's k.  A uniform above a last sum below 1
    (chance below 1e-15) never ends numpy's loop and maps to any index here.
    """
    terms = np.full(128, 1.0 - p)
    terms[0] = p
    return np.cumsum(np.cumprod(terms))


def _geometric_row_max(rng, p: float, shape: tuple[int, int]) -> np.ndarray:
    """``rng.geometric(p, size=shape).max(axis=1)``, bit for bit.

    Draws the raw variates numpy's geometric consumes, one per racer and in
    the same order, so the generator ends in the same state.  numpy maps each
    through a nondecreasing function, so only the row maxima are mapped.
    Callers bound ``shape`` to ``_DRAW_BLOCK`` values by their trial chunk.
    """
    search = p >= _GEOMETRIC_SEARCH_FROM
    x = (rng.random if search else rng.standard_exponential)(size=shape)
    if shape[1] > _COLUMN_MAX_UP_TO:
        mx = x.max(axis=1)
    else:
        mx = x[:, 0].copy()
        for j in range(1, shape[1]):
            np.maximum(mx, x[:, j], out=mx)
    if search:
        return np.searchsorted(_geometric_search_sums(p), mx) + 1
    # at tiny p, z passes INT64_MAX (inf at subnormal p); numpy saturates
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.ceil(-mx / math.log1p(-p))
        return np.where(z >= _INT64_SATURATION, np.iinfo(np.int64).max,
                        z.astype(np.int64))


def _sample(cfg: McConfig, chunk: int, draw, what: str) -> list[McEstimate]:
    """Estimates of the per-trial float columns ``draw(b)`` returns.

    ``draw`` simulates chunks of at most ``chunk`` trials and also returns
    their round counts; too many past max_rounds fail the estimate.
    """
    sums = 0.0   # per column: float64 sum and sum of squares of its chunks
    flagged = 0
    remaining = cfg.samples
    while remaining > 0:
        b = min(chunk, remaining)
        columns, rounds = draw(b)
        flagged += int(np.count_nonzero(rounds > cfg.max_rounds))
        sums = sums + np.array([(np.sum(c), np.sum(c * c)) for c in columns])
        remaining -= b
    if flagged > _FLAG_FRACTION * cfg.samples:
        raise SimulationBudgetError(
            f"{flagged} of {cfg.samples} samples exceeded max_rounds while "
            f"simulating {what}; raise max_rounds or rethink the parameters")
    return [_estimate(*pair, cfg.samples) for pair in sums.tolist()]


def _slowest_rounds(p: float, links: int, cfg: McConfig, what: str) -> McEstimate:
    """Mean over trials of the slowest of ``links`` geometric(p) rounds."""
    rng = np.random.default_rng(cfg.seed)

    def draw(b):
        mx = _geometric_row_max(rng, p, (b, links))
        # float sums are exact below 2**53 and, unlike int64, never wrap
        return (mx.astype(float),), mx

    chunk = min(_TRIAL_CHUNK, max(1, _DRAW_BLOCK // links))
    return _sample(cfg, chunk, draw, what)[0]


def mc_expected_max_rounds(n_links: int, p_g: float, cfg: McConfig) -> McEstimate:
    """Sample mean of the slowest link's heralding round over n_links links.

    Each trial draws one raw variate per link, as numpy's ``geometric(p_g)``
    would, and maps the largest through numpy's nondecreasing transform
    (switching at p = 1/3, pinned by ``TestGeometricRowMax``), so the maxima
    equal ``geometric(...).max(axis=1)`` bit for bit.  No round count is
    sampled from F(j)**n_links, so the estimate independently checks
    :func:`muxrepeater.chain.expected_max_rounds`.
    """
    _check_count(n_links, "n_links", 1)
    if isinstance(p_g, (bool, np.bool_)) or not 0.0 < p_g <= 1.0:
        raise ValueError("p_g must lie in (0, 1]")
    return _slowest_rounds(p_g, n_links, cfg, "slowest-link waiting rounds")


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


def mc_chain_time(architecture: str, platform: PlatformParams, n_nodes: int,
                  l_km: float, constants: PhysicalConstants, space: ModeSpace,
                  cfg: McConfig, noise: NoiseParams = NoiseParams(),
                  waiting_count: str = "links") -> ChainMcResult:
    """Simulate full distributions and estimate T_tot and the ebit content.

    Every deterministic quantity comes from the ``chain.chain_time`` record,
    which also checks the arguments.  The blind chain stores for exactly one
    clock period, so its ebit content is the record's (zero standard error).
    The held chain races N-1 or N heralders (``waiting_count``, as in
    ``chain_time``) and takes each trial's ebit content at the racers'
    realized storage times in the final, successful pass, averaged over
    racers.

    Two budget errors, read from the record before any draw: a T_tot that
    is not finite (the chain never delivers) and expected rounds per sample,
    the waiting factor (1 when blind) over ``p_success``, past max_rounds.
    """
    plan = chain_time(architecture, platform, n_nodes, l_km, constants, space,
                      noise, waiting_count)
    blind = architecture == "ahierarchical"
    racers = _racers(n_nodes, waiting_count)
    p_g, q, t_rep = plan.p_g, plan.p_success, plan.t_rep_us
    if not plan.t_tot_us < math.inf:
        raise SimulationBudgetError(
            f"the chain never delivers: T_tot = {plan.t_tot_us}")
    factor = 1.0 if blind else expected_max_rounds(racers, p_g)
    if factor / q > cfg.max_rounds:
        raise SimulationBudgetError(
            "expected rounds per sample exceed max_rounds")
    if blind:
        # every link, connection and final detection is an independent
        # per-period Bernoulli event: the period count is geometric in q
        r = _slowest_rounds(q, 1, cfg, "blind-protocol rounds")
        t_tot = McEstimate(r.mean * t_rep, r.std_error * t_rep, cfg.samples)
        return ChainMcResult(t_tot, McEstimate(plan.mean_ef, 0.0, cfg.samples),
                             plan)
    rng = np.random.default_rng(cfg.seed)
    overhead = plan.l_km / constants.c

    def draw(b):
        # Heralded links hold until the slowest finishes; the connection
        # stage then either succeeds or the whole pass restarts, so the
        # number of passes per trial is geometric in q.
        attempts = rng.geometric(q, size=b)
        earlier = _earlier_pass_rounds(rng, attempts - 1, p_g, racers)
        last = rng.geometric(p_g, size=(b, racers))
        last_max = last.max(axis=1)
        rounds = earlier + last_max
        t_trial = rounds.astype(float) * t_rep + attempts.astype(float) * overhead
        wait, index = np.unique(last_max[:, None] - last, return_inverse=True)
        # a memory waits l0/c for its own heralding before the hold begins,
        # so a first-try hold lasts the record's (L + L0)/c storage
        ef = mean_entanglement(platform, space, wait * t_rep + plan.storage_us,
                               noise)
        return (t_trial, ef[index].reshape(last.shape).mean(axis=1)), rounds

    # derived from q alone, the trial chunk reproducibly bounds its expected
    # pass count, and so its slow-pass uniforms
    trial_chunk = max(1, min(_TRIAL_CHUNK, int(_PASS_BUDGET * q)))
    return ChainMcResult(*_sample(cfg, trial_chunk, draw,
                                  "held-protocol rounds"), plan)
