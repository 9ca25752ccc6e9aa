"""End-to-end repeater chain model for both synchronization architectures.

In the ahierarchical architecture every node acts blindly each clock period
T_r = L0/c, so a distribution attempt succeeds only when all N-1 links herald
AND every connection stage and the final detections succeed in the same
period.  In the semihierarchical architecture a central station lets links
that heralded hold their memories until the slowest link catches up, at the
price of an L/c confirmation overhead per attempt and of longer storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import link as link_physics
from . import werner
from .modes import ModeSpace
from .params import NoiseParams, PhysicalConstants, PlatformParams

ARCHITECTURES = ("ahierarchical", "semihierarchical")
WAITING_COUNTS = ("links", "nodes")

# crossover below which the waiting-time series is evaluated by its
# Euler-Maclaurin limit instead of direct summation
_SERIES_MIN_P = 1e-3
_SERIES_BLOCK = 4096


def p_enc_stage(eta_r: float, eta_det: float) -> tuple[float, float]:
    """Per-station connection probabilities (p_e, p_f).

    Both memories must read out and both photons must be detected, and the
    coincidence pattern post-selection keeps at most half the outcomes:
    p_e = (eta_r * eta_det)**2 / 2.  First-stage connections post-select
    twice as hard on each side: p_f = p_e / 4.
    """
    for name, value in (("eta_r", eta_r), ("eta_det", eta_det)):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} must lie in (0, 1]")
    p_e = (eta_r * eta_det) ** 2 / 2.0
    return p_e, p_e / 4.0


def p_eng_chain(p_g, n_nodes):
    """Probability that all N-1 links herald simultaneously: p_g**(N-1).

    Accepts scalars or matching arrays of p_g and N.
    """
    if np.any(np.asarray(n_nodes) < 2):
        raise ValueError("a chain needs at least 2 nodes")
    return p_g ** (n_nodes - 1)


def p_enc_chain(p_f: float, p_e: float, eta_x: float, n_nodes):
    """Probability that every connection across the chain succeeds.

    ceil((N-2)/2) first-stage and floor((N-2)/2) later-stage connections,
    with one multiplexing factor per node: p_f**ceil * p_e**floor * eta_x**N.
    N = 2 has no swap stations and reduces to eta_x**2.  ``n_nodes`` may be
    an integer array.
    """
    if np.any(np.asarray(n_nodes) < 2):
        raise ValueError("a chain needs at least 2 nodes")
    first = (n_nodes - 1) // 2
    later = (n_nodes - 2) // 2
    return p_f ** first * p_e ** later * eta_x ** n_nodes


def _expected_max_series(m: np.ndarray, p: np.ndarray, eps: float) -> np.ndarray:
    # E[max] = sum_{j>=0} (1 - F(j)^m) with F(j) = 1 - (1-p)^j.  Each term
    # is bounded by m*(1-p)^j, so the tail past J is below m*(1-p)^(J+1)/p;
    # that geometric bound drives the truncation, row by row.  A block spans
    # about _SERIES_BLOCK (row, j) terms over the rows still summing, so a
    # single row sums j in blocks of exactly _SERIES_BLOCK.
    log_q = np.log1p(-p)
    total = np.ones_like(p)  # j = 0 term
    live = np.arange(p.size)
    j = 1
    while live.size:
        width = max(1, _SERIES_BLOCK // live.size)
        js = np.arange(j, j + width, dtype=float)
        qj = np.exp(log_q[live, None] * js)
        total[live] += np.sum(-np.expm1(m[live, None] * np.log1p(-qj)), axis=1)
        j += width
        pl = p[live]
        live = live[m[live] * qj[:, -1] * (1.0 - pl) >= eps * pl * total[live]]
    return total


def _expected_max_asymptotic(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    # Euler-Maclaurin sum of the same series: H_m/lambda + 1/2 with
    # lambda = -log(1-p); endpoint corrections are O(lambda^3) because the
    # first derivative of the summand vanishes at j = 0 for m >= 2.
    harmonic = np.cumsum(1.0 / np.arange(1, np.max(m) + 1))
    return harmonic[m - 1] / -np.log1p(-p) + 0.5


def _expected_max_rounds(m: np.ndarray, p: np.ndarray,
                         eps: float = 1e-12) -> np.ndarray:
    """Array form of :func:`expected_max_rounds` for valid (m, p) pairs."""
    out = np.empty(p.shape)
    sure = p == 1.0
    single = ~sure & (m == 1)
    asymptotic = ~sure & ~single & (p < _SERIES_MIN_P)
    series = ~(sure | single | asymptotic)
    out[sure] = 1.0
    out[single] = 1.0 / p[single]
    if asymptotic.any():  # np.max of an empty m would raise
        out[asymptotic] = _expected_max_asymptotic(m[asymptotic], p[asymptotic])
    out[series] = _expected_max_series(m[series], p[series], eps)
    return out


def expected_max_rounds(m: int, p: float, eps: float = 1e-12) -> float:
    """Expected maximum of m independent geometric(p) round counts.

    This is the mean number of clock periods until the slowest of m links
    heralds.  Exact for p = 1 and m = 1; otherwise the tail-sum series is
    truncated at relative tolerance ``eps``, switching to its asymptotic
    limit where direct summation would need more than ~1e4/p terms.  The
    exact treatment of this waiting factor is in Bernardes, Praxmeyer & van
    Loock, PRA 83, 012323 (2011).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    return float(_expected_max_rounds(np.array([m]), np.array([p]), eps)[0])


def mean_entanglement(platform: PlatformParams, space: ModeSpace, t_us,
                      noise: NoiseParams | None = None):
    """Mode-averaged ebit content of one stored link after time t.

    Platforms with a fixed lifetime evaluate a single visibility with their
    decoherence law; mode-dependent platforms average over the wavevector
    band.  ``t_us`` may be an array of storage times.
    """
    noise = noise or NoiseParams()
    chi_eff = noise.effective_chi(platform)
    if platform.tau_us is None:
        ef = werner._average_ef(space, t_us, chi_eff)
        return float(ef) if ef.ndim == 0 else ef
    v = link_physics.visibility_at(t_us, platform.tau_us, chi_eff,
                                   platform.decoherence)
    return werner.entanglement_of_formation(v)


@dataclass(frozen=True)
class ChainPlan:
    """One evaluated chain configuration (times in us, ``*_s`` fields in s).

    The per-second fields hold rate = mean_ef/t_tot_s and Q = rate/N.  The
    array core :func:`_chain_block` fills the per-N fields with one entry
    per node count; :func:`chain_time` returns plain numbers.
    """

    platform: str
    architecture: str
    n_nodes: int
    l_km: float
    l0_km: float
    t_rep_us: float
    p1: float
    p_g: float
    p_eng: float           # all links herald in one period
    p_enc: float           # all connections succeed
    storage_us: float      # memory time entering the ebit-content average
    t_tot_us: float        # mean time per successful distribution
    mean_ef: float         # delivered ebits per distribution
    t_tot_s: float
    rate_ebit_per_s: float
    q_ebit_per_s_per_node: float   # the figure of merit Q = R/N
    t_per_ebit_s: float


def _chain_setup(platform: PlatformParams, n_nodes, l_km: float,
                 constants: PhysicalConstants):
    """L0, clock period, link budget, P_ENC and (eta_d*eta_x)**2 of a chain.

    ``n_nodes`` may be an integer array; the per-N results are then arrays.
    """
    if np.any(np.asarray(n_nodes) < 2):
        raise ValueError("a chain needs at least 2 nodes")
    if l_km <= 0:
        raise ValueError("total distance must be strictly positive")
    l0_km = l_km / (n_nodes - 1)
    t_rep = l0_km / constants.c
    budget = link_physics.link_budget(platform, l0_km, constants)
    eta_det = platform.enc_detector_efficiency
    p_e, p_f = p_enc_stage(platform.eta_r, eta_det)
    p_enc = p_enc_chain(p_f, p_e, platform.eta_x, n_nodes)
    eta_final = (eta_det * platform.eta_x) ** 2
    return l0_km, t_rep, budget, p_enc, eta_final


def _chain_block(architecture: str, platform: PlatformParams, n: np.ndarray,
                 l_km: float, constants: PhysicalConstants, space: ModeSpace,
                 noise: NoiseParams | None = None,
                 waiting_count: str = "links") -> ChainPlan:
    """Chain time budget for every node count in the integer array ``n``.

    One numpy pass over N; see :func:`chain_time` for the model.  Products
    of probabilities may underflow to 0 at long chains; the resulting
    divisions by 0 (or by subnormals) give T_tot = inf, R = 0 and
    T_per_ebit = inf by design, so those warnings are silenced here.
    """
    if architecture not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}")
    if waiting_count not in WAITING_COUNTS:
        raise ValueError(f"waiting_count must be one of {WAITING_COUNTS}")
    l0_km, t_rep, budget, p_enc, eta_final = _chain_setup(
        platform, n, l_km, constants)
    p_eng = p_eng_chain(budget.p_g, n)
    with np.errstate(divide="ignore", over="ignore"):
        if architecture == "ahierarchical":
            t_tot = t_rep / (p_eng * p_enc * eta_final)
            storage = t_rep
        else:
            waits = np.full(n.shape, np.inf)
            heralds = budget.p_g > 0.0
            racers = n - 1 if waiting_count == "links" else n
            waits[heralds] = _expected_max_rounds(racers[heralds],
                                                  budget.p_g[heralds])
            t_tot = (t_rep * waits + l_km / constants.c) / (p_enc * eta_final)
            storage = (l_km + l0_km) / constants.c
        mean_ef = mean_entanglement(platform, space, storage, noise)
        t_tot_s = t_tot * 1e-6
        rate_s = mean_ef / t_tot_s   # exactly 0 where t_tot_s = inf
        return ChainPlan(
            platform=platform.name, architecture=architecture, n_nodes=n,
            l_km=l_km, l0_km=l0_km, t_rep_us=t_rep, p1=budget.p1,
            p_g=budget.p_g, p_eng=p_eng, p_enc=p_enc, storage_us=storage,
            t_tot_us=t_tot, mean_ef=mean_ef, t_tot_s=t_tot_s,
            rate_ebit_per_s=rate_s, q_ebit_per_s_per_node=rate_s / n,
            t_per_ebit_s=1.0 / rate_s)


def chain_time(architecture: str, platform: PlatformParams, n_nodes: int,
               l_km: float, constants: PhysicalConstants, space: ModeSpace,
               noise: NoiseParams | None = None,
               waiting_count: str = "links") -> ChainPlan:
    """Evaluate the full time budget of one chain configuration.

    Parameters
    ----------
    architecture : "ahierarchical" or "semihierarchical"
    platform, n_nodes, l_km : chain configuration; L0 = L/(N-1).
    constants, space, noise : physical inputs; ``noise`` defaults to zero
        read-out noise.
    waiting_count : heralding processes racing in the semihierarchical
        wait, one per link ("links", N-1) or one per node ("nodes", N).

    Notes
    -----
    The mean distribution time is T_r/(P_eng * P_enc * eta_d^2 * eta_x^2)
    for the blind architecture, where eta_d is the platform's
    connection-stage detector efficiency.  The semihierarchical budget
    replaces T_r/P_eng by the expected slowest-link wait plus the L/c
    confirmation overhead.  Storage times are L0/c (blind) and (L+L0)/c
    (semihierarchical, first-try assumption); the stochastic refinement
    lives in the Monte Carlo module.  A configuration whose delivered ebit
    content is zero is still a valid record with zero rate and infinite
    per-ebit time.
    """
    block = _chain_block(architecture, platform, np.array([n_nodes]), l_km,
                         constants, space, noise, waiting_count)
    return ChainPlan(**{
        name: value[0].item() if isinstance(value, np.ndarray) else value
        for name, value in vars(block).items()})


@dataclass(frozen=True)
class RangeLimits:
    """Maximal reach set by the entanglement threshold of the mode at K_ref."""

    l0_max_ahier_km: float
    l_max_semihier_km: float
    k_ref_inv_mm: float | None
    tau_us: float


def range_limits(platform: PlatformParams, space: ModeSpace,
                 k_ref_inv_mm: float | None = None,
                 n_nodes: int | None = None,
                 constants: PhysicalConstants | None = None,
                 chi: float | None = None) -> RangeLimits:
    """Distances beyond which the reference mode holds no entanglement.

    The stored state stays entangled while chi * exp((t/tau)**2) < 1.  With
    blind storage t = L0/c that bounds the elementary distance at
    c*tau*sqrt(log(1/chi)); with semihierarchical storage t = (L+L0)/c it
    bounds the total distance at (N-1)/N * tau/2 * c * log(1/chi)
    (``n_nodes=None`` takes the many-node limit).  Fixed-lifetime platforms
    use their own tau; mode-dependent platforms use tau(K_ref).
    """
    constants = constants or PhysicalConstants()
    chi = platform.chi if chi is None else chi
    if not 0.0 < chi <= 1.0:
        raise ValueError("chi must lie in (0, 1]")
    if platform.tau_us is not None:
        tau = platform.tau_us
        k_ref = None
    else:
        if k_ref_inv_mm is None or k_ref_inv_mm <= 0:
            raise ValueError("a positive K_ref is required for "
                             "mode-dependent lifetimes")
        tau = space.gamma / k_ref_inv_mm
        k_ref = k_ref_inv_mm
    log_gain = math.log(1.0 / chi)
    l0_max = constants.c * tau * math.sqrt(log_gain)
    factor = 1.0 if n_nodes is None else (n_nodes - 1) / n_nodes
    l_max = factor * (tau / 2.0) * constants.c * log_gain
    return RangeLimits(l0_max_ahier_km=l0_max, l_max_semihier_km=l_max,
                       k_ref_inv_mm=k_ref, tau_us=tau)


def spdc_time(l_km: float, spdc, constants: PhysicalConstants) -> float:
    """Mean time per detected ebit from a midway pair source, in us.

    The source sits halfway, so each photon of a pair crosses L/2 and the
    pair transmission is 10**(-alpha*L/10).  The detected-pair rate is
    chi * eta_s**2 * f_rep * that transmission; the returned time is its
    reciprocal divided by the ebit content of the source state.
    """
    if l_km < 0:
        raise ValueError("distance must be non-negative")
    pair_transmission = link_physics.transmission(l_km, constants.alpha)
    rate = spdc.chi * spdc.eta_s ** 2 * spdc.f_rep * pair_transmission
    ef = float(werner.entanglement_of_formation(spdc.visibility))
    if ef <= 0.0 or rate <= 0.0:
        return math.inf
    return 1.0 / rate / ef
