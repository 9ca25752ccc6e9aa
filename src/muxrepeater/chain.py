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
import sys
from dataclasses import dataclass

import numpy as np

from . import link as link_physics
from . import werner
from .modes import ModeSpace, tau_of_k
from .params import (NoiseParams, PhysicalConstants, PlatformParams,
                     _check_count)

ARCHITECTURES = ("ahierarchical", "semihierarchical")
WAITING_COUNTS = ("links", "nodes")

# (-1)**(k+1) * C(m, k) at row m, column k-1: the inclusion-exclusion
# weights of the exact waiting-factor branch, which past m = 12 loses more
# than 1e-13 to cancellation
_SIGNED_BINOMIALS = np.array([[(-1) ** (k + 1) * math.comb(m, k)
                               for k in range(1, 13)] for m in range(13)])
# the tail-sum branch stops where its geometric tail bound falls below this
# fraction of the sum, and starts a new slice of rows each time it has
# gathered this many terms
_TAIL_EPS = 1e-16
_TAIL_TERMS = 4096
# harmonic numbers H_m are summed up to this m; past it they come from the
# asymptotic series, whose error is below 1/(252 m^6) < 1e-31 there
_HARMONIC_TABLE = 2 ** 16


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


def _racers(n_nodes, waiting_count: str):
    """Heralders the held wait races: N-1 ("links") or N ("nodes")."""
    if waiting_count not in WAITING_COUNTS:
        raise ValueError(f"waiting_count must be one of {WAITING_COUNTS}")
    return n_nodes - 1 if waiting_count == "links" else n_nodes


def _int_power(base: np.ndarray, k: np.ndarray) -> np.ndarray:
    """base**k for a non-negative integer array ``k``, by repeated squaring.

    Float products round exactly, so every entry is the same whatever the
    shapes of the operands; numpy's vectorised pow can differ in the last
    bit between a contiguous and a broadcast operand.
    """
    base, k = np.broadcast_arrays(np.asarray(base, dtype=float), k)
    out = np.ones(base.shape)
    while np.any(k):
        out = np.where(k & 1, out * base, out)
        base = base * base
        k = k >> 1
    return out


def p_enc_chain(p_f: float, p_e: float, eta_x: float, n_nodes):
    """Probability that every connection across the chain succeeds.

    ceil((N-2)/2) first-stage and floor((N-2)/2) later-stage connections,
    with one multiplexing factor per node: p_f**ceil * p_e**floor * eta_x**N.
    N = 2 has no swap stations and reduces to eta_x**2.  ``n_nodes`` may be
    an integer array.  The factors are probabilities; one that underflowed
    to 0 gives P_enc = 0.
    """
    for name, value in (("p_f", p_f), ("p_e", p_e), ("eta_x", eta_x)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    counts = np.asarray(n_nodes)
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError("node counts must be integers")
    if np.any(counts < 2):
        raise ValueError("a chain needs at least 2 nodes")
    first = (n_nodes - 1) // 2
    later = (n_nodes - 2) // 2
    return p_f ** first * p_e ** later * eta_x ** n_nodes


def _tail_terms(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    # E[max] = sum_{j>=0} (1 - F(j)^m) with F(j) = 1 - (1-p)^j.  Each term
    # is at most m*(1-p)^j, so the tail past J is below m*(1-p)^(J+1)/p; J is
    # the least count (at least 1) with m*(1-p)^J/p <= _TAIL_EPS.
    with np.errstate(divide="ignore"):  # p = 1: log1p(-1) = -inf, J = 1
        ratio = _TAIL_EPS * p / m
        # past m ~ 1e290 the ratio leaves the normal range: log its factors
        log_ratio = np.where(ratio >= np.finfo(float).tiny, np.log(ratio),
                             np.log(_TAIL_EPS * p) - np.log(m))
        j = np.ceil(log_ratio / np.log1p(-p))
    return np.maximum(j, 1).astype(np.int64)


def _harmonic(m: np.ndarray) -> np.ndarray:
    """H_m for counts m >= 1, from a table of at most _HARMONIC_TABLE sums.

    Past the table H_m = ln m + gamma + 1/(2m) - 1/(12m^2) + 1/(120m^4),
    an alternating series whose error is below its first omitted term
    1/(252m^6), so a count of any size builds no array of its length.
    """
    out = np.empty(m.shape)
    summed = m <= _HARMONIC_TABLE
    table = np.cumsum(1.0 / np.arange(1, m[summed].max(initial=0) + 1))
    out[summed] = table[m[summed].astype(np.int64) - 1]
    x = m[~summed].astype(float)
    out[~summed] = np.log(x) + np.euler_gamma + (
        1.0 / (2.0 * x) - 1.0 / (12.0 * x ** 2) + 1.0 / (120.0 * x ** 4))
    return out


def _expected_max_rounds(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Array form of :func:`expected_max_rounds`; rows never interact."""
    out = np.empty(p.shape)
    exact = (m <= 12) & (p <= 0.5) & (p > 0)
    euler = (m >= 13) & (p <= 0.1) | (p == 0)
    # p = 1 gives log1p(-1) = -inf; at p = 0 the Euler-Maclaurin form divides
    # by lambda = +0, the inf wait of a link that cannot herald; a subnormal p
    # overflows both closed forms to the inf that is their value there
    with np.errstate(divide="ignore", over="ignore"):
        log_q = np.log1p(-p)
        # sum_k (-1)^(k+1) C(m,k) / (1 - (1-p)^k), with each term scaled by p
        # so that it stays finite down to the smallest p
        k = np.arange(1, 13)
        ratios = p[exact, None] / -np.expm1(k * log_q[exact, None])
        binomials = _SIGNED_BINOMIALS[m[exact].astype(np.int64)]
        out[exact] = np.sum(binomials * ratios, axis=1) / p[exact]
        # Euler-Maclaurin: H_m/lambda + 1/2 with lambda = -log(1-p); the
        # endpoint corrections vanish with the summand's derivatives at j = 0
        # below order m
        out[euler] = _harmonic(m[euler]) / -log_q[euler] + 0.5
    # every other row sums its own J terms as one segment of a ragged array
    tail = np.flatnonzero(~(exact | euler))
    counts = _tail_terms(m[tail], p[tail])
    cuts = np.flatnonzero(np.diff(np.cumsum(counts) // _TAIL_TERMS)) + 1
    for rows, n in zip(np.split(tail, cuts), np.split(counts, cuts)):
        starts = np.cumsum(n) - n
        j = np.arange(n.sum()) - np.repeat(starts - 1, n)  # 1..J per row
        qj = np.exp(np.repeat(log_q[rows], n) * j)
        with np.errstate(over="ignore"):  # -inf past m ~ 1e307: the term is 1
            terms = -np.expm1(np.repeat(m[rows], n) * np.log1p(-qj))
        out[rows] = 1.0 + np.add.reduceat(terms, starts)  # 1 is the j = 0 term
    return out


def expected_max_rounds(m: int, p: float) -> float:
    """Expected maximum of m independent geometric(p) round counts.

    This is the mean number of clock periods until the slowest of m links
    has heralded, from one of three closed forms: inclusion-exclusion for
    m <= 12 and p <= 0.5, the Euler-Maclaurin limit H_m/(-log(1-p)) + 1/2
    for m >= 13 and p <= 0.1 (H_m from its asymptotic series past
    m = 2**16), and otherwise the tail sum of P(max > j) cut
    where its geometric tail bound falls below 1e-16 (Eisenberg, Stat.
    Probab. Lett. 78, 135 (2008)).  The exact treatment of this waiting
    factor is in Bernardes, Praxmeyer & van Loock, PRA 83, 012323 (2011).
    """
    if isinstance(p, (bool, np.bool_)) or not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    _check_count(m, "m", 1)
    if m > sys.float_info.max:
        raise ValueError("m must not exceed the float range")
    # a float count: m may lie past the int64 range
    return float(_expected_max_rounds(np.array([float(m)]), np.array([p]))[0])


def mean_entanglement(platform: PlatformParams, space: ModeSpace, t_us,
                      noise: NoiseParams = NoiseParams()):
    """Mode-averaged ebit content of one stored link after time t.

    Platforms with a fixed lifetime evaluate a single visibility with their
    decoherence law; mode-dependent platforms average over the wavevector
    band.  ``t_us`` may be an array of storage times.
    """
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

    The per-second fields hold rate = mean_ef/t_tot_s (0 where mean_ef is
    0) and Q = rate/N, and t_tot_us divides the time per attempt by
    ``p_success``: the chance that a clock period (blind chain) or a
    connection pass (held) delivers.  The
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
    p_success: float       # one attempt delivers
    storage_us: float      # memory time entering the ebit-content average
    t_tot_us: float        # mean time per successful distribution
    mean_ef: float         # delivered ebits per distribution
    t_tot_s: float
    rate_ebit_per_s: float
    q_ebit_per_s_per_node: float   # the figure of merit Q = R/N
    t_per_ebit_s: float


def _connections(platform: PlatformParams, n):
    """P_enc at the node counts ``n``, and the final detection factor."""
    eta_det = platform.enc_detector_efficiency
    p_e, p_f = p_enc_stage(platform.eta_r, eta_det)
    return (p_enc_chain(p_f, p_e, platform.eta_x, n),
            (eta_det * platform.eta_x) ** 2)


def _chain_block(architecture: str, platform: PlatformParams, n: np.ndarray,
                 l_km, constants: PhysicalConstants, space: ModeSpace,
                 noise: NoiseParams = NoiseParams(),
                 waiting_count: str = "links",
                 averages: dict | None = None) -> ChainPlan:
    """Chain time budget for every node count in the integer array ``n``.

    One numpy pass; see :func:`chain_time` for the model.  With a column of
    distances ``l_km`` the array fields broadcast to (L, N), and each entry
    equals the :func:`chain_time` record at its (L, N).  ``averages`` keeps
    ebit averages for calls on the same L and N, keyed by what else fixes
    them: the architecture, chi_eff and the lifetime law.
    Products of probabilities may underflow to 0 at long chains; the
    resulting divisions by 0 (or by subnormals) give T_tot = inf, R = 0 and
    T_per_ebit = inf by design, as does a clock period L0/c past the float
    range, so those warnings are silenced here.
    """
    if architecture not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}")
    # p_enc_chain checks the node counts before any other use of n
    p_enc, eta_final = _connections(platform, n)
    racers = _racers(n, waiting_count)
    if not np.all((l_km > 0) & np.isfinite(l_km)):
        raise ValueError("total distance must be strictly positive and finite")
    l0_km = l_km / (n - 1)
    budget = link_physics.link_budget(platform, l0_km, constants)
    p_eng = _int_power(budget.p_g, n - 1)   # all N-1 links herald at once
    with np.errstate(divide="ignore", over="ignore"):
        t_rep = l0_km / constants.c
        if architecture == "ahierarchical":
            p_success = p_eng * p_enc * eta_final
            t_tot = t_rep / p_success
            storage = t_rep
        else:
            p_success = p_enc * eta_final
            m, p = (a.ravel() for a in np.broadcast_arrays(racers, budget.p_g))
            waits = _expected_max_rounds(m, p).reshape(t_rep.shape)
            t_tot = (t_rep * waits + l_km / constants.c) / p_success
            storage = (l_km + l0_km) / constants.c
        averages = {} if averages is None else averages
        key = (architecture, noise.effective_chi(platform),
               platform.tau_us, platform.decoherence)
        if key not in averages:
            averages[key] = mean_entanglement(platform, space, storage, noise)
        mean_ef = averages[key]
        t_tot_s = t_tot * 1e-6
        # exactly 0 where t_tot_s = inf, and set to 0 where no ebit arrives,
        # since 0/0 would be nan where t_tot_s underflows to 0
        rate_s = np.divide(mean_ef, t_tot_s, out=np.zeros(t_tot_s.shape),
                           where=mean_ef > 0)
        return ChainPlan(
            platform=platform.name, architecture=architecture, n_nodes=n,
            l_km=l_km, l0_km=l0_km, t_rep_us=t_rep, p1=budget.p1,
            p_g=budget.p_g, p_eng=p_eng, p_enc=p_enc, p_success=p_success,
            storage_us=storage, t_tot_us=t_tot, mean_ef=mean_ef,
            t_tot_s=t_tot_s, rate_ebit_per_s=rate_s,
            q_ebit_per_s_per_node=rate_s / n,
            t_per_ebit_s=1.0 / rate_s)


def _q_bound(architecture: str, platform: PlatformParams, n: int, l_km,
             constants: PhysicalConstants, space: ModeSpace,
             noise: NoiseParams = NoiseParams()):
    """Upper bound on Q(N', L) at every node count N' >= ``n``, per distance.

    Every efficiency is at most 1, so Q <= C * P_enc(N) * eta_final * c/L
    (in 1/s), with C = 1 for the blind chain, where E_F and
    (N-1)/N * P_eng are at most 1, and C = E(L/c)/N for the held chain,
    whose attempt takes at least L/c and whose ebit content E at storage
    (L+L0)/c is at most that at L/c.
    P_enc gains a factor p_f or p_e (both <= 1/2) and eta_x <= 1 per node,
    so the bound at ``n`` covers every larger N too.  The product is formed
    before the division by L, so a P_enc that underflowed gives 0, not nan.
    """
    p_enc, eta_final = _connections(platform, n)
    with np.errstate(divide="ignore", over="ignore"):
        bound = p_enc * eta_final * constants.c * 1e6
        if architecture == "semihierarchical":
            bound = bound * mean_entanglement(
                platform, space, l_km / constants.c, noise) / n
        return bound / l_km


def chain_time(architecture: str, platform: PlatformParams, n_nodes: int,
               l_km: float, constants: PhysicalConstants, space: ModeSpace,
               noise: NoiseParams = NoiseParams(),
               waiting_count: str = "links") -> ChainPlan:
    """Evaluate the full time budget of one chain configuration.

    Parameters
    ----------
    architecture : "ahierarchical" or "semihierarchical"
    platform, n_nodes, l_km : one chain configuration, L0 = L/(N-1);
        :func:`muxrepeater.sweep.sweep` takes grids.
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
    if np.ndim(n_nodes) or np.ndim(l_km):
        raise ValueError("chain_time takes one node count and one distance; "
                         "use sweep for a grid")
    block = _chain_block(architecture, platform, np.array([n_nodes]), l_km,
                         constants, space, noise, waiting_count)
    return _rows(block, [0])[0]


def _rows(block: ChainPlan, *at) -> list[ChainPlan]:
    """Entries at index arrays ``at`` of a :func:`_chain_block` record."""
    columns = (np.broadcast_to(value, block.t_rep_us.shape)[at].tolist()
               for value in vars(block).values())
    return [ChainPlan(*row) for row in zip(*columns)]


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
                 constants: PhysicalConstants = PhysicalConstants(),
                 noise: NoiseParams = NoiseParams()) -> RangeLimits:
    """Distances beyond which the reference mode holds no entanglement.

    The stored state stays entangled for t/tau inside
    :func:`link.entangled_window` of chi = chi_eff of ``noise`` (zero
    read-out noise by default).  With blind storage t = L0/c that bounds the
    elementary distance at c*tau*window.  The semihierarchical limit is the
    paper's closed form (N-1)/N * tau/2 * c * log(1/chi) on the total
    distance, log(1/chi) being the exponential window (``n_nodes=None``
    takes the many-node limit); it is not the model's own zero point, which
    can lie further out.  Under exponential decay the held storage
    (L+L0)/c keeps the model entangled up to (N-1)/N * c * tau * log(1/chi),
    exactly twice this limit.  Fixed-lifetime platforms use their own tau;
    mode-dependent platforms use tau(K_ref).  At chi >= 1 (read-out noise
    can push chi_eff there) the window is 0 and so are both limits, even
    where tau is inf.
    """
    if n_nodes is not None:
        _check_count(n_nodes, "n_nodes", 2)
    chi = noise.effective_chi(platform)
    if platform.tau_us is not None:
        tau = platform.tau_us
        k_ref = None
    else:
        if k_ref_inv_mm is None or not k_ref_inv_mm > 0:
            raise ValueError("a positive K_ref is required for "
                             "mode-dependent lifetimes")
        tau = tau_of_k(k_ref_inv_mm, space.gamma)
        k_ref = k_ref_inv_mm
    reach = link_physics.entangled_window(chi, platform.decoherence)
    log_gain = link_physics.entangled_window(chi, "exponential")
    l0_max = constants.c * tau * reach if reach else 0.0
    factor = 1.0 if n_nodes is None else (n_nodes - 1) / n_nodes
    l_max = factor * (tau / 2.0) * constants.c * log_gain if log_gain else 0.0
    return RangeLimits(l0_max_ahier_km=l0_max, l_max_semihier_km=l_max,
                       k_ref_inv_mm=k_ref, tau_us=tau)


def spdc_time(l_km: float, spdc, constants: PhysicalConstants) -> float:
    """Mean time between detected pairs from a midway pair source, in us.

    The source sits halfway, so each photon of a pair crosses L/2 and the
    pair transmission is 10**(-alpha*L/10).  The time is the reciprocal of
    the detected-pair rate chi * eta_s**2 * f_rep * transmission (inf at
    rate 0); the visibility does not enter.  Formed in us, it overflows to
    inf while the rate is non-zero (default source: from about 15,404 km,
    rate 0 only from 16,181 km), though in seconds it would be finite;
    ROADMAP.md item 5 would keep its digits.
    """
    if not l_km >= 0:
        raise ValueError("distance must be non-negative")
    pair_transmission = link_physics.transmission(l_km, constants.alpha)
    rate = spdc.chi * spdc.eta_s ** 2 * spdc.f_rep * pair_transmission
    return 1.0 / rate if rate > 0.0 else math.inf
