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


def _check_node_counts(n_nodes) -> None:
    """Reject a node count, or array of them, that is not an integer >= 2."""
    n_nodes = np.asarray(n_nodes)
    if not np.issubdtype(n_nodes.dtype, np.integer):
        raise ValueError("node counts must be integers")
    if np.any(n_nodes < 2):
        raise ValueError("a chain needs at least 2 nodes")


def _racers(n_nodes, waiting_count: str):
    """Heralders the held wait races: N-1 ("links") or N ("nodes")."""
    if waiting_count not in WAITING_COUNTS:
        raise ValueError(f"waiting_count must be one of {WAITING_COUNTS}")
    return n_nodes - 1 if waiting_count == "links" else n_nodes


def p_enc_chain(p_f: float, p_e: float, eta_x: float, n_nodes):
    """Probability that every connection across the chain succeeds.

    ceil((N-2)/2) first-stage and floor((N-2)/2) later-stage connections,
    with one multiplexing factor per node: p_f**ceil * p_e**floor * eta_x**N.
    N = 2 has no swap stations and reduces to eta_x**2.  ``n_nodes`` may be
    an integer array.
    """
    _check_node_counts(n_nodes)
    first = (n_nodes - 1) // 2
    later = (n_nodes - 2) // 2
    return p_f ** first * p_e ** later * eta_x ** n_nodes


def _tail_terms(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    # E[max] = sum_{j>=0} (1 - F(j)^m) with F(j) = 1 - (1-p)^j.  Each term
    # is at most m*(1-p)^j, so the tail past J is below m*(1-p)^(J+1)/p; J is
    # the least count (at least 1) with m*(1-p)^J/p <= _TAIL_EPS.
    with np.errstate(divide="ignore"):  # p = 1: log1p(-1) = -inf, J = 1
        j = np.ceil(np.log(_TAIL_EPS * p / m) / np.log1p(-p))
    return np.maximum(j, 1).astype(np.int64)


def _expected_max_rounds(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Array form of :func:`expected_max_rounds`; rows never interact."""
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-p)
    out = np.empty(p.shape)
    exact = (m <= 12) & (p <= 0.5)
    euler = (m >= 13) & (p <= 0.1)
    # sum_k (-1)^(k+1) C(m,k) / (1 - (1-p)^k), with each term scaled by p so
    # that it stays finite down to the smallest p
    ratios = p[exact, None] / -np.expm1(np.arange(1, 13) * log_q[exact, None])
    out[exact] = np.sum(_SIGNED_BINOMIALS[m[exact]] * ratios, axis=1) / p[exact]
    # Euler-Maclaurin: H_m/lambda + 1/2 with lambda = -log(1-p); the endpoint
    # corrections vanish with the summand's derivatives at j = 0 below order m
    harmonic = np.cumsum(1.0 / np.arange(1, m[euler].max(initial=0) + 1))
    out[euler] = harmonic[m[euler] - 1] / -log_q[euler] + 0.5
    # every other row sums its own J terms as one segment of a ragged array
    tail = np.flatnonzero(~(exact | euler))
    counts = _tail_terms(m[tail], p[tail])
    cuts = np.flatnonzero(np.diff(np.cumsum(counts) // _TAIL_TERMS)) + 1
    for rows, n in zip(np.split(tail, cuts), np.split(counts, cuts)):
        starts = np.cumsum(n) - n
        j = np.arange(n.sum()) - np.repeat(starts - 1, n)  # 1..J per row
        qj = np.exp(np.repeat(log_q[rows], n) * j)
        terms = -np.expm1(np.repeat(m[rows], n) * np.log1p(-qj))
        out[rows] = 1.0 + np.add.reduceat(terms, starts)  # 1 is the j = 0 term
    return out


def expected_max_rounds(m: int, p: float) -> float:
    """Expected maximum of m independent geometric(p) round counts.

    This is the mean number of clock periods until the slowest of m links
    heralds, from one of three closed forms: inclusion-exclusion for
    m <= 12 and p <= 0.5, the Euler-Maclaurin limit H_m/(-log(1-p)) + 1/2
    for m >= 13 and p <= 0.1, and otherwise the tail sum of P(max > j) cut
    where its geometric tail bound falls below 1e-16 (Eisenberg, Stat.
    Probab. Lett. 78, 135 (2008)).  The exact treatment of this waiting
    factor is in Bernardes, Praxmeyer & van Loock, PRA 83, 012323 (2011).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError("m must be an integer >= 1")
    return float(_expected_max_rounds(np.array([m]), np.array([p]))[0])


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

    The per-second fields hold rate = mean_ef/t_tot_s and Q = rate/N, and
    t_tot_us divides the time per attempt by ``p_success``: the chance that
    a clock period (blind chain) or a connection pass (held) delivers.  The
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


def _chain_block(architecture: str, platform: PlatformParams, n: np.ndarray,
                 l_km, constants: PhysicalConstants, space: ModeSpace,
                 noise: NoiseParams | None = None,
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
    racers = _racers(n, waiting_count)
    _check_node_counts(n)
    if not np.all((l_km > 0) & np.isfinite(l_km)):
        raise ValueError("total distance must be strictly positive and finite")
    l0_km = l_km / (n - 1)
    budget = link_physics.link_budget(platform, l0_km, constants)
    eta_det = platform.enc_detector_efficiency
    p_e, p_f = p_enc_stage(platform.eta_r, eta_det)
    p_enc = p_enc_chain(p_f, p_e, platform.eta_x, n)
    eta_final = (eta_det * platform.eta_x) ** 2
    p_eng = budget.p_g ** (n - 1)   # all N-1 links herald in one period
    with np.errstate(divide="ignore", over="ignore"):
        t_rep = l0_km / constants.c
        if architecture == "ahierarchical":
            p_success = p_eng * p_enc * eta_final
            t_tot = t_rep / p_success
            storage = t_rep
        else:
            p_success = p_enc * eta_final
            waits = np.full(t_rep.shape, np.inf)
            heralds = budget.p_g > 0.0
            racers = np.broadcast_to(racers, t_rep.shape)
            waits[heralds] = _expected_max_rounds(racers[heralds],
                                                  budget.p_g[heralds])
            t_tot = (t_rep * waits + l_km / constants.c) / p_success
            storage = (l_km + l0_km) / constants.c
        averages = {} if averages is None else averages
        key = (architecture, (noise or NoiseParams()).effective_chi(platform),
               platform.tau_us, platform.decoherence)
        if key not in averages:
            averages[key] = mean_entanglement(platform, space, storage, noise)
        mean_ef = averages[key]
        t_tot_s = t_tot * 1e-6
        rate_s = mean_ef / t_tot_s   # exactly 0 where t_tot_s = inf
        return ChainPlan(
            platform=platform.name, architecture=architecture, n_nodes=n,
            l_km=l_km, l0_km=l0_km, t_rep_us=t_rep, p1=budget.p1,
            p_g=budget.p_g, p_eng=p_eng, p_enc=p_enc, p_success=p_success,
            storage_us=storage, t_tot_us=t_tot, mean_ef=mean_ef,
            t_tot_s=t_tot_s, rate_ebit_per_s=rate_s,
            q_ebit_per_s_per_node=rate_s / n,
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
                 constants: PhysicalConstants | None = None,
                 chi: float | None = None) -> RangeLimits:
    """Distances beyond which the reference mode holds no entanglement.

    The stored state stays entangled while chi * exp(x) < 1, with
    x = (t/tau)**2 for gaussian and t/tau for exponential decay.  With blind
    storage t = L0/c that bounds the elementary distance at
    c*tau*sqrt(log(1/chi)) (gaussian) or c*tau*log(1/chi) (exponential).
    The semihierarchical limit is the paper's closed form
    (N-1)/N * tau/2 * c * log(1/chi) on the total distance
    (``n_nodes=None`` takes the many-node limit); it is not the model's own
    zero point, which can lie further out.  Fixed-lifetime platforms use
    their own tau; mode-dependent platforms use tau(K_ref).  At chi >= 1
    (read-out noise can push chi_eff there) no distance is entangled and
    both limits are 0.
    """
    if n_nodes is not None:
        _check_node_counts(n_nodes)
    constants = constants or PhysicalConstants()
    chi = platform.chi if chi is None else chi
    if not chi > 0.0:
        raise ValueError("chi must be positive")
    if platform.tau_us is not None:
        tau = platform.tau_us
        k_ref = None
    else:
        if k_ref_inv_mm is None or not k_ref_inv_mm > 0:
            raise ValueError("a positive K_ref is required for "
                             "mode-dependent lifetimes")
        tau = space.gamma / k_ref_inv_mm
        k_ref = k_ref_inv_mm
    log_gain = max(0.0, math.log(1.0 / chi))
    reach = (math.sqrt(log_gain) if platform.decoherence == "gaussian"
             else log_gain)
    l0_max = constants.c * tau * reach
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
    if not l_km >= 0:
        raise ValueError("distance must be non-negative")
    pair_transmission = link_physics.transmission(l_km, constants.alpha)
    rate = spdc.chi * spdc.eta_s ** 2 * spdc.f_rep * pair_transmission
    ef = float(werner.entanglement_of_formation(spdc.visibility))
    if ef <= 0.0 or rate <= 0.0:
        return math.inf
    return 1.0 / rate / ef
