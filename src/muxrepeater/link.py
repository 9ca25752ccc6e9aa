"""Single-link physics: fiber loss, heralded pair generation, and visibility.

An elementary link spans two memories separated by L0, each sending a
herald photon over L0/2 of fiber to a midway detection station.  Success in
any one of the available mode pairings heralds the link; the stored state is
a Bell-diagonal mixture whose visibility degrades with storage time through
the memory decoherence law.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .params import (DECOHERENCE_KINDS, PhysicalConstants, PlatformParams,
                     _check_count)


def transmission(z_km, alpha_db_per_km: float):
    """Fiber power transmission 10**(-alpha*z/10) over z km (scalar or array)."""
    if not np.all(np.asarray(z_km) >= 0):
        raise ValueError("fiber length must be non-negative")
    if not alpha_db_per_km >= 0:   # also rejects nan
        raise ValueError("attenuation must be non-negative")
    # a loss exponent past the float range is -inf, and 10**-inf is exactly 0
    with np.errstate(over="ignore"):
        return 10.0 ** (-alpha_db_per_km * z_km / 10.0)


def _check_probability(value, name: str) -> None:
    arr = np.asarray(value)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")


def p_eng(p1, pairings: int):
    """Probability that at least one of ``pairings`` mode pairings heralds.

    A platform's count is :attr:`PlatformParams.pairings`: M when mode i
    pairs with mode i, M**2 when any pairing is accepted.  Evaluated as
    -expm1(n * log1p(-p1)) so it survives p1 ~ 1e-8 with n ~ 3e7 without
    loss of precision.  ``p1`` may be an array.
    """
    _check_probability(p1, "p1")
    _check_count(pairings, "pairings", 1)
    if pairings > sys.float_info.max:
        raise ValueError("pairings must fit a float")
    if pairings == 1:
        return p1
    # p1 = 1 gives log1p(-1) = -inf and hence exactly 1; starting from 0.0
    # keeps p1 = 0 at +0.0 instead of -expm1(-0.0) = -0.0
    with np.errstate(divide="ignore"):
        p_g = 0.0 - np.expm1(pairings * np.log1p(-np.asarray(p1, dtype=float)))
    return float(p_g) if p_g.ndim == 0 else p_g


def visibility_at(t_us, tau_us, chi_eff: float, decoherence: str = "gaussian"):
    """Visibility after storing for t in a memory with lifetime tau.

    Decoherence reduces the read-out efficiency, which degrades the
    signal-to-noise of the retrieved photon; the resulting visibility is
    1 / (1 + 2*chi_eff*exp(x)) with x = (t/tau)**2 for gaussian decay or
    t/tau for exponential decay.  Accepts scalars or numpy arrays for
    ``t_us`` and ``tau_us``; strictly decreasing in t until it underflows.
    tau = inf never decays, so it keeps V(0) at every finite t; at t = inf
    x is inf for every tau, so V = 0 there.
    """
    if not chi_eff > 0:   # also rejects nan
        raise ValueError("chi_eff must be strictly positive")
    t = np.asarray(t_us, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("storage time must be non-negative")
    tau = np.asarray(tau_us, dtype=float)
    if not np.all(tau > 0):   # also rejects nan
        raise ValueError("lifetime must be strictly positive")
    if decoherence not in DECOHERENCE_KINDS:
        raise ValueError(f"unknown decoherence kind {decoherence!r}")
    # exp(x) overflows to inf past x ~ 709.78, and 1/(1 + inf) is exactly 0;
    # inf/inf is the one nan t/tau can form, so t = inf sets x = inf itself
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.where(t == np.inf, np.inf, t / tau)
        if decoherence == "gaussian":
            x = x * x
        v = 1.0 / (1.0 + 2.0 * chi_eff * np.exp(x))
    return float(v) if v.ndim == 0 else v


def entangled_window(chi_eff: float, decoherence: str) -> float:
    """t/tau at which :func:`visibility_at` reaches 1/3: sqrt(-ln chi_eff)
    for gaussian, -ln chi_eff for exponential decay, 0 at chi_eff >= 1."""
    if not chi_eff > 0:   # also rejects nan
        raise ValueError("chi_eff must be strictly positive")
    if decoherence not in DECOHERENCE_KINDS:
        raise ValueError(f"unknown decoherence kind {decoherence!r}")
    x_c = max(0.0, -math.log(chi_eff))
    return math.sqrt(x_c) if decoherence == "gaussian" else x_c


@dataclass(frozen=True)
class LinkBudget:
    """Heralding probabilities of one elementary link at distance l0_km.

    Both fields are arrays of the same shape when l0_km is an array.
    """

    p1: float           # single-mode success probability
    p_g: float          # success probability over all mode pairings


def link_budget(platform: PlatformParams, l0_km,
                constants: PhysicalConstants) -> LinkBudget:
    """Evaluate the elementary-link budget for one platform (scalar or array l0).

    p1 = (chi * eta_m * eta_half)**2: both photons (one per memory) are
    generated, survive eta_half, the transmission over L0/2, and fire the
    midway detector.
    """
    eta_half = transmission(l0_km / 2.0, constants.alpha)
    p1 = (platform.chi * platform.eta_m * eta_half) ** 2
    p_g = p_eng(p1, platform.pairings)
    return LinkBudget(p1=p1, p_g=p_g)
