"""Single-link physics: fiber loss, heralded pair generation, and visibility.

An elementary link spans two memories separated by L0, each sending a
herald photon over L0/2 of fiber to a midway detection station.  Success in
any one of the available mode pairings heralds the link; the stored state is
a Bell-diagonal mixture whose visibility degrades with storage time through
the memory decoherence law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DECOHERENCE_KINDS, PhysicalConstants, PlatformParams

# exp() argument beyond which the visibility underflows to 0 anyway
_EXP_CLIP = 700.0


def transmission(z_km, alpha_db_per_km: float):
    """Fiber power transmission 10**(-alpha*z/10) over z km (scalar or array)."""
    if not np.all(np.asarray(z_km) >= 0):
        raise ValueError("fiber length must be non-negative")
    if not alpha_db_per_km >= 0:   # also rejects nan
        raise ValueError("attenuation must be non-negative")
    return 10.0 ** (-alpha_db_per_km * z_km / 10.0)


def _check_probability(value, name: str) -> None:
    arr = np.asarray(value)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")


def p_single(chi: float, eta_det: float, eta_half):
    """Success probability of one heralded pair attempt in a single mode.

    Both photons (one per memory) must be generated, survive half the link,
    and fire the midway detector: (chi * eta_det * eta_half)**2, where
    ``eta_half`` is the fiber transmission over L0/2 and may be an array.
    """
    for name, value in (("chi", chi), ("eta_det", eta_det),
                        ("eta_half", eta_half)):
        _check_probability(value, name)
    return (chi * eta_det * eta_half) ** 2


def p_eng(p1, modes: int, multiplexed: bool):
    """Probability that at least one mode pairing heralds the link.

    Parallel operation pairs mode i with mode i, giving ``modes`` chances;
    multiplexed operation accepts any pairing, giving ``modes**2``.
    Evaluated as -expm1(n * log1p(-p1)) so it survives p1 ~ 1e-8 with
    n ~ 3e7 without loss of precision.  ``p1`` may be an array.
    """
    _check_probability(p1, "p1")
    if (isinstance(modes, bool) or not isinstance(modes, (int, np.integer))
            or modes < 1):
        raise ValueError("modes must be >= 1")
    n = modes * modes if multiplexed else modes
    if n == 1:
        return p1
    # p1 = 1 gives log1p(-1) = -inf and hence exactly 1; starting from 0.0
    # keeps p1 = 0 at +0.0 instead of -expm1(-0.0) = -0.0
    with np.errstate(divide="ignore"):
        p_g = 0.0 - np.expm1(n * np.log1p(-np.asarray(p1, dtype=float)))
    return float(p_g) if p_g.ndim == 0 else p_g


def visibility_at(t_us, tau_us, chi_eff: float, decoherence: str = "gaussian"):
    """Visibility after storing for t in a memory with lifetime tau.

    Decoherence reduces the read-out efficiency, which degrades the
    signal-to-noise of the retrieved photon; the resulting visibility is
    1 / (1 + 2*chi_eff*exp(x)) with x = (t/tau)**2 for gaussian decay or
    t/tau for exponential decay.  Accepts scalars or numpy arrays for
    ``t_us`` and ``tau_us``; strictly decreasing in t until it underflows.
    """
    if not chi_eff > 0:   # also rejects nan
        raise ValueError("chi_eff must be strictly positive")
    if not np.all(np.asarray(t_us) >= 0):
        raise ValueError("storage time must be non-negative")
    if decoherence not in DECOHERENCE_KINDS:
        raise ValueError(f"unknown decoherence kind {decoherence!r}")
    # an x past the float range is inf, and inf gives V = 0 like any x >= clip
    with np.errstate(over="ignore"):
        x = np.asarray(t_us, dtype=float) / np.asarray(tau_us, dtype=float)
        if decoherence == "gaussian":
            x = x * x
    v = 1.0 / (1.0 + 2.0 * chi_eff * np.exp(np.minimum(x, _EXP_CLIP)))
    v = np.where(x >= _EXP_CLIP, 0.0, v)
    return float(v) if v.ndim == 0 else v


@dataclass(frozen=True)
class LinkBudget:
    """Heralding probabilities of one elementary link at distance l0_km.

    Both fields are arrays of the same shape when l0_km is an array.
    """

    p1: float           # single-mode success probability
    p_g: float          # success probability over all mode pairings


def link_budget(platform: PlatformParams, l0_km,
                constants: PhysicalConstants) -> LinkBudget:
    """Evaluate the elementary-link budget for one platform (scalar or array l0)."""
    eta_half = transmission(l0_km / 2.0, constants.alpha)
    p1 = p_single(platform.chi, platform.eta_m, eta_half)
    p_g = p_eng(p1, platform.modes, platform.multiplexed)
    return LinkBudget(p1=p1, p_g=p_g)
