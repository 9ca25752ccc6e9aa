"""Entanglement content of Bell-diagonal states mixed with white noise.

A state of visibility V is the mixture (1-V)/4 * I + V |psi><psi| of a Bell
state with the maximally mixed state.  Its concurrence has the closed form
max(0, (3V-1)/2), so it carries entanglement only above V = 1/3, and the
entanglement of formation follows from the concurrence through the binary
entropy of (1 + sqrt(1 - C^2))/2.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import link
from .modes import ModeSpace, _band_average, tau_of_k

_LN2 = math.log(2.0)
# (storage time, node) pairs per quadrature block; keeps the integrand's
# temporaries at a few 32 KB arrays however many storage times come in
_QUAD_BLOCK = 4096


def _check_unit_interval(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def concurrence(visibility):
    """Concurrence max(0, (3V-1)/2) of a white-noise Bell mixture."""
    v = _check_unit_interval(visibility, "visibility")
    c = np.maximum(0.0, (3.0 * v - 1.0) / 2.0)
    return float(c) if c.ndim == 0 else c


def entanglement_of_formation(visibility):
    """Ebit content per copy as a function of visibility.

    Zero for V <= 1/3, strictly increasing above, and exactly 1 at V = 1.
    The entropy argument is evaluated through y = C^2 / (2*(1 + sqrt(1-C^2)))
    rather than (1 - sqrt(1-C^2))/2, which keeps tiny concurrences from
    rounding to zero ebits.
    """
    c = np.asarray(concurrence(visibility), dtype=float)
    y = c * c / (2.0 * (1.0 + np.sqrt((1.0 - c) * (1.0 + c))))
    ef = np.zeros_like(c)
    pos = y > 0.0  # excludes concurrences whose square underflows
    yp = y[pos]
    ef[pos] = -(1.0 - yp) * np.log1p(-yp) / _LN2 - yp * np.log2(yp)
    return float(ef) if ef.ndim == 0 else ef


def ef_of_mode(k_inv_mm, t_us: float, chi_eff: float, space: ModeSpace):
    """Ebit content of the mode at wavevector K after storing for t.

    Composes the gaussian-decay visibility of the mode-dependent lifetime
    gamma/K with the ebit content of the resulting noisy Bell state.
    Accepts scalar or array K.
    """
    tau = tau_of_k(np.asarray(k_inv_mm, dtype=float), space.gamma)
    v = link.visibility_at(t_us, tau, chi_eff, "gaussian")
    return entanglement_of_formation(v)


def _average_ef(space: ModeSpace, t_us, chi_eff: float) -> np.ndarray:
    """Array form of :func:`average_ef`: one spectral average per storage time.

    A mode holds entanglement only while chi_eff*exp((t*K/gamma)**2) < 1,
    i.e. below K_c(t) = gamma*sqrt(ln(1/chi_eff))/t.  The integrand has a
    kink at K_c and vanishes past it, so the quadrature interval ends at
    min(K_max, K_c(t)) and the rule never straddles the kink.
    """
    t = np.asarray(t_us, dtype=float)
    k_cut = space.gamma * math.sqrt(max(0.0, -math.log(chi_eff)))
    # at t = 0 the whole band is live, whatever K_c
    k_hi = np.minimum(space.k_max, np.divide(
        k_cut, t, out=np.full(t.shape, np.inf), where=t > 0.0))

    def integrand(t_rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        v = link.visibility_at(t_rows, space.gamma / k, chi_eff, "gaussian")
        return entanglement_of_formation(v)

    out = np.empty(t.shape)
    t_flat, hi_flat, out_flat = t.reshape(-1), k_hi.reshape(-1), out.reshape(-1)
    rows = max(1, _QUAD_BLOCK // space.grid_points)
    for start in range(0, t_flat.size, rows):
        block = slice(start, start + rows)
        out_flat[block] = _band_average(
            space, functools.partial(integrand, t_flat[block, None]),
            hi_flat[block])
    return out


def average_ef(space: ModeSpace, t_us: float, chi_eff: float) -> float:
    """Density-weighted spectral average of the ebit content at time t.

    The delivered state carries a single link's visibility.  Modes past
    their entanglement cutoff contribute zero and stay in the average; the
    Gauss-Legendre rule of order ``space.grid_points`` runs up to that cutoff.
    """
    return float(_average_ef(space, t_us, chi_eff))
