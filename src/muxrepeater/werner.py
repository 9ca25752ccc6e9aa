"""Entanglement content of Bell-diagonal states mixed with white noise.

A state of visibility V is the mixture (1-V)/4 * I + V |psi><psi| of a Bell
state with the maximally mixed state.  Its concurrence has the closed form
max(0, (3V-1)/2), so it carries entanglement only above V = 1/3, and the
entanglement of formation follows from the concurrence through the binary
entropy of (1 + sqrt(1 - C^2))/2.

The spectral ebit average over the wavevector band is a 64-node
Gauss-Legendre rule, cached per order, that ends at the entanglement cutoff
of the storage time: the integrand has a kink there and vanishes past it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import link
from .modes import ModeSpace, tau_of_k

_LN2 = math.log(2.0)
# Gauss-Legendre order of the spectral averages; the averages stop at the
# entanglement cutoff, below which 64 nodes match 1024 to about 1e-11 relative
_GL_ORDER = 64
# (storage time, node) pairs per quadrature block; keeps the integrand's
# temporaries at a few 32 KB arrays however many storage times come in
_QUAD_BLOCK = 4096


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the order-point rule on [-1, 1].

    Newton iteration on the Legendre three-term recurrence from the
    Chebyshev-like first guesses cos(pi*(i - 1/4)/(n + 1/2)); this needs no
    linear algebra.  The arrays are read-only because the cache shares them.
    """
    x = np.cos(np.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for k in range(2, order + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = order * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def concurrence(visibility):
    """Concurrence max(0, (3V-1)/2) of a white-noise Bell mixture."""
    v = np.asarray(visibility, dtype=float)
    link._check_probability(v, "visibility")
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

    Integrates ef_of_mode(K, t) * K over [k_min, k_hi] and divides by the
    integral of K over the band.  A mode holds entanglement only while
    t*K/gamma is inside :func:`link.entangled_window`, i.e. below the kink
    at K_c(t) = gamma*window/t, so k_hi = min(K_max, K_c(t)) and the rule
    never straddles the kink; a k_hi at or below k_min gives zero.
    """
    k_cut = space.gamma * link.entangled_window(chi_eff, "gaussian")
    t = np.asarray(t_us, dtype=float)
    # at t = 0 the whole band is live, whatever K_c; a subnormal t overflows
    # K_c to inf, which leaves the band whole too
    with np.errstate(over="ignore"):
        k_hi = np.minimum(space.k_max, np.divide(
            k_cut, t, out=np.full(t.shape, np.inf), where=t > 0.0))
    x, w = _gauss_legendre(_GL_ORDER)
    norm = (space.k_max ** 2 - space.k_min ** 2) / 2.0
    out = np.empty(t.shape)
    t_flat, hi_flat, out_flat = t.reshape(-1), k_hi.reshape(-1), out.reshape(-1)
    rows = _QUAD_BLOCK // _GL_ORDER
    for start in range(0, t_flat.size, rows):
        block = slice(start, start + rows)
        half = np.maximum(hi_flat[block] - space.k_min, 0.0) / 2.0
        k = space.k_min + half[:, None] * (1.0 + x)
        ef = ef_of_mode(k, t_flat[block, None], chi_eff, space)
        out_flat[block] = half * np.sum(w * ef * k, axis=-1) / norm
    return out


def average_ef(space: ModeSpace, t_us: float, chi_eff: float) -> float:
    """Density-weighted spectral average of the ebit content at time t.

    The delivered state carries a single link's visibility.  Modes past
    their entanglement cutoff contribute zero and stay in the average; the
    64-node Gauss-Legendre rule runs up to that cutoff.
    """
    return float(_average_ef(space, t_us, chi_eff))
