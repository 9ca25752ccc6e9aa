"""Wavevector mode spectrum: lifetime law, mode counting, and spectral averages.

A stored collective excitation with wavevector modulus K decoheres through
thermal atomic motion on a timescale tau(K) = gamma/K, where gamma depends
only on atomic mass and ensemble temperature.  The number of mode pairs in a
band [K, K+dK] is 2*pi*K*beta*dK, so spectral averages are weighted toward
the fast-decaying high-K end.  Those averages use Gauss-Legendre quadrature,
whose nodes are built on first use and cached per order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import ModeSpaceParams, PhysicalConstants

_S_PER_M_TO_US_PER_MM = 1e3
# Gauss-Legendre order of the spectral averages; the averages stop at the
# entanglement cutoff, below which 64 nodes match 1024 to about 1e-11 relative
_GL_ORDER = 64


def gamma_from_temperature(temperature_k: float, atomic_mass_kg: float,
                           boltzmann: float = 1.380649e-23) -> float:
    """Thermal lifetime constant sqrt(m / (k_B T)) in us/mm.

    tau(K) = gamma/K then gives the mode lifetime in us for K in 1/mm.
    """
    if temperature_k <= 0:
        raise ValueError("temperature must be strictly positive")
    if atomic_mass_kg <= 0:
        raise ValueError("atomic mass must be strictly positive")
    return math.sqrt(atomic_mass_kg / (boltzmann * temperature_k)) * _S_PER_M_TO_US_PER_MM


def round_to_one_digit(x: float) -> float:
    """Round to one significant figure (1.0224e5 -> 1e5)."""
    if x <= 0:
        raise ValueError("expected a positive value")
    scale = 10.0 ** math.floor(math.log10(x))
    return round(x / scale) * scale


def tau_of_k(k_inv_mm, gamma_us_mm: float):
    """Mode lifetime gamma/K in us; accepts scalars or arrays."""
    if np.any(np.asarray(k_inv_mm) <= 0):
        raise ValueError("wavevector modulus must be strictly positive")
    return gamma_us_mm / k_inv_mm


@dataclass(frozen=True)
class ModeSpace:
    """Band [k_min, k_max] with density beta and lifetime constant gamma.

    Spectral averages over the band use a fixed 64-node Gauss-Legendre rule.
    """

    k_min: float
    k_max: float
    beta: float
    gamma: float          # us/mm

    @classmethod
    def from_params(cls, params: ModeSpaceParams,
                    constants: PhysicalConstants) -> "ModeSpace":
        """Derive gamma from the ensemble temperature.

        The default ``rounded`` policy keeps one significant figure of the
        thermal constant so the quoted band-edge lifetimes come out exact;
        ``exact`` keeps the full value.
        """
        gamma = gamma_from_temperature(params.temperature,
                                       constants.atomic_mass_rb87,
                                       constants.boltzmann)
        if params.gamma_policy == "rounded":
            gamma = round_to_one_digit(gamma)
        return cls(k_min=params.k_min, k_max=params.k_max, beta=params.beta,
                   gamma=gamma)

    @classmethod
    def default(cls) -> "ModeSpace":
        return cls.from_params(ModeSpaceParams(), PhysicalConstants())


def mode_measure(space: ModeSpace) -> float:
    """Unrounded mode-pair count pi*beta*(k_max^2 - k_min^2)/2.

    The factor 1/2 pairs up modes of opposite polarization groups, so the
    result counts usable mode pairs rather than raw emission modes.
    """
    return math.pi * space.beta * (space.k_max ** 2 - space.k_min ** 2) / 2.0


def mode_count(space: ModeSpace) -> int:
    """Total number of usable mode pairs in the band, rounded to an integer."""
    return round(mode_measure(space))


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


def _band_average(space: ModeSpace, f: Callable[[np.ndarray], np.ndarray],
                  k_hi) -> np.ndarray:
    """Density-weighted average of f over [k_min, k_hi], normalized to the band.

    Computes integral(f(K) * K dK, k_min, k_hi) / integral(K dK, k_min, k_max)
    by Gauss-Legendre quadrature of order ``_GL_ORDER``.  ``k_hi`` may
    be an array with one upper limit per entry; f then receives one row of K
    values per entry.  An upper limit at or below k_min gives zero.
    """
    x, w = _gauss_legendre(_GL_ORDER)
    half = np.maximum(np.asarray(k_hi, dtype=float) - space.k_min, 0.0) / 2.0
    k = space.k_min + half[..., None] * (1.0 + x)
    values = np.asarray(f(k), dtype=float)
    integral = half * np.sum(w * values * k, axis=-1)
    return integral / ((space.k_max ** 2 - space.k_min ** 2) / 2.0)

