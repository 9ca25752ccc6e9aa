"""Wavevector mode spectrum: lifetime law and mode counting.

A stored collective excitation with wavevector modulus K decoheres through
thermal atomic motion on a timescale tau(K) = gamma/K, where gamma depends
only on atomic mass and ensemble temperature.  The number of mode pairs in a
band [K, K+dK] is 2*pi*K*beta*dK, so spectral averages are weighted toward
the fast-decaying high-K end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ModeSpaceParams, PhysicalConstants

_S_PER_M_TO_US_PER_MM = 1e3


def gamma_from_temperature(temperature_k: float, atomic_mass_kg: float,
                           boltzmann: float = 1.380649e-23) -> float:
    """Thermal lifetime constant sqrt(m / (k_B T)) in us/mm.

    tau(K) = gamma/K then gives the mode lifetime in us for K in 1/mm.
    """
    if not temperature_k > 0:   # also rejects nan
        raise ValueError("temperature must be strictly positive")
    if not atomic_mass_kg > 0:
        raise ValueError("atomic mass must be strictly positive")
    return math.sqrt(atomic_mass_kg / (boltzmann * temperature_k)) * _S_PER_M_TO_US_PER_MM


def round_to_one_digit(x: float) -> float:
    """Round to one significant figure (1.0224e5 -> 1e5)."""
    if not x > 0:
        raise ValueError("expected a positive value")
    scale = 10.0 ** math.floor(math.log10(x))
    return round(x / scale) * scale


def tau_of_k(k_inv_mm, gamma_us_mm: float):
    """Mode lifetime gamma/K in us; accepts scalars or arrays."""
    if not np.all(np.asarray(k_inv_mm) > 0):
        raise ValueError("wavevector modulus must be strictly positive")
    return gamma_us_mm / k_inv_mm


@dataclass(frozen=True)
class ModeSpace:
    """Band [k_min, k_max] with density beta and lifetime constant gamma."""

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
