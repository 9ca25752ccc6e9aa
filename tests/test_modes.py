import dataclasses
import math

import numpy as np
import pytest

from muxrepeater.modes import (
    ModeSpace,
    gamma_from_temperature,
    mode_count,
    mode_measure,
    round_to_one_digit,
    tau_of_k,
)
from muxrepeater.params import ModeSpaceParams, PhysicalConstants
from muxrepeater.werner import _gauss_legendre

RB87_MASS = 1.44316e-25
# sqrt(m / (k_B T)) at 1 uK, unit-converted, 30-digit evaluation
GAMMA_EXACT = 102238.76627741638
# (2/3) (K_max^3 - K_min^3) / (K_max^2 - K_min^2) on [10, 1000]
WAVG_K_CLOSED = 666.7326732673267


class TestThermalConstant:
    def test_one_microkelvin(self):
        assert gamma_from_temperature(1e-6, RB87_MASS) == \
            pytest.approx(GAMMA_EXACT, rel=1e-12)

    def test_sqrt_temperature_scaling(self):
        g1 = gamma_from_temperature(1e-6, RB87_MASS)
        g4 = gamma_from_temperature(4e-6, RB87_MASS)
        assert g4 == pytest.approx(g1 / 2.0, rel=1e-12)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            gamma_from_temperature(0.0, RB87_MASS)
        with pytest.raises(ValueError, match="temperature"):
            gamma_from_temperature(math.nan, RB87_MASS)
        with pytest.raises(ValueError, match="mass"):
            gamma_from_temperature(1e-6, math.nan)

    def test_rounding_policy(self):
        assert round_to_one_digit(GAMMA_EXACT) == 1e5
        assert round_to_one_digit(9.6e4) == 1e5
        assert round_to_one_digit(5.112e4) == 5e4
        for x in (0.0, -3.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                round_to_one_digit(x)

    def test_default_space_uses_rounded_gamma(self):
        assert ModeSpace.default().gamma == 1e5

    def test_exact_policy(self):
        params = ModeSpaceParams(gamma_policy="exact")
        space = ModeSpace.from_params(params, PhysicalConstants())
        assert space.gamma == pytest.approx(GAMMA_EXACT, rel=1e-12)


class TestLifetimeLaw:
    def test_band_edges_exact(self):
        assert tau_of_k(10.0, 1e5) == 10_000.0
        assert tau_of_k(1000.0, 1e5) == 100.0
        assert tau_of_k(100.0, 1e5) == 1000.0

    def test_rejects_nonpositive_wavevector(self):
        with pytest.raises(ValueError):
            tau_of_k(0.0, 1e5)
        with pytest.raises(ValueError):
            tau_of_k(np.array([10.0, np.nan]), 1e5)

    def test_band_edge_ordering(self):
        space = ModeSpace.default()
        assert tau_of_k(space.k_min, space.gamma) >= tau_of_k(space.k_max, space.gamma)


class TestModeCount:
    def test_default_band(self):
        assert mode_count(ModeSpace.default()) == 5497

    def test_narrow_band(self):
        space = dataclasses.replace(ModeSpace.default(), k_max=100.0)
        assert mode_count(space) == 54

    def test_empty_band(self):
        space = dataclasses.replace(ModeSpace.default(), k_max=10.0)
        assert mode_count(space) == 0

    def test_linear_in_density(self):
        space = ModeSpace.default()
        doubled = dataclasses.replace(space, beta=2 * space.beta)
        assert mode_measure(doubled) == pytest.approx(2 * mode_measure(space),
                                                      rel=1e-12)

    def test_measure_closed_form(self):
        assert mode_measure(ModeSpace.default()) == \
            pytest.approx(5497.23736506776, rel=1e-12)


def band_mean(f, k_min, k_max):
    """Mean of f(K) weighted by K over [k_min, k_max] with the 64-node rule,
    mapped onto the band as the spectral ebit average maps it."""
    x, w = _gauss_legendre(64)
    half = (k_max - k_min) / 2.0
    k = k_min + half * (1.0 + x)
    return half * np.sum(w * f(k) * k) / ((k_max ** 2 - k_min ** 2) / 2.0)


class TestWeightedAverage:
    def test_constant_is_exact(self):
        space = ModeSpace.default()
        for c in (1.0, math.pi, 1e-7):
            assert band_mean(lambda k: np.full_like(k, c), space.k_min,
                             space.k_max) == pytest.approx(c, rel=1e-12)

    def test_identity_matches_closed_form(self):
        space = ModeSpace.default()
        assert band_mean(lambda k: k, space.k_min, space.k_max) == \
            pytest.approx(WAVG_K_CLOSED, rel=1e-7)

    def test_gauss_legendre_exact_on_polynomials(self):
        # the 64-node rule integrates x**d over [-1, 1] exactly for d <= 127,
        # so it integrates K * K**d exactly for d <= 126; the band-weighted
        # mean of K**d is 2 (b^(d+2) - a^(d+2)) / ((d+2)(b^2 - a^2))
        x, w = _gauss_legendre(64)
        for d in range(128):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert np.sum(w * x ** d) == pytest.approx(exact, rel=1e-13,
                                                       abs=1e-15)
        space = ModeSpace.default()
        assert band_mean(lambda k: k, space.k_min, space.k_max) == \
            pytest.approx(WAVG_K_CLOSED, rel=1e-13)
        a, b = space.k_min / space.k_max, 1.0
        for d in (0, 1, 2, 7, 40, 125):
            closed = 2.0 * (b ** (d + 2) - a ** (d + 2)) / (
                (d + 2) * (b * b - a * a))
            assert band_mean(lambda k, d=d: k ** d, a, b) == \
                pytest.approx(closed, rel=1e-13)
