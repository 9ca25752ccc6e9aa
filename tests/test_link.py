import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from muxrepeater.link import (
    link_budget,
    p_eng,
    p_single,
    transmission,
    visibility_at,
)
from muxrepeater.params import PhysicalConstants, builtin_platforms

# frozen from 30-digit evaluation of 1 - (1 - 1e-4)**10000
P_ENG_1E4_100 = 0.6321389535670701


class TestTransmission:
    def test_zero_length(self):
        assert transmission(0.0, 0.2) == 1.0

    def test_hundred_km(self):
        assert transmission(100.0, 0.2) == pytest.approx(0.01, rel=1e-12)

    def test_seventy_five_km(self):
        assert transmission(75.0, 0.2) == pytest.approx(10.0 ** -1.5, rel=1e-12)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            transmission(-1.0, 0.2)
        with pytest.raises(ValueError):
            transmission(np.array([1.0, np.nan]), 0.2)
        with pytest.raises(ValueError, match="attenuation"):
            transmission(1.0, math.nan)

    @given(st.floats(0.0, 300.0), st.floats(0.0, 300.0))
    def test_multiplicative_in_length(self, z1, z2):
        lhs = transmission(z1 + z2, 0.2)
        rhs = transmission(z1, 0.2) * transmission(z2, 0.2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPairProbability:
    def test_hand_value(self):
        assert p_single(0.05, 0.2, 1.0) == pytest.approx(1e-4, rel=1e-12)

    def test_total_loss(self):
        assert p_single(0.05, 0.2, 0.0) == 0.0

    def test_at_150_km(self):
        eta_t = transmission(75.0, 0.2)
        assert p_single(0.05, 0.2, eta_t) == pytest.approx(1e-7, rel=1e-9)

    def test_range_check(self):
        with pytest.raises(ValueError):
            p_single(1.5, 0.2, 0.5)


class TestHeraldingProbability:
    def test_boundaries(self):
        assert p_eng(0.0, 100, True) == 0.0
        assert p_eng(1.0, 100, True) == 1.0
        assert p_eng(0.0, 100, False) == 0.0
        assert p_eng(1.0, 3, False) == 1.0

    def test_frozen_value(self):
        assert p_eng(1e-4, 100, True) == pytest.approx(P_ENG_1E4_100, rel=1e-12)

    def test_single_mode_is_identity(self):
        for p1 in (1e-17, 1e-9, 0.3, 0.9999):
            assert p_eng(p1, 1, False) == p1
            assert p_eng(p1, 1, True) == p1

    @pytest.mark.parametrize("modes", [0, 2.5, True, math.nan])
    def test_rejects_non_integer_modes(self, modes):
        with pytest.raises(ValueError, match="modes"):
            p_eng(0.1, modes, False)

    def test_multiplexed_equals_parallel_squared(self):
        for p1 in (1e-10, 1e-6, 0.01, 0.5):
            for m in (2, 50, 300):
                assert p_eng(p1, m, True) == p_eng(p1, m * m, False)

    @given(st.floats(1e-12, 1.0), st.integers(1, 10_000))
    def test_monotone_in_modes(self, p1, m):
        assert p_eng(p1, m + 1, False) >= p_eng(p1, m, False)

    @given(st.floats(1e-12, 0.999), st.integers(1, 10_000))
    def test_monotone_in_p1(self, p1, m):
        assert p_eng(min(1.0, p1 * 1.01), m, False) >= p_eng(p1, m, False)

    def test_survives_tiny_p1_huge_exponent(self):
        p1 = 1e-8
        val = p_eng(p1, 5500, True)
        assert val == pytest.approx(-math.expm1(-5500 ** 2 * p1), rel=1e-6)
        assert 0.0 < val < 1.0


class TestVisibilityDecay:
    def test_no_storage(self):
        assert visibility_at(0.0, 1000.0, 0.05) == pytest.approx(1 / 1.1, rel=1e-12)
        assert visibility_at(0.0, 1000.0, 0.05, "exponential") == \
            pytest.approx(1 / 1.1, rel=1e-12)

    def test_frozen_gaussian_point(self):
        # tau = 1e5/100 us, t = 750 us
        assert visibility_at(750.0, 1000.0, 0.05) == \
            pytest.approx(0.8506978735380774, rel=1e-12)

    def test_long_storage_goes_to_zero(self):
        assert visibility_at(1e9, 1000.0, 0.05) == 0.0
        assert visibility_at(1e9, 1000.0, 0.05, "exponential") == 0.0
        # t/tau overflows for both laws, and its square for the gaussian
        # one, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert visibility_at(1e300, 1e-10, 0.05) == 0.0
            assert visibility_at(1e300, 1e-10, 0.05, "exponential") == 0.0
            assert visibility_at(1e200, 1e-10, 0.05) == 0.0

    def test_monotone_in_time(self):
        t = np.linspace(0.0, 5e4, 400)
        v = visibility_at(t, 1000.0, 0.05)
        assert np.all(np.diff(v) <= 0)
        v_exp = visibility_at(t, 1000.0, 0.05, "exponential")
        assert np.all(np.diff(v_exp) <= 0)

    def test_monotone_in_wavevector(self):
        k = np.linspace(10.0, 1000.0, 300)
        v = visibility_at(750.0, 1e5 / k, 0.05)
        assert np.all(np.diff(v) <= 0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            visibility_at(-1.0, 1000.0, 0.05)
        with pytest.raises(ValueError, match="storage time"):
            visibility_at(math.nan, 1000.0, 0.05)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            visibility_at(1.0, 1000.0, 0.05, "quadratic")


class TestLinkBudget:
    def test_ordering_invariant(self):
        constants = PhysicalConstants()
        for platform in builtin_platforms():
            for l0 in (10.0, 100.0, 250.0):
                budget = link_budget(platform, l0, constants)
                assert 0.0 <= budget.p1 <= budget.p_g <= 1.0

    def test_quasi_deterministic_regime(self):
        constants = PhysicalConstants()
        wv = builtin_platforms()[0]
        assert link_budget(wv, 100.0, constants).p_g > 0.999
        p150 = link_budget(wv, 150.0, constants).p_g
        assert p150 == pytest.approx(0.9514421860743604, rel=1e-9)
