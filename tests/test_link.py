import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from muxrepeater.link import (
    entangled_window,
    link_budget,
    p_eng,
    transmission,
    visibility_at,
)
from muxrepeater.params import (PhysicalConstants, PlatformParams,
                                builtin_platforms)
from muxrepeater.werner import entanglement_of_formation

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

    def test_loss_past_the_float_range_is_total(self):
        # alpha*z overflows to inf, and 10**-inf is exactly 0, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert transmission(np.array([1e200]), 1e300) == 0.0

    @given(st.floats(0.0, 300.0), st.floats(0.0, 300.0))
    def test_multiplicative_in_length(self, z1, z2):
        lhs = transmission(z1 + z2, 0.2)
        rhs = transmission(z1, 0.2) * transmission(z2, 0.2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestPairProbability:
    # p1 = (chi * eta_m * eta_t(L0/2))**2 with chi * eta_m = 0.01
    PLATFORM = PlatformParams(name="hand", modes=1, chi=0.05, eta_r=0.7,
                              eta_m=0.2, tau_ms=1.0)

    def p1(self, l0_km):
        return link_budget(self.PLATFORM, l0_km, PhysicalConstants()).p1

    def test_hand_value(self):
        assert self.p1(0.0) == pytest.approx(1e-4, rel=1e-12)

    def test_total_loss(self):
        # the transmission over 20,000 km underflows to exactly 0
        assert self.p1(40_000.0) == 0.0

    def test_at_150_km(self):
        # L0 = 150 km: 75 km of fiber per photon, eta_t = 10**-1.5
        assert self.p1(150.0) == pytest.approx(1e-7, rel=1e-9)


class TestHeraldingProbability:
    def test_boundaries(self):
        assert p_eng(0.0, 100 * 100) == 0.0
        assert p_eng(1.0, 100 * 100) == 1.0
        assert p_eng(0.0, 100) == 0.0
        assert p_eng(1.0, 3) == 1.0

    def test_frozen_value(self):
        assert p_eng(1e-4, 100 * 100) == pytest.approx(P_ENG_1E4_100, rel=1e-12)

    def test_single_mode_is_identity(self):
        for p1 in (1e-17, 1e-9, 0.3, 0.9999):
            assert p_eng(p1, 1) == p1

    @pytest.mark.parametrize("modes", [0, 2.5, True, math.nan,
                                       pytest.param(10**400, id="10**400")])
    def test_rejects_non_integer_modes(self, modes):
        with pytest.raises(ValueError, match="pairings"):
            p_eng(0.1, modes)

    def test_budget_uses_platform_pairings(self):
        constants = PhysicalConstants()
        for platform in builtin_platforms():
            budget = link_budget(platform, 150.0, constants)
            assert budget.p_g == p_eng(budget.p1, platform.pairings)
            m = platform.modes
            assert platform.pairings == (m * m if platform.multiplexed else m)

    @given(st.floats(1e-12, 1.0), st.integers(1, 10_000))
    def test_monotone_in_modes(self, p1, m):
        assert p_eng(p1, m + 1) >= p_eng(p1, m)

    @given(st.floats(1e-12, 0.999), st.integers(1, 10_000))
    def test_monotone_in_p1(self, p1, m):
        assert p_eng(min(1.0, p1 * 1.01), m) >= p_eng(p1, m)

    def test_survives_tiny_p1_huge_exponent(self):
        p1 = 1e-8
        val = p_eng(p1, 5500 * 5500)
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
        # one, and exp(x) past x ~ 709.78, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert visibility_at(1e300, 1e-10, 0.05) == 0.0
            assert visibility_at(1e300, 1e-10, 0.05, "exponential") == 0.0
            assert visibility_at(1e200, 1e-10, 0.05) == 0.0
            for x in (710.0, math.inf):
                assert visibility_at(x, 1.0, 0.9, "exponential") == 0.0
            # tau = inf never decays at finite t, but at t = inf x is inf
            # for every tau, a tau of inf included
            for law in ("gaussian", "exponential"):
                assert np.array_equal(
                    visibility_at(np.array([0.0, 5.0, math.inf]), math.inf,
                                  0.05, law), [1 / 1.1, 1 / 1.1, 0.0])

    def test_tiny_chi_keeps_its_visibility_past_x_700(self):
        # past x = 700, V follows the formula until exp(x) overflows
        assert visibility_at(705.0, 1.0, 1e-310, "exponential") == \
            pytest.approx(1.0 / (1.0 + 2e-310 * math.exp(705.0)), rel=1e-12)
        v = visibility_at(705.0, 1.0, 0.05, "exponential")
        assert 0.0 < v < 1e-300

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

    @pytest.mark.parametrize("tau", [-1.0, 0.0, math.nan])
    def test_rejects_non_positive_lifetime(self, tau):
        # tau = -1 would grow V past V(0), tau = 0 divides by zero
        with pytest.raises(ValueError, match="lifetime"):
            visibility_at(1.0, tau, 0.05, "exponential")
        with pytest.raises(ValueError, match="lifetime"):
            visibility_at(1.0, np.array([1000.0, tau]), 0.05)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            visibility_at(1.0, 1000.0, 0.05, "quadratic")


class TestEntangledWindow:
    @given(chi_eff=st.floats(1e-300, 0.99),
           law=st.sampled_from(["gaussian", "exponential"]),
           tau=st.floats(1e-3, 1e9))
    def test_window_ends_at_the_entanglement_threshold(self, chi_eff, law,
                                                       tau):
        w = entangled_window(chi_eff, law)
        inside = visibility_at(tau * w * (1 - 1e-9), tau, chi_eff, law)
        outside = visibility_at(tau * w * (1 + 1e-9), tau, chi_eff, law)
        assert entanglement_of_formation(inside) > 0.0
        assert entanglement_of_formation(outside) == 0.0

    def test_closed_form(self):
        assert entangled_window(0.05, "exponential") == -math.log(0.05)
        assert entangled_window(0.05, "gaussian") == \
            math.sqrt(-math.log(0.05))
        assert entangled_window(1e-310, "exponential") == \
            pytest.approx(713.8, rel=1e-4)

    @pytest.mark.parametrize("law", ["gaussian", "exponential"])
    @pytest.mark.parametrize("chi_eff", [1.0, 1.5, 1e308])
    def test_closed_at_chi_eff_one_and_above(self, chi_eff, law):
        assert entangled_window(chi_eff, law) == 0.0

    @pytest.mark.parametrize("chi_eff", [0.0, -0.1, math.nan])
    def test_rejects_non_positive_chi_eff(self, chi_eff):
        with pytest.raises(ValueError, match="chi_eff must be strictly positive"):
            entangled_window(chi_eff, "gaussian")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown decoherence kind"):
            entangled_window(0.05, "quadratic")


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
