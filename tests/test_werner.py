import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from muxrepeater.modes import ModeSpace
from muxrepeater.werner import (
    average_ef,
    concurrence,
    ef_of_mode,
    entanglement_of_formation,
)

# frozen 30-digit evaluations of the visibility -> ebit chain
EF_AT_V_10_11 = 0.8080005111439168
V_K100_T750 = 0.8506978735380774
EF_K100_T750 = 0.6901709875590361
AVG_EF_T750 = 0.020752387964661


def concurrence_eigen_oracle(v: float) -> float:
    """Concurrence from the explicit 4x4 state, independent of the closed form."""
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rho = (1.0 - v) / 4.0 * np.eye(4) + v * np.outer(bell, bell)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sigma_y, sigma_y)
    rho_tilde = yy @ rho.conj() @ yy
    lam = np.sqrt(np.abs(np.real(np.linalg.eigvals(rho @ rho_tilde))))
    lam.sort()
    return max(0.0, lam[3] - lam[2] - lam[1] - lam[0])


def ef_naive_oracle(v: float) -> float:
    """Textbook entropy formula, numerically naive on purpose."""
    c = max(0.0, (3.0 * v - 1.0) / 2.0)
    if c == 0.0:
        return 0.0
    x = (1.0 + math.sqrt(1.0 - c * c)) / 2.0
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


class TestConcurrence:
    def test_pure_bell(self):
        assert concurrence(1.0) == 1.0

    def test_threshold(self):
        assert concurrence(1.0 / 3.0) == 0.0
        assert concurrence(0.2) == 0.0

    def test_hand_value(self):
        assert concurrence(0.909091) == pytest.approx(0.8636365, rel=1e-12)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            concurrence(1.2)
        with pytest.raises(ValueError):
            concurrence(-0.1)

    def test_matches_eigen_oracle(self):
        for v in np.linspace(0.0, 1.0, 201):
            assert concurrence(float(v)) == \
                pytest.approx(concurrence_eigen_oracle(float(v)), abs=1e-10)


class TestEntanglementOfFormation:
    def test_pure_bell_is_one_ebit(self):
        assert entanglement_of_formation(1.0) == 1.0

    def test_separable_region(self):
        for v in (0.0, 0.2, 1.0 / 3.0):
            assert entanglement_of_formation(v) == 0.0

    def test_barely_entangled_is_positive(self):
        assert entanglement_of_formation(1.0 / 3.0 + 1e-9) > 0.0

    def test_frozen_value(self):
        assert entanglement_of_formation(10.0 / 11.0) == \
            pytest.approx(EF_AT_V_10_11, rel=1e-12)

    def test_matches_naive_entropy_formula(self):
        for v in np.linspace(0.34, 1.0, 300):
            assert entanglement_of_formation(float(v)) == \
                pytest.approx(ef_naive_oracle(float(v)), rel=1e-10, abs=1e-12)

    def test_strictly_increasing_above_threshold(self):
        v = np.linspace(1.0 / 3.0 + 1e-6, 1.0, 1000)
        ef = entanglement_of_formation(v)
        assert np.all(np.diff(ef) > 0)

    @given(st.floats(0.0, 1.0))
    def test_bounded_chain(self, v):
        ef = entanglement_of_formation(v)
        c = concurrence(v)
        assert 0.0 <= ef <= c + 1e-15
        assert c <= v + 1e-15

    def test_bounded_chain_on_grid(self):
        v = np.linspace(0.0, 1.0, 1000)
        ef = entanglement_of_formation(v)
        c = concurrence(v)
        assert np.all(ef >= 0.0)
        assert np.all(ef <= c + 1e-15)
        assert np.all(c <= v + 1e-15)


class TestModeEbitContent:
    def setup_method(self):
        self.space = ModeSpace.default()

    def test_no_storage_matches_visibility_chain(self):
        assert ef_of_mode(10.0, 0.0, 0.05, self.space) == \
            pytest.approx(EF_AT_V_10_11, rel=1e-12)

    def test_long_storage_is_zero(self):
        tau = self.space.gamma / 1000.0
        assert ef_of_mode(1000.0, 10.0 * tau, 0.05, self.space) == 0.0

    def test_frozen_chain_value(self):
        assert ef_of_mode(100.0, 750.0, 0.05, self.space) == \
            pytest.approx(EF_K100_T750, rel=1e-12)

    def test_nonincreasing_in_time(self):
        times = np.linspace(0.0, 20_000.0, 200)
        values = [ef_of_mode(100.0, float(t), 0.05, self.space) for t in times]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_wavevector(self):
        ks = np.linspace(10.0, 1000.0, 200)
        values = ef_of_mode(ks, 750.0, 0.05, self.space)
        assert np.all(np.diff(values) <= 1e-15)


class TestAverageEbitContent:
    def test_frozen_value_at_750us(self):
        space = ModeSpace.default()
        assert average_ef(space, 750.0, 0.05) == \
            pytest.approx(AVG_EF_T750, rel=1e-6)

    def test_converges_to_high_order_cutoff_reference(self):
        # 64 nodes up to the entanglement cutoff against 1024 nodes; a rule
        # that straddled the cutoff kink missed by 6.2e-6 at 3000 us
        space = ModeSpace.default()
        reference = dataclasses.replace(space, grid_points=1024)
        for t_us in (750.0, 3000.0, 6000.0):
            assert average_ef(space, t_us, 0.05) == \
                pytest.approx(average_ef(reference, t_us, 0.05), rel=1e-9)
