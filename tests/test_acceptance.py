"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines; stated runtime limits are asserted alongside the numeric
tolerances.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from muxrepeater.chain import (
    chain_time,
    expected_max_rounds,
    range_limits,
    spdc_time,
)
from muxrepeater.cli import run
from muxrepeater.link import link_budget
from muxrepeater.modes import (
    ModeSpace,
    gamma_from_temperature,
    mode_count,
    round_to_one_digit,
    tau_of_k,
)
from muxrepeater.montecarlo import McConfig, mc_chain_time, mc_expected_max_rounds
from muxrepeater.params import default_bundle
from muxrepeater.sweep import sweep
from muxrepeater.werner import average_ef, entanglement_of_formation

BUNDLE = default_bundle()
SPACE = ModeSpace.default()
WV = BUNDLE.platform("WV-MUX-QM")


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def concurrence_eigen_oracle(v: float) -> float:
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rho = (1.0 - v) / 4.0 * np.eye(4) + v * np.outer(bell, bell)
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sigma_y, sigma_y)
    rho_tilde = yy @ rho.conj() @ yy
    lam = np.sqrt(np.abs(np.real(np.linalg.eigvals(rho @ rho_tilde))))
    lam.sort()
    return max(0.0, lam[3] - lam[2] - lam[1] - lam[0])


def test_criterion_01_mode_count():
    with criterion(1, "mode count 5500 +- 60 in under 1 ms"):
        mode_count(SPACE)  # warm-up
        start = time.perf_counter()
        count = mode_count(SPACE)
        elapsed = time.perf_counter() - start
        assert abs(count - 5500) <= 60
        assert elapsed < 1e-3


def test_criterion_02_thermal_constant():
    with criterion(2, "thermal constant ~1e5 us/mm and exact band lifetimes"):
        gamma = gamma_from_temperature(1e-6, BUNDLE.constants.atomic_mass_rb87,
                                       BUNDLE.constants.boltzmann)
        assert 0.97e5 <= gamma <= 1.06e5
        rounded = round_to_one_digit(gamma)
        assert rounded == 1e5
        assert tau_of_k(10.0, rounded) == 10_000.0    # 10 ms
        assert tau_of_k(1000.0, rounded) == 100.0     # 100 us
        assert SPACE.gamma == rounded


def test_criterion_03_entanglement_threshold():
    with criterion(3, "ebit threshold at V = 1/3 and eigenvalue-oracle match"):
        start = time.perf_counter()
        below = np.linspace(0.0, 1.0 / 3.0, 1001)
        assert np.all(entanglement_of_formation(below) == 0.0)
        assert entanglement_of_formation(1.0 / 3.0 + 1e-9) > 0.0
        assert entanglement_of_formation(1.0) == 1.0
        grid = np.linspace(0.0, 1.0, 1001)
        closed = np.maximum(0.0, (3.0 * grid - 1.0) / 2.0)
        oracle = np.array([concurrence_eigen_oracle(float(v)) for v in grid])
        assert np.max(np.abs(closed - oracle)) <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_criterion_04_quasi_deterministic_heralding():
    with criterion(4, "heralding > 0.999 at 100 km and 0.90..0.99 at 150 km"):
        link_budget(WV, 100.0, BUNDLE.constants)  # warm-up
        start = time.perf_counter()
        p100 = link_budget(WV, 100.0, BUNDLE.constants).p_g
        p150 = link_budget(WV, 150.0, BUNDLE.constants).p_g
        elapsed = time.perf_counter() - start
        assert p100 > 0.999
        assert 0.90 <= p150 <= 0.99
        assert elapsed < 1e-3


def test_criterion_05_mode_averaged_ebit_content():
    with criterion(5, "mode-averaged ebit content at 750 us in [1e-2, 4e-2]"):
        start = time.perf_counter()
        value = average_ef(SPACE, 750.0, 0.05)
        assert 1e-2 <= value <= 4e-2
        assert time.perf_counter() - start < 1.0


def test_criterion_06_range_limits():
    with criterion(6, "reach limits 3.46e3 km and 3.0e3 km within 3%"):
        limits = range_limits(WV, SPACE, 10.0, None, BUNDLE.constants)
        assert abs(limits.l0_max_ahier_km - 3.46e3) <= 0.03 * 3.46e3
        assert abs(limits.l_max_semihier_km - 3.0e3) <= 0.03 * 3.0e3


def test_criterion_07_spdc_baseline():
    with criterion(7, "midway-source baseline: days at 550 km, years at 700 km"):
        t550_days = spdc_time(550.0, BUNDLE.spdc, BUNDLE.constants) * 1e-6 / 86400.0
        t700_years = spdc_time(700.0, BUNDLE.spdc, BUNDLE.constants) \
            * 1e-6 / 86400.0 / 365.25
        assert 1.0 <= t550_days <= 4.0
        assert 2.5 <= t700_years <= 10.0


def test_criterion_08_headline_rate_anchor():
    with criterion(8, "optimized per-ebit time near 6 min at 550 km and "
                      "40 min at 700 km (one order of magnitude)"):
        start = time.perf_counter()
        rec550 = sweep([550.0], [WV], ["ahierarchical"], BUNDLE.constants,
                       SPACE)[0]
        rec700 = sweep([700.0], [WV], ["ahierarchical"], BUNDLE.constants,
                       SPACE)[0]
        elapsed = time.perf_counter() - start
        assert 36.0 <= rec550.t_per_ebit_s <= 3600.0
        assert 240.0 <= rec700.t_per_ebit_s <= 24_000.0
        assert elapsed < 10.0


def test_criterion_09_waiting_time_oracle_grid():
    with criterion(9, "waiting-time series matches Monte Carlo on the full "
                      "grid at 1e6 samples within 3 sigma"):
        start = time.perf_counter()
        cell = 0
        for n_nodes in (2, 5, 10, 50):
            for p_g in (0.01, 0.1, 0.5, 0.9):
                cfg = McConfig(samples=1_000_000, seed=42 + cell)
                estimate = mc_expected_max_rounds(n_nodes - 1, p_g, cfg)
                analytic = expected_max_rounds(n_nodes - 1, p_g)
                if estimate.std_error > 0:
                    z = abs(analytic - estimate.mean) / estimate.std_error
                    assert z <= 3.0, (n_nodes, p_g, z)
                else:
                    assert analytic == estimate.mean
                cell += 1
        closed_cell = mc_expected_max_rounds(
            2, 0.5, McConfig(samples=1_000_000, seed=123))
        z = abs(8.0 / 3.0 - closed_cell.mean) / closed_cell.std_error
        assert z <= 3.0
        assert time.perf_counter() - start < 60.0


def test_criterion_10_chain_oracle():
    with criterion(10, "five-node 550 km blind chain: analytic total time "
                       "within 3 sigma of 1e5 Monte Carlo trials"):
        start = time.perf_counter()
        plan = chain_time("ahierarchical", WV, 5, 550.0, BUNDLE.constants,
                          SPACE)
        result = mc_chain_time("ahierarchical", WV, 5, 550.0,
                               BUNDLE.constants, SPACE,
                               McConfig(samples=100_000, seed=2024))
        z = abs(plan.t_tot_us - result.t_tot_us.mean) / result.t_tot_us.std_error
        assert z <= 3.0
        assert time.perf_counter() - start < 120.0


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical sweeps and run-to-run identical "
                       "fixed-seed Monte Carlo"):
        out1 = tmp_path / "sweep1.csv"
        out2 = tmp_path / "sweep2.csv"
        argv = ["optimize", "--grid", "300:700:3", "--n-max", "40"]
        assert run(argv + ["--output", str(out1)]) == 0
        assert run(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        cfg = McConfig(samples=200_000, seed=7)
        first = mc_expected_max_rounds(4, 0.1, cfg)
        second = mc_expected_max_rounds(4, 0.1, cfg)
        assert first == second


def test_criterion_12_figure_shape_properties():
    with criterion(12, "figure shape properties: connection probability "
                       "collapse, elementary-distance plateau, node ordering"):
        grid = [400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0,
                2000.0]
        records = [sweep([l], [WV], ["ahierarchical"], BUNDLE.constants,
                         SPACE)[0] for l in grid]

        # heralding stays order-unity while the connection probability
        # collapses by many decades as the optimal node count grows
        p_enc = [r.p_enc for r in records]
        p_eng = [r.p_eng for r in records]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(p_enc, p_enc[1:]))
        assert p_enc[-1] < 1e-6 * p_enc[0]
        assert min(p_eng) >= 0.05
        assert max(p_eng) > 0.9

        # the optimal elementary distance settles near 150 km (100..200 band)
        # and never grows past its plateau even though L grows five-fold
        l0s = [r.l0_km for r in records]
        assert all(100.0 <= l0 <= 200.0 for l0 in l0s)
        peak = l0s.index(max(l0s))
        assert all(l0 <= l0s[peak] for l0 in l0s[peak + 1:])

        # the optimal node count is nondecreasing in distance
        n_stars = [r.n_nodes for r in records]
        assert all(b >= a for a, b in zip(n_stars, n_stars[1:]))

        # weaker-multimode and single-mode platforms need at least as many
        # nodes as the richly multiplexed platform at equal distance
        temporal = BUNDLE.platform("Temporal")
        lattice = BUNDLE.platform("Lattice-SM")
        for l_km in (300.0, 500.0, 700.0, 900.0):
            n_t = sweep([l_km], [temporal], ["ahierarchical"],
                        BUNDLE.constants, SPACE)[0].n_nodes
            n_w = sweep([l_km], [WV], ["ahierarchical"], BUNDLE.constants,
                        SPACE)[0].n_nodes
            assert n_t > n_w
        for l_km in (300.0, 500.0, 900.0):
            n_l = sweep([l_km], [lattice], ["semihierarchical"],
                        BUNDLE.constants, SPACE)[0].n_nodes
            n_w = sweep([l_km], [WV], ["semihierarchical"], BUNDLE.constants,
                        SPACE)[0].n_nodes
            assert n_l >= n_w
