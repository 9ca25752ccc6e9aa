import dataclasses
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from muxrepeater.chain import (
    _HARMONIC_TABLE,
    _expected_max_rounds,
    _harmonic,
    _tail_terms,
    chain_time,
    expected_max_rounds,
    mean_entanglement,
    p_enc_chain,
    p_enc_stage,
    range_limits,
    spdc_time,
)
from muxrepeater.modes import ModeSpace, tau_of_k
from muxrepeater.params import (
    NoiseParams,
    PhysicalConstants,
    PlatformParams,
    SpdcParams,
    default_bundle,
)

# frozen 30-digit evaluations of the five-node 550 km anchor
PG_137_5 = 0.9953889316087015
P_ENG_5 = 0.9816829064358781
P_ENC_5 = 2.884336157765032e-4
T_TOT_5_550_US = 3700714.3280030696

# inclusion-exclusion closed forms for the expected slowest-link round
EMAX_2_LINKS_P03 = 80.0 / 17.0
EMAX_3_LINKS_P02 = 8.715846994535519


def expected_max_oracle(m: int, p: float) -> float:
    """Tail sum of P(max > j) over j >= 0 in plain floats, summed by fsum.

    Stops once the geometric bound m*(1-p)^(j+1)/p on the remaining tail
    falls below 1e-16; the sum itself is at least 1.
    """
    log_q = math.log1p(-p)
    terms = [1.0]
    j = 1
    while True:
        qj = math.exp(j * log_q)
        terms.append(-math.expm1(m * math.log1p(-qj)))
        if m * qj < 1e-16 * p:
            return math.fsum(terms)
        j += 1


def expected_max_fraction(m: int, p: float) -> float:
    """Inclusion-exclusion sum in exact rational arithmetic, rounded once."""
    q = 1 - Fraction(p)
    return float(sum(Fraction((-1) ** (k + 1) * math.comb(m, k)) / (1 - q ** k)
                     for k in range(1, m + 1)))


def assert_matches_oracles(m: int, p: float) -> None:
    got = _expected_max_rounds(np.array([m]), np.array([p]))[0]
    if m <= 24:
        assert got == pytest.approx(expected_max_fraction(m, p), rel=1e-12)
    if 1e-3 <= p < 1.0:  # the plain summation needs some 30/p terms
        assert got == pytest.approx(expected_max_oracle(m, p), rel=1e-12)


def bundle_and_space():
    bundle = default_bundle()
    return bundle, ModeSpace.default()


class TestConnectionStage:
    def test_ideal_hardware(self):
        assert p_enc_stage(1.0, 1.0) == (0.5, 0.125)

    def test_hand_values(self):
        p_e, p_f = p_enc_stage(0.7, 0.9)
        assert p_e == pytest.approx(0.19845, rel=1e-12)
        assert p_f == pytest.approx(0.0496125, rel=1e-12)

    def test_multimode_detection(self):
        p_e, p_f = p_enc_stage(0.7, 0.2)
        assert p_e == pytest.approx(0.0098, rel=1e-12)
        assert p_f == pytest.approx(0.00245, rel=1e-12)

    def test_range_check(self):
        with pytest.raises(ValueError):
            p_enc_stage(0.0, 0.9)


class TestChainProbabilities:
    def test_p_eng_trivials(self):
        bundle, space = bundle_and_space()
        # 10 km links of the multiplexed platform herald with p_g = 1 exactly
        sure = chain_time("ahierarchical", bundle.platform("WV-MUX-QM"), 7,
                          60.0, bundle.constants, space)
        assert sure.p_g == 1.0
        assert sure.p_eng == 1.0
        one_link = chain_time("ahierarchical", bundle.platform("Temporal"), 2,
                              100.0, bundle.constants, space)
        assert 0.0 < one_link.p_g < 1.0
        assert one_link.p_eng == one_link.p_g

    @pytest.mark.parametrize("arch", ["ahierarchical", "semihierarchical"])
    def test_p_eng_hand_value(self, arch):
        bundle, space = bundle_and_space()
        for platform in bundle.platforms:
            for n, l_km in ((3, 100.0), (5, 550.0), (12, 1300.0)):
                plan = chain_time(arch, platform, n, l_km, bundle.constants,
                                  space)
                # numpy's vectorized power may differ from the correctly
                # rounded Python pow by an ulp (0.5945451160483114**2)
                assert plan.p_eng == pytest.approx(
                    plan.p_g ** (plan.n_nodes - 1), rel=1e-15)

    def test_p_enc_endpoints_only(self):
        assert p_enc_chain(0.1, 0.2, 1.0, 2) == 1.0
        assert p_enc_chain(0.1, 0.2, 0.9, 2) == pytest.approx(0.81, rel=1e-12)

    def test_p_enc_single_station(self):
        assert p_enc_chain(0.0496125, 0.19845, 0.9, 3) == \
            pytest.approx(0.0496125 * 0.9 ** 3, rel=1e-12)

    def test_p_enc_five_nodes_frozen(self):
        assert p_enc_chain(0.0496125, 0.19845, 0.9, 5) == \
            pytest.approx(P_ENC_5, rel=1e-12)

    def test_p_enc_all_ones(self):
        for n in range(2, 30):
            assert p_enc_chain(1.0, 1.0, 1.0, n) == 1.0

    @pytest.mark.parametrize("n_nodes", [2.5, 4.5, 5.0, np.float64(5.0),
                                         np.array([3.0, 4.0])],
                             ids=["2.5", "4.5", "float", "numpy-float",
                                  "float-array"])
    @pytest.mark.parametrize("helper", ["p_enc_chain", "range_limits"])
    def test_exported_helpers_reject_non_integer_node_count(self, helper,
                                                            n_nodes):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        call = {
            "p_enc_chain": lambda: p_enc_chain(0.1, 0.2, 0.9, n_nodes),
            "range_limits": lambda: range_limits(wv, space, 10.0, n_nodes,
                                                 bundle.constants),
        }[helper]
        # range_limits takes one scalar count and checks it as the params do
        message = {"p_enc_chain": "node counts must be integers",
                   "range_limits": "n_nodes must be an integer >= 2"}[helper]
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("p_f, p_e, eta_x, name", [
        (0.5, 0.5, 2.0, "eta_x"), (-0.5, 0.5, 1.0, "p_f"),
        (0.5, 1.5, 1.0, "p_e"), (0.5, math.nan, 1.0, "p_e"),
        (0.5, 0.5, -1e-300, "eta_x")])
    def test_p_enc_rejects_factors_outside_unit_interval(self, p_f, p_e,
                                                         eta_x, name):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\]$"):
            p_enc_chain(p_f, p_e, eta_x, 3)

    def test_p_enc_underflowed_factor_gives_zero(self):
        # p_e = (eta_r * eta_det)**2 / 2 underflows to 0 at eta_r = 1e-170
        p_e, p_f = p_enc_stage(1e-170, 1.0)
        assert p_enc_chain(p_f, p_e, 0.9, 3) == 0.0
        assert p_enc_chain(p_f, p_e, 0.9, 2) == pytest.approx(0.81)

    @pytest.mark.parametrize("n_nodes", [1, np.array([2, 1])],
                             ids=["scalar", "array"])
    def test_chain_probabilities_reject_chains_below_two_nodes(self, n_nodes):
        with pytest.raises(ValueError, match="a chain needs at least 2 nodes"):
            p_enc_chain(0.1, 0.2, 0.9, n_nodes)


class TestWaitingFactor:
    def test_single_link_is_geometric_mean(self):
        for p in (0.01, 0.3, 0.9):
            assert expected_max_rounds(1, p) == pytest.approx(1.0 / p, rel=1e-12)

    def test_two_links_half(self):
        assert expected_max_rounds(2, 0.5) == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_deterministic_success(self):
        for m in (1, 4, 49):
            assert expected_max_rounds(m, 1.0) == 1.0

    def test_inclusion_exclusion_oracles(self):
        assert expected_max_rounds(2, 0.3) == \
            pytest.approx(EMAX_2_LINKS_P03, rel=1e-12)
        assert expected_max_rounds(3, 0.2) == \
            pytest.approx(EMAX_3_LINKS_P02, rel=1e-12)

    def test_rejects_zero_probability(self):
        for p in (0.0, True, np.True_):
            with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
                expected_max_rounds(2, p)

    @pytest.mark.parametrize("m, p", [(1, 5e-324), (3, 1e-320),
                                      (13, 1e-320)])
    def test_subnormal_probability_waits_forever_without_warning(self, m, p):
        # the exact (m <= 12) and Euler (m >= 13) forms overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert expected_max_rounds(m, p) == math.inf

    def test_array_form_at_zero_probability_waits_forever(self):
        # a link that never heralds: the Euler-Maclaurin form divides by +0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _expected_max_rounds(np.array([1, 12, 13, 50]), np.zeros(4))
        assert got.tolist() == [math.inf] * 4

    def test_node_count_switch(self):
        # counting one process per node races one more variable than per link
        bundle, space = bundle_and_space()
        temporal = bundle.platform("Temporal")
        by_links, by_nodes = (
            chain_time("semihierarchical", temporal, 3, 200.0,
                       bundle.constants, space, waiting_count=count)
            for count in ("links", "nodes"))
        assert by_nodes.t_tot_us > by_links.t_tot_us
        for plan, racers in ((by_links, 2), (by_nodes, 3)):
            waits = expected_max_rounds(racers, plan.p_g)
            eng_time = plan.t_rep_us * waits + 200.0 / bundle.constants.c
            assert plan.t_tot_us == eng_time / plan.p_success

    def test_unknown_waiting_count_rejected(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        with pytest.raises(ValueError, match="waiting_count"):
            chain_time("semihierarchical", wv, 5, 900.0, bundle.constants,
                       space, waiting_count="link")

    def test_rejects_non_integer_count(self):
        for m in (2.5, 3.0, 0, math.nan, True):
            with pytest.raises(ValueError, match="integer"):
                expected_max_rounds(m, 0.3)

    @given(st.integers(1, 12), st.floats(1e-300, 0.5))
    @example(1, 0.5)
    @example(12, 1e-300)
    @settings(max_examples=40, deadline=None)
    def test_exact_branch(self, m, p):
        assert_matches_oracles(m, p)

    @given(st.integers(13, 400), st.floats(1e-300, 0.1))
    @example(13, 0.1)
    @example(400, 1e-3)
    @settings(max_examples=40, deadline=None)
    def test_euler_maclaurin_branch(self, m, p):
        assert_matches_oracles(m, p)

    @given(st.integers(1, 10 ** 6), st.floats(0.1, 1.0, exclude_min=True))
    @example(12, math.nextafter(0.5, 1.0))
    @example(10 ** 6, math.nextafter(0.1, 1.0))
    @example(24, 1.0)
    @settings(max_examples=40, deadline=None)
    def test_tail_sum_branch(self, m, p):
        if m <= 12:
            p = max(p, math.nextafter(0.5, 1.0))
        assert_matches_oracles(m, p)

    def test_branch_boundaries(self):
        # both sides of every switch: m = 12 | 13, and one ulp around 0.1, 0.5
        for edge in (0.1, 0.5):
            p = np.array([math.nextafter(edge, 0.0), edge,
                          math.nextafter(edge, 1.0)])
            for m in (12, 13):
                got = _expected_max_rounds(np.full(3, m), p)
                for value, pi in zip(got, p):
                    assert value == pytest.approx(
                        expected_max_fraction(m, pi), rel=1e-12)

    def test_tail_terms_meet_bound(self):
        m, p = (a.ravel() for a in np.meshgrid(
            [1, 12, 13, 400, 10 ** 4, 10 ** 6],
            [math.nextafter(0.1, 1.0), 0.3, 0.5, 0.77, 0.999, 1 - 1e-12]))
        terms = _tail_terms(m, p)
        log_q = np.log1p(-p)
        # the tail past J is below m*(1-p)^(J+1)/p <= 1e-16, and J is the
        # least count with m*(1-p)^J/p <= 1e-16
        assert np.all((terms + 1) * log_q + np.log(m / p) <= math.log(1e-16))
        short = (terms - 1) * log_q + np.log(m / p) > math.log(1e-16)
        assert np.all(short | (terms == 1))
        assert _tail_terms(np.array([1, 49]), np.array([1.0, 1.0])).tolist() \
            == [1, 1]

    @given(st.lists(st.tuples(st.integers(1, 400),
                              st.floats(1e-3, 1.0, exclude_max=True)),
                    min_size=1, max_size=6))
    @example([(400, 1e-3), (2, 1e-3), (1, 0.5), (399, 0.999)])
    @settings(max_examples=30, deadline=None)
    def test_vector_series_matches_plain_summation(self, pairs):
        m, p = (np.array(column) for column in zip(*pairs))
        got = _expected_max_rounds(m, p)
        for value, (mi, pi) in zip(got, pairs):
            assert value == pytest.approx(expected_max_oracle(mi, pi), rel=1e-12)

    @given(st.lists(st.tuples(st.integers(1, 400),
                              st.floats(1e-4, 1.0, exclude_min=True)),
                    min_size=1, max_size=500))
    @settings(max_examples=20, deadline=None)
    def test_rows_do_not_depend_on_batch(self, pairs):
        m, p = (np.array(column) for column in zip(*pairs))
        batch = _expected_max_rounds(m, p)
        alone = [_expected_max_rounds(m[i:i + 1], p[i:i + 1])[0]
                 for i in range(len(pairs))]
        assert batch.tolist() == alone

    @given(st.integers(1, 59), st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_dominates_single_link(self, m, p):
        assert expected_max_rounds(m, p) >= 1.0 / p - 1e-12

    def test_monotone_in_nodes(self):
        for p in (0.05, 0.5, 0.95):
            values = [expected_max_rounds(m, p) for m in range(1, 39)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [_HARMONIC_TABLE + 1, 3 * _HARMONIC_TABLE,
                                   2 ** 20])
    def test_harmonic_series_past_the_table(self, m):
        # fsum adds the rounded 1/k exactly, within 1.2e-16 relative of H_m;
        # the series errs by under 1/(252 m^6) plus its own rounding
        summed = math.fsum(1.0 / k for k in range(1, m + 1))
        assert _harmonic(np.array([m]))[0] == pytest.approx(summed, rel=4e-16)

    def test_harmonic_table_ends_where_the_series_starts(self):
        m = np.array([_HARMONIC_TABLE - 1, _HARMONIC_TABLE, _HARMONIC_TABLE + 1])
        h = _harmonic(m)
        assert h[0] == np.cumsum(1.0 / np.arange(1, m[0] + 1))[-1]
        assert np.diff(h) == pytest.approx(1.0 / m[1:], rel=1e-9)

    @pytest.mark.parametrize("m, p", [(10 ** 20, 0.5), (2 ** 62, 0.01),
                                      (10 ** 8, 0.01)])
    def test_huge_racer_counts(self, m, p):
        # counts past the int64 range or the harmonic table still match the
        # summed tail, and no array of length m is built
        tracemalloc.start()
        try:
            got = expected_max_rounds(m, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert got == pytest.approx(expected_max_oracle(m, p), rel=1e-12)

    @pytest.mark.parametrize("p", [0.01, 0.5, 0.999])
    def test_counts_up_to_the_float_range(self, p):
        # past m ~ 1e290 the tail bound's ratio and m*log1p(-q^j) leave the
        # float range; the counts and terms must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (10 ** 291, 2 ** 1023, int(sys.float_info.max)):
                assert expected_max_rounds(m, p) == pytest.approx(
                    expected_max_oracle(m, p), rel=1e-12)
        with pytest.raises(ValueError, match="float range"):
            expected_max_rounds(2 ** 1024, p)


class TestChainTime:
    def test_ideal_two_node_chain(self):
        _, space = bundle_and_space()
        lossless = PhysicalConstants(alpha=1e-15)
        ideal = PlatformParams(name="ideal", modes=1, chi=0.999999, eta_r=1.0,
                               eta_x=1.0, eta_s=1.0, eta_m=1.0,
                               decoherence="exponential", tau_ms=1e12)
        plan = chain_time("ahierarchical", ideal, 2, 100.0, lossless, space)
        # p_g = chi^2 ~ 1 without fiber loss; everything else is lossless
        assert plan.t_tot_us == pytest.approx(plan.t_rep_us, rel=1e-4)
        assert plan.p_enc == 1.0

    def test_five_node_anchor(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        plan = chain_time("ahierarchical", wv, 5, 550.0, bundle.constants, space)
        assert plan.l0_km == 137.5
        assert plan.t_rep_us == pytest.approx(687.5, rel=1e-12)
        assert plan.p_g == pytest.approx(PG_137_5, rel=1e-12)
        assert plan.p_eng == pytest.approx(P_ENG_5, rel=1e-12)
        assert plan.p_enc == pytest.approx(P_ENC_5, rel=1e-12)
        assert plan.t_tot_us == pytest.approx(T_TOT_5_550_US, rel=1e-10)
        assert plan.storage_us == pytest.approx(687.5, rel=1e-12)

    def test_two_node_reduction_as_implemented(self):
        # the connection chain contributes eta_x**2 at N = 2 on top of the
        # final-detection factor (eta_det * eta_x)**2
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        plan = chain_time("ahierarchical", wv, 2, 100.0, bundle.constants, space)
        expected = plan.t_rep_us / (
            plan.p_g * wv.eta_x ** 2 * (wv.eta_s * wv.eta_x) ** 2)
        assert plan.t_tot_us == pytest.approx(expected, rel=1e-12)

    def test_semihier_first_try_limit(self):
        _, space = bundle_and_space()
        lossless = PhysicalConstants(alpha=1e-15)
        sure = PlatformParams(name="sure", modes=1, chi=0.999999, eta_r=0.7,
                              eta_x=0.9, eta_s=0.9, eta_m=1.0,
                              decoherence="exponential", tau_ms=1e12)
        plan = chain_time("semihierarchical", sure, 3, 200.0, lossless, space)
        # p_g ~ 1 so the wait collapses to one period plus the L/c overhead
        eng_time = plan.t_rep_us + 200.0 / lossless.c
        expected = eng_time / (plan.p_enc * (sure.eta_s * sure.eta_x) ** 2)
        assert plan.t_tot_us == pytest.approx(expected, rel=1e-4)
        assert plan.storage_us == pytest.approx((200.0 + 100.0) / 0.2, rel=1e-12)

    def test_semihier_storage_time(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        plan = chain_time("semihierarchical", wv, 5, 550.0, bundle.constants,
                          space)
        assert plan.storage_us == pytest.approx((550.0 + 137.5) / 0.2, rel=1e-12)

    def test_total_time_bounded_below_by_period(self):
        bundle, space = bundle_and_space()
        for platform in bundle.platforms:
            for arch in ("ahierarchical", "semihierarchical"):
                for n, l_km in ((2, 100.0), (4, 400.0), (9, 600.0)):
                    plan = chain_time(arch, platform, n, l_km,
                                      bundle.constants, space)
                    assert plan.t_tot_us >= plan.t_rep_us

    def test_monotone_in_efficiencies(self):
        bundle, space = bundle_and_space()
        for platform in bundle.platforms:
            base = chain_time("ahierarchical", platform, 4, 400.0,
                              bundle.constants, space)
            for field in ("eta_r", "eta_x", "eta_s", "eta_m"):
                worse = dataclasses.replace(
                    platform, **{field: 0.9 * getattr(platform, field)})
                degraded = chain_time("ahierarchical", worse, 4, 400.0,
                                      bundle.constants, space)
                assert degraded.t_tot_us >= base.t_tot_us * (1 - 1e-12)

    def test_underflow_yields_valid_zero_rate(self):
        # 16000 km in one hop underflows the pair probability to exactly 0
        bundle, space = bundle_and_space()
        lattice = bundle.platform("Lattice-SM")
        plan = chain_time("ahierarchical", lattice, 2, 16_000.0,
                          bundle.constants, space)
        assert plan.p_g < 1e-300
        assert math.isinf(plan.t_tot_us)
        assert plan.rate_ebit_per_s == 0.0
        assert plan.q_ebit_per_s_per_node == 0.0

    @given(st.sampled_from(["WV-MUX-QM", "WV-parallel", "Temporal",
                            "Lattice-SM"]),
           st.sampled_from(["ahierarchical", "semihierarchical"]),
           st.sampled_from(["links", "nodes"]), st.integers(2, 40),
           st.floats(1.0, 2000.0))
    @settings(max_examples=60, deadline=None)
    def test_total_time_from_success_probability(self, name, arch, count, n,
                                                 l_km):
        # the record's per-attempt success probability is the one that sets
        # T_tot, with the same operands in the same order
        bundle, space = bundle_and_space()
        platform = bundle.platform(name)
        plan = chain_time(arch, platform, n, l_km, bundle.constants, space,
                          waiting_count=count)
        eta_final = (platform.enc_detector_efficiency * platform.eta_x) ** 2
        assert plan.p_success > 0.0
        if arch == "ahierarchical":
            assert plan.p_success == plan.p_eng * plan.p_enc * eta_final
            assert plan.t_tot_us == plan.t_rep_us / plan.p_success
        else:
            assert plan.p_success == plan.p_enc * eta_final
            racers = n - 1 if count == "links" else n
            waits = expected_max_rounds(racers, plan.p_g)
            eng_time = plan.t_rep_us * waits + l_km / bundle.constants.c
            assert plan.t_tot_us == eng_time / plan.p_success

    def test_rejects_bad_arguments(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        with pytest.raises(ValueError):
            chain_time("hierarchical", wv, 5, 550.0, bundle.constants, space)
        with pytest.raises(ValueError):
            chain_time("ahierarchical", wv, 1, 550.0, bundle.constants, space)
        with pytest.raises(ValueError):
            chain_time("ahierarchical", wv, 5, 0.0, bundle.constants, space)

    @pytest.mark.parametrize("n_nodes, l_km", [
        (5, np.array([100.0, 900.0])), (np.array([5, 6]), 100.0),
        (5, [100.0, 900.0]), ([5, 6], 100.0)],
        ids=["distance-array", "node-array", "distance-list", "node-list"])
    def test_rejects_grids(self, n_nodes, l_km):
        bundle, space = bundle_and_space()
        with pytest.raises(ValueError, match="use sweep for a grid"):
            chain_time("ahierarchical", bundle.platform("WV-MUX-QM"), n_nodes,
                       l_km, bundle.constants, space)

    @pytest.mark.parametrize("arch", ["ahierarchical", "semihierarchical"])
    def test_numpy_scalars_match_python_scalars(self, arch):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        plan = chain_time(arch, wv, np.int64(5), np.float64(100.0),
                          bundle.constants, space)
        assert plan == chain_time(arch, wv, 5, 100.0, bundle.constants, space)
        assert type(plan.n_nodes) is int and type(plan.l0_km) is float

    @pytest.mark.parametrize("n_nodes", [2.5, 5.0, np.float64(5.0)],
                             ids=["half", "float", "numpy-float"])
    def test_rejects_non_integer_node_count(self, n_nodes):
        bundle, space = bundle_and_space()
        with pytest.raises(ValueError, match="node counts must be integers"):
            chain_time("ahierarchical", bundle.platform("WV-MUX-QM"), n_nodes,
                       100.0, bundle.constants, space)

    @pytest.mark.parametrize("l_km", [float("nan"), -1.0, 0.0, float("inf")])
    def test_bad_distance_names_distance(self, l_km):
        bundle, space = bundle_and_space()
        with pytest.raises(ValueError, match="total distance must be strictly"):
            chain_time("ahierarchical", bundle.platform("WV-MUX-QM"), 5, l_km,
                       bundle.constants, space)


class TestMeanEntanglement:
    @pytest.mark.parametrize("name", ["Temporal", "WV-MUX-QM"])
    @pytest.mark.parametrize("t_us", [-1.0, math.nan])
    def test_rejects_bad_storage_time(self, name, t_us):
        bundle, space = bundle_and_space()
        with pytest.raises(ValueError, match="storage time must be non-negative"):
            mean_entanglement(bundle.platform(name), space, t_us)

    def test_temporal_at_zero_storage(self):
        bundle, space = bundle_and_space()
        temporal = bundle.platform("Temporal")
        assert mean_entanglement(temporal, space, 0.0) == \
            pytest.approx(0.13590667823477527, rel=1e-12)

    def test_noise_degrades_content(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        clean = mean_entanglement(wv, space, 500.0)
        noisy = mean_entanglement(wv, space, 500.0, NoiseParams(B=0.01))
        assert noisy < clean


class TestRangeLimits:
    def test_frozen_values(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        limits = range_limits(wv, space, 10.0, None, bundle.constants)
        assert limits.tau_us == pytest.approx(10_000.0, rel=1e-12)
        assert limits.l0_max_ahier_km == pytest.approx(3461.6367652045706,
                                                       rel=1e-12)
        assert limits.l_max_semihier_km == pytest.approx(2995.732273553991,
                                                         rel=1e-12)

    def test_finite_node_prefactor(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        many = range_limits(wv, space, 10.0, None, bundle.constants)
        few = range_limits(wv, space, 10.0, 2, bundle.constants)
        assert few.l_max_semihier_km == pytest.approx(
            many.l_max_semihier_km / 2.0, rel=1e-12)

    def test_unit_chi_kills_range(self):
        bundle, space = bundle_and_space()
        wv = dataclasses.replace(bundle.platform("WV-MUX-QM"), chi=0.5,
                                 eta_r=1.0)
        noise = NoiseParams(B=0.5)
        assert noise.effective_chi(wv) == 1.0
        limits = range_limits(wv, space, 10.0, None, bundle.constants, noise)
        assert limits.l0_max_ahier_km == 0.0
        assert limits.l_max_semihier_km == 0.0

    def test_chi_past_one_kills_range(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        noise = NoiseParams(B=1.0)
        assert noise.effective_chi(wv) > 1.0
        limits = range_limits(wv, space, 10.0, 5, bundle.constants, noise)
        assert limits.l0_max_ahier_km == 0.0
        assert limits.l_max_semihier_km == 0.0

    @pytest.mark.parametrize("name, n_nodes, l0_max, l_max", [
        ("WV-MUX-QM", None, 3313.2569144411877, 2744.417845273085),
        ("WV-MUX-QM", 5, 3313.2569144411877, 2195.5342762184678),
        ("WV-parallel", None, 3313.2569144411877, 2744.417845273085),
        ("Temporal", None, 145.09915723591462, 72.54957861795731),
        ("Temporal", 5, 145.09915723591462, 58.03966289436585),
        ("Lattice-SM", None, 121533.16658438937, 60766.583292194686),
        ("Lattice-SM", 5, 121533.16658438937, 48613.26663375575)])
    def test_noise_enters_through_effective_chi(self, name, n_nodes, l0_max,
                                                l_max):
        # frozen from the reach at chi = chi + B/eta_r with B = 0.01
        bundle, space = bundle_and_space()
        limits = range_limits(bundle.platform(name), space, 10.0, n_nodes,
                              bundle.constants, NoiseParams(B=0.01))
        assert limits.l0_max_ahier_km == pytest.approx(l0_max, rel=1e-12)
        assert limits.l_max_semihier_km == pytest.approx(l_max, rel=1e-12)

    @pytest.mark.parametrize("name", ["Temporal", "WV-MUX-QM"])
    def test_chi_below_one_over_float_max_has_finite_reach(self, name):
        # 1/chi overflows at chi = 1e-310; -log(chi) = 713.8 does not
        bundle, space = bundle_and_space()
        platform = dataclasses.replace(bundle.platform(name), chi=1e-310)
        limits = range_limits(platform, space, 10.0, None, bundle.constants)
        log_gain = -math.log(1e-310)
        if platform.tau_us is None:
            tau, reach = tau_of_k(10.0, space.gamma), math.sqrt(log_gain)
        else:
            tau, reach = platform.tau_us, log_gain
        c = bundle.constants.c
        assert limits.tau_us == tau
        assert limits.l0_max_ahier_km == pytest.approx(c * tau * reach,
                                                       rel=1e-12)
        assert limits.l_max_semihier_km == pytest.approx(tau / 2 * c * log_gain,
                                                         rel=1e-12)

    @pytest.mark.parametrize("name", ["Temporal", "Lattice-SM"])
    @pytest.mark.parametrize("n_nodes", [3, 5])
    def test_held_reach_is_twice_the_printed_limit(self, name, n_nodes):
        # exponential decay: the held storage (L+L0)/c = L/c * N/(N-1) leaves
        # the window at R = (N-1)/N * c * tau * ln(1/chi_eff).  Checked on
        # mean_EF, not Q: Lattice-SM's Q is already 0 near R.
        bundle, space = bundle_and_space()
        platform = bundle.platform(name)
        c, tau = bundle.constants.c, platform.tau_us
        chi = NoiseParams().effective_chi(platform)
        reach = (n_nodes - 1) / n_nodes * c * tau * math.log(1 / chi)
        limits = range_limits(platform, space, 10.0, n_nodes, bundle.constants)
        assert reach == pytest.approx(2 * limits.l_max_semihier_km, rel=1e-15)
        ef = [chain_time("semihierarchical", platform, n_nodes, scale * reach,
                         bundle.constants, space).mean_ef
              for scale in (0.999, 1.001)]
        assert ef[0] > 0
        assert ef[1] == 0

    @pytest.mark.parametrize("n_nodes", [0, 1, -3])
    def test_rejects_chains_below_two_nodes(self, n_nodes):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        with pytest.raises(ValueError, match="n_nodes must be an integer >= 2"):
            range_limits(wv, space, 10.0, n_nodes, bundle.constants)

    def test_node_count_past_int64_is_the_many_node_limit(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        assert range_limits(wv, space, 10.0, 10 ** 20, bundle.constants) == \
            range_limits(wv, space, 10.0, None, bundle.constants)

    @pytest.mark.parametrize("b", [0.5, 1.0], ids=["chi_eff=1", "chi_eff=1.5"])
    @pytest.mark.parametrize("n_nodes", [None, 5])
    def test_closed_window_has_no_reach_at_infinite_lifetime(self, b, n_nodes):
        # tau(1e-320) = inf, and inf * 0 would be nan
        bundle, space = bundle_and_space()
        wv = dataclasses.replace(bundle.platform("WV-MUX-QM"), chi=0.5,
                                 eta_r=1.0)
        limits = range_limits(wv, space, 1e-320, n_nodes, bundle.constants,
                              NoiseParams(B=b))
        assert limits.tau_us == math.inf
        assert limits.l0_max_ahier_km == 0.0
        assert limits.l_max_semihier_km == 0.0

    @pytest.mark.parametrize("k_ref", [None, 0.0, -10.0, math.nan])
    def test_mode_dependent_lifetime_needs_positive_k_ref(self, k_ref):
        bundle, space = bundle_and_space()
        with pytest.raises(ValueError, match="a positive K_ref is required"):
            range_limits(bundle.platform("WV-MUX-QM"), space, k_ref, None,
                         bundle.constants)

    def test_fixed_lifetime_platform_ignores_k_ref(self):
        bundle, space = bundle_and_space()
        lattice = bundle.platform("Lattice-SM")
        limits = range_limits(lattice, space, None, None, bundle.constants)
        assert limits.tau_us == pytest.approx(220_000.0, rel=1e-12)
        assert limits.k_ref_inv_mm is None


class TestSpdcBaseline:
    def test_zero_distance(self):
        constants = PhysicalConstants()
        assert spdc_time(0.0, SpdcParams(), constants) == \
            pytest.approx(1.5432098765432098, rel=1e-12)

    def test_550_km_frozen(self):
        constants = PhysicalConstants()
        t_days = spdc_time(550.0, SpdcParams(), constants) * 1e-6 / 86400.0
        assert t_days == pytest.approx(1.7861225422953818, rel=1e-9)

    def test_700_km_frozen(self):
        constants = PhysicalConstants()
        t_years = spdc_time(700.0, SpdcParams(), constants) * 1e-6 / 86400.0 / 365.25
        assert t_years == pytest.approx(4.890137008337801, rel=1e-9)

    @pytest.mark.parametrize("l_km", [-1.0, math.nan])
    def test_rejects_bad_distance(self, l_km):
        with pytest.raises(ValueError, match="distance must be non-negative"):
            spdc_time(l_km, SpdcParams(), PhysicalConstants())

    def test_visibility_does_not_enter_the_pair_time(self):
        constants = PhysicalConstants()
        perfect = spdc_time(100.0, SpdcParams(), constants)
        for visibility in (0.9, 0.3, 0.0):
            assert spdc_time(100.0, SpdcParams(visibility=visibility),
                             constants) == perfect
