import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muxrepeater.chain import chain_time
from muxrepeater.modes import ModeSpace
from muxrepeater.params import default_bundle

BUNDLE = default_bundle()
from muxrepeater.sweep import optimize_nodes, sweep


def bundle_and_space():
    return default_bundle(), ModeSpace.default()


class TestRecordInvariants:
    def test_rate_identities(self):
        bundle, space = bundle_and_space()
        for platform in bundle.platforms:
            for arch in ("ahierarchical", "semihierarchical"):
                rec = chain_time(arch, platform, 5, 500.0, bundle.constants,
                                 space)
                if not math.isfinite(rec.t_tot_s):
                    assert rec.rate_ebit_per_s == 0.0
                    continue
                assert rec.rate_ebit_per_s == pytest.approx(
                    rec.mean_ef / rec.t_tot_s, rel=1e-12)
                assert rec.q_ebit_per_s_per_node * rec.n_nodes * rec.t_tot_s == \
                    pytest.approx(rec.mean_ef, rel=1e-12)
                if rec.rate_ebit_per_s > 0:
                    assert rec.t_per_ebit_s == pytest.approx(
                        1.0 / (rec.n_nodes * rec.q_ebit_per_s_per_node),
                        rel=1e-12)

    def test_zero_content_is_valid_record(self):
        bundle, space = bundle_and_space()
        temporal = bundle.platform("Temporal")
        # storage far past the temporal platform's entanglement cutoff
        rec = chain_time("ahierarchical", temporal, 2, 400.0, bundle.constants,
                         space)
        assert rec.mean_ef == 0.0
        assert rec.rate_ebit_per_s == 0.0
        assert rec.q_ebit_per_s_per_node == 0.0
        assert math.isinf(rec.t_per_ebit_s)


class TestOptimizeNodes:
    def test_winner_dominates_range(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        n_star, best = optimize_nodes(550.0, wv, "ahierarchical",
                                      bundle.constants, space,
                                      n_range=range(2, 31))
        assert best.n_nodes == n_star
        for n in range(2, 31):
            rec = chain_time("ahierarchical", wv, n, 550.0, bundle.constants,
                             space)
            assert best.q_ebit_per_s_per_node >= rec.q_ebit_per_s_per_node

    def test_all_zero_ties_break_to_smallest(self):
        bundle, space = bundle_and_space()
        temporal = bundle.platform("Temporal")
        # beyond the reach cutoff every node count gives Q = 0
        n_star, best = optimize_nodes(4000.0, temporal, "semihierarchical",
                                      bundle.constants, space,
                                      n_range=range(2, 10))
        assert n_star == 2
        assert best.q_ebit_per_s_per_node == 0.0

    @given(st.sampled_from([p.name for p in BUNDLE.platforms]),
           st.sampled_from(["ahierarchical", "semihierarchical"]),
           st.sampled_from(["links", "nodes"]),
           st.floats(50.0, 2500.0), st.integers(2, 12), st.integers(0, 120))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_array_pass_matches_scalar_loop(self, name, arch, count, l_km,
                                            n_lo, span):
        space = ModeSpace.default()
        platform = BUNDLE.platform(name)
        n_range = range(n_lo, n_lo + span + 1)
        best = None
        for n in n_range:  # the first maximum wins
            rec = chain_time(arch, platform, n, l_km, BUNDLE.constants, space,
                             waiting_count=count)
            if best is None or rec.q_ebit_per_s_per_node > best.q_ebit_per_s_per_node:
                best = rec
        n_star, record = optimize_nodes(l_km, platform, arch, BUNDLE.constants,
                                        space, n_range=n_range,
                                        waiting_count=count)
        assert n_star == best.n_nodes
        assert record == best

    @pytest.mark.parametrize("name, arch, zero_rate", [
        ("Temporal", "ahierarchical", False),
        ("Temporal", "semihierarchical", True),
        ("WV-MUX-QM", "ahierarchical", False),
        ("WV-MUX-QM", "semihierarchical", False)])
    def test_long_chains_at_numpy_distance_raise_no_warning(self, name, arch,
                                                            zero_rate):
        # N up to 400 at 2000 km underflows P_ENC; T_tot = inf is by design
        space = ModeSpace.default()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n_star, record = optimize_nodes(
                np.float64(2000.0), BUNDLE.platform(name), arch,
                BUNDLE.constants, space, n_range=range(2, 401))
        assert record.n_nodes == n_star
        assert (record.q_ebit_per_s_per_node == 0.0) == zero_rate
        if zero_rate:
            assert n_star == 2

    def test_rejects_bad_range(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        with pytest.raises(ValueError):
            optimize_nodes(550.0, wv, "ahierarchical", bundle.constants,
                           space, n_range=[])
        with pytest.raises(ValueError):
            optimize_nodes(550.0, wv, "ahierarchical", bundle.constants,
                           space, n_range=range(1, 5))

    def test_temporal_needs_more_nodes_than_multiplexed(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        temporal = bundle.platform("Temporal")
        for l_km in (300.0, 500.0, 700.0):
            n_t, _ = optimize_nodes(l_km, temporal, "ahierarchical",
                                    bundle.constants, space)
            n_w, _ = optimize_nodes(l_km, wv, "ahierarchical",
                                    bundle.constants, space)
            assert n_t > n_w

    def test_single_mode_needs_more_nodes_when_holding(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        lattice = bundle.platform("Lattice-SM")
        for l_km in (300.0, 500.0, 900.0):
            n_l, _ = optimize_nodes(l_km, lattice, "semihierarchical",
                                    bundle.constants, space)
            n_w, _ = optimize_nodes(l_km, wv, "semihierarchical",
                                    bundle.constants, space)
            assert n_l >= n_w


class TestBaselineCrossover:
    def test_repeater_overtakes_midway_source_near_300_km(self):
        # short links favor the direct pair source; the multiplexed chain
        # wins once attenuation bites, with the crossover around 300 km
        from muxrepeater.chain import spdc_time
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")

        def times(l_km):
            _, rec = optimize_nodes(l_km, wv, "ahierarchical",
                                    bundle.constants, space)
            return rec.t_per_ebit_s, spdc_time(l_km, bundle.spdc,
                                               bundle.constants) * 1e-6

        chain_200, direct_200 = times(200.0)
        chain_400, direct_400 = times(400.0)
        assert chain_200 > direct_200
        assert chain_400 < direct_400


class TestSweep:
    def test_ordering_and_determinism(self):
        bundle, space = bundle_and_space()
        platforms = [bundle.platform("WV-MUX-QM"), bundle.platform("Temporal")]
        archs = ["ahierarchical", "semihierarchical"]
        grid = [300.0, 500.0]
        records = sweep(grid, platforms, archs, bundle.constants, space,
                        n_range=range(2, 21))
        assert [(r.l_km, r.platform, r.architecture) for r in records] == [
            (l, p.name, a) for l in grid for p in platforms for a in archs]
        again = sweep(grid, platforms, archs, bundle.constants, space,
                      n_range=range(2, 21))
        assert records == again
