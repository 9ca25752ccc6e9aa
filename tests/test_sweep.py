import dataclasses
import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from muxrepeater import cli, sweep as sweep_module, werner
from muxrepeater.chain import _chain_block, _q_bound, _rows, chain_time
from muxrepeater.modes import ModeSpace
from muxrepeater.params import (DECOHERENCE_KINDS, ENC_DETECTION_KINDS,
                                NoiseParams, PlatformParams, default_bundle)
from muxrepeater.sweep import _BLOCK_ENTRIES, _CHUNK, sweep

BUNDLE = default_bundle()
ARCHS = ["ahierarchical", "semihierarchical"]
WV = [BUNDLE.platform("WV-MUX-QM"), BUNDLE.platform("WV-parallel")]
# distances whose optimal Q is subnormal, and their N*
SUBNORMAL_ROWS = [("WV-parallel", "ahierarchical", 14607.739515140565, 6),
                  ("Temporal", "ahierarchical", 15105.210063466075, 102),
                  ("Lattice-SM", "semihierarchical", 131388.71482469767, 312)]


@st.composite
def platforms(draw):
    """A platform drawn from across the accepted parameter ranges."""
    unit = st.floats(1e-3, 1.0)
    spectral = draw(st.booleans())
    return PlatformParams(
        name="drawn", modes=draw(st.integers(1, 10 ** 6)),
        chi=draw(st.floats(1e-6, 0.9)), eta_r=draw(unit), eta_x=draw(unit),
        eta_s=draw(unit), eta_m=draw(unit), multiplexed=draw(st.booleans()),
        enc_detection=draw(st.sampled_from(ENC_DETECTION_KINDS)),
        decoherence=("gaussian" if spectral
                     else draw(st.sampled_from(DECOHERENCE_KINDS))),
        tau_ms=None if spectral else draw(st.floats(1e-3, 1e4)))


def block_spy(monkeypatch):
    """Record the (distances, node counts) shape of every sweep block."""
    shapes = []

    def spy(architecture, platform, n, l_km, *args):
        shapes.append((np.size(l_km), np.size(n)))
        return _chain_block(architecture, platform, n, l_km, *args)

    monkeypatch.setattr(sweep_module, "_chain_block", spy)
    return shapes


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
        best, = sweep([550.0], [wv], ["ahierarchical"], bundle.constants,
                      space, n_max=30)
        for n in range(2, 31):
            rec = chain_time("ahierarchical", wv, n, 550.0, bundle.constants,
                             space)
            assert best.q_ebit_per_s_per_node >= rec.q_ebit_per_s_per_node

    @pytest.mark.parametrize("n_max", [9, 10 ** 8])
    def test_all_zero_ties_break_to_smallest(self, n_max):
        bundle, space = bundle_and_space()
        temporal = bundle.platform("Temporal")
        # beyond the reach cutoff every node count gives Q = 0, and at
        # 151 km every storage time (L + L0)/c is past it; such a row
        # closes only once the bound underflows
        records = sweep([151.0, 4000.0], [temporal], ["semihierarchical"],
                        bundle.constants, space, n_max=n_max)
        assert [r.n_nodes for r in records] == [2, 2]
        assert [r.q_ebit_per_s_per_node for r in records] == [0.0, 0.0]

    @given(st.sampled_from([p.name for p in BUNDLE.platforms]),
           st.sampled_from(["ahierarchical", "semihierarchical"]),
           st.sampled_from(["links", "nodes"]),
           st.floats(50.0, 2500.0), st.integers(2, 12), st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_array_pass_matches_scalar_loop(self, name, arch, count, l_km,
                                            n_lo, span):
        space = ModeSpace.default()
        platform = BUNDLE.platform(name)
        n_max = n_lo + span
        block = _chain_block(arch, platform, np.arange(n_lo, n_max + 1), l_km,
                             BUNDLE.constants, space, waiting_count=count)
        best = None
        for n in range(2, n_max + 1):  # the first maximum wins
            rec = chain_time(arch, platform, n, l_km, BUNDLE.constants, space,
                             waiting_count=count)
            if n >= n_lo:
                assert _rows(block, [n - n_lo]) == [rec]
            if best is None or rec.q_ebit_per_s_per_node > best.q_ebit_per_s_per_node:
                best = rec
        record, = sweep([l_km], [platform], [arch], BUNDLE.constants, space,
                        n_max=n_max, waiting_count=count)
        assert record.n_nodes == best.n_nodes
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
            record, = sweep([np.float64(2000.0)], [BUNDLE.platform(name)],
                            [arch], BUNDLE.constants, space, n_max=400)
        assert (record.q_ebit_per_s_per_node == 0.0) == zero_rate
        if zero_rate:
            assert record.n_nodes == 2

    @pytest.mark.parametrize("name", [p.name for p in BUNDLE.platforms])
    def test_held_chain_past_heralding_underflow(self, name):
        # p_g underflows to 0 at every N: the wait, and so T_tot, is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record, = sweep([1e6], [BUNDLE.platform(name)],
                            ["semihierarchical"], BUNDLE.constants,
                            ModeSpace.default(), n_max=5)
        assert record.n_nodes == 2
        assert record.p_g == 0.0
        assert record.t_tot_s == math.inf
        assert record.q_ebit_per_s_per_node == 0.0

    @pytest.mark.parametrize("n_max", [1, 0, 2.5, True])
    def test_rejects_bad_n_max(self, n_max):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        with pytest.raises(ValueError, match="n_max"):
            sweep([550.0], [wv], ["ahierarchical"], bundle.constants, space,
                  n_max=n_max)

    def test_n_max_two_searches_two_nodes_only(self, monkeypatch):
        bundle, space = bundle_and_space()
        shapes = block_spy(monkeypatch)
        records = sweep([100.0, 550.0, 2000.0], bundle.platforms, ARCHS,
                        bundle.constants, space, n_max=2)
        assert len(records) == 3 * len(bundle.platforms) * len(ARCHS)
        assert {r.n_nodes for r in records} == {2}
        assert {n for _, n in shapes} == {1}

    def test_waiting_count_is_explicit(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        args = ([550.0], [wv], ["semihierarchical"], bundle.constants, space)
        record, = sweep(*args, waiting_count="nodes")
        assert record == chain_time("semihierarchical", wv, record.n_nodes,
                                    550.0, bundle.constants, space,
                                    waiting_count="nodes")
        with pytest.raises(TypeError, match="unexpected keyword"):
            sweep(*args, averages={})

    def test_rejects_infinite_distance(self):
        bundle, space = bundle_and_space()
        with pytest.raises(ValueError, match="total distance must be strictly"):
            sweep([float("inf")], WV, ARCHS, bundle.constants, space)

    def test_temporal_needs_more_nodes_than_multiplexed(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        temporal = bundle.platform("Temporal")
        for l_km in (300.0, 500.0, 700.0):
            n_t = sweep([l_km], [temporal], ["ahierarchical"],
                        bundle.constants, space)[0].n_nodes
            n_w = sweep([l_km], [wv], ["ahierarchical"], bundle.constants,
                        space)[0].n_nodes
            assert n_t > n_w

    def test_single_mode_needs_more_nodes_when_holding(self):
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")
        lattice = bundle.platform("Lattice-SM")
        for l_km in (300.0, 500.0, 900.0):
            n_l = sweep([l_km], [lattice], ["semihierarchical"],
                        bundle.constants, space)[0].n_nodes
            n_w = sweep([l_km], [wv], ["semihierarchical"], bundle.constants,
                        space)[0].n_nodes
            assert n_l >= n_w


class TestBaselineCrossover:
    def test_repeater_overtakes_midway_source_near_300_km(self):
        # short links favor the direct pair source; the multiplexed chain
        # wins once attenuation bites, with the crossover around 300 km
        from muxrepeater.chain import spdc_time
        bundle, space = bundle_and_space()
        wv = bundle.platform("WV-MUX-QM")

        def times(l_km):
            rec = sweep([l_km], [wv], ["ahierarchical"], bundle.constants,
                        space)[0]
            t_pair_s = spdc_time(l_km, bundle.spdc, bundle.constants) * 1e-6
            ef = werner.entanglement_of_formation(bundle.spdc.visibility)
            return rec.t_per_ebit_s, t_pair_s / ef

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
                        n_max=20)
        assert [(r.l_km, r.platform, r.architecture) for r in records] == [
            (l, p.name, a) for l in grid for p in platforms for a in archs]
        again = sweep(grid, platforms, archs, bundle.constants, space,
                      n_max=20)
        assert records == again

    @given(st.lists(st.floats(50.0, 2500.0), min_size=2, max_size=6),
           st.lists(st.sampled_from([p.name for p in BUNDLE.platforms]),
                    min_size=1, max_size=4),
           st.permutations(ARCHS), st.sampled_from(["links", "nodes"]),
           st.integers(2, 27))
    @settings(max_examples=30, deadline=None)
    def test_records_match_scalar_loop(self, grid, names, archs, count,
                                       n_max):
        # independent oracle: chain_time at every N, keeping the first maximum
        space = ModeSpace.default()
        platforms = [BUNDLE.platform(name) for name in names]
        expected = []
        for l_km in grid:
            for platform in platforms:
                for arch in archs:
                    best = None
                    for n in range(2, n_max + 1):
                        rec = chain_time(arch, platform, n, l_km,
                                         BUNDLE.constants, space,
                                         waiting_count=count)
                        if best is None or (rec.q_ebit_per_s_per_node >
                                            best.q_ebit_per_s_per_node):
                            best = rec
                    expected.append(best)
        assert sweep(grid, platforms, archs, BUNDLE.constants, space,
                     n_max=n_max, waiting_count=count) == expected

    @given(st.lists(st.floats(50.0, 2500.0), min_size=1, max_size=4),
           st.sampled_from([p.name for p in BUNDLE.platforms]),
           st.sampled_from(ARCHS), st.sampled_from(["links", "nodes"]),
           st.integers(2, 12), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_block_entries_match_chain_time(self, grid, name, arch, count,
                                            n_lo, span):
        # entry (i, j) of an (L x N) block is the chain_time record at (L_i, N_j)
        space = ModeSpace.default()
        platform = BUNDLE.platform(name)
        n_range = range(n_lo, n_lo + span + 1)
        block = _chain_block(arch, platform, np.array(n_range),
                             np.array(grid)[:, None], BUNDLE.constants, space,
                             waiting_count=count)
        rows, cols = np.indices((len(grid), len(n_range))).reshape(2, -1)
        assert _rows(block, rows, cols) == [
            chain_time(arch, platform, n, l_km, BUNDLE.constants, space,
                       waiting_count=count)
            for l_km in grid for n in n_range]

    def test_platforms_share_spectral_averages(self, monkeypatch):
        # both wavevector platforms store for the same times with one
        # chi_eff and lifetime law, and every walk starts with the same
        # chunk over the whole slice, so that chunk is integrated once per
        # architecture, not once per platform and architecture
        rows = []
        average_ef = werner._average_ef

        def counting(space, t_us, chi_eff):
            rows.append(np.size(t_us))
            return average_ef(space, t_us, chi_eff)

        monkeypatch.setattr(werner, "_average_ef", counting)
        grid = np.linspace(100.0, 1000.0, 10)
        integrated = []
        for platforms in (WV, WV[:1], WV[1:]):
            rows.clear()
            records = sweep(grid, platforms, ARCHS, BUNDLE.constants,
                            ModeSpace.default(), n_max=200)
            assert len(records) == 20 * len(platforms)
            integrated.append(sum(rows))
        assert integrated[0] == integrated[1] + integrated[2] - 2 * 10 * _CHUNK

    def test_distance_slices_match_single_distances(self):
        # 5 x 2999 (L, N) entries overflow one block, so the grid is sliced
        n_max = 3000
        grid = [150.0, 420.0, 777.7, 1300.0, 2600.0]
        assert len(grid) * (n_max - 1) > _BLOCK_ENTRIES
        space = ModeSpace.default()
        whole = sweep(grid, WV, ARCHS, BUNDLE.constants, space, n_max=n_max)
        single = [record for l_km in grid
                  for record in sweep([l_km], WV, ARCHS, BUNDLE.constants,
                                      space, n_max=n_max)]
        assert whole == single


class TestNodeCountBound:
    @given(platforms(), st.sampled_from(ARCHS), st.sampled_from(["links", "nodes"]),
           st.floats(1.0, 2e5), st.integers(2, 700), st.floats(0.0, 0.05))
    @example(BUNDLE.platform("Temporal"), "semihierarchical", "links", 150.5,
             290, 0.0)
    @settings(max_examples=60, deadline=None)
    def test_bound_covers_every_larger_node_count(self, platform, arch, count,
                                                  l_km, n, b):
        space, noise = ModeSpace.default(), NoiseParams(B=b)
        block = _chain_block(arch, platform, np.arange(n, n + 40), l_km,
                             BUNDLE.constants, space, noise, count)
        bound = _q_bound(arch, platform, n, np.array([l_km]),
                         BUNDLE.constants, space, noise)
        assert np.all(block.q_ebit_per_s_per_node <= bound)

    @given(st.lists(st.one_of(st.floats(1.0, 2e5),
                              st.sampled_from([row[2] for row in SUBNORMAL_ROWS]),
                              st.floats(148.0, 152.0)),
                    min_size=1, max_size=4),
           st.one_of(st.sampled_from(BUNDLE.platforms), platforms()),
           st.sampled_from(ARCHS), st.sampled_from(["links", "nodes"]),
           st.integers(2, 700))
    @example([14607.739515140565, 3e4], BUNDLE.platform("WV-parallel"),
             "ahierarchical", "links", 700)
    @example([15105.210063466075, 2e4], BUNDLE.platform("Temporal"),
             "ahierarchical", "links", 700)
    @example([131388.71482469767, 2e5], BUNDLE.platform("Lattice-SM"),
             "semihierarchical", "links", 700)
    @example([150.5, 151.0], BUNDLE.platform("Temporal"),
             "semihierarchical", "links", 700)
    @settings(max_examples=40, deadline=None)
    def test_pruned_records_match_full_argmax(self, grid, platform, arch,
                                              count, n_max):
        space = ModeSpace.default()
        block = _chain_block(arch, platform, np.arange(2, n_max + 1),
                             np.array(grid)[:, None], BUNDLE.constants, space,
                             waiting_count=count)
        best = block.q_ebit_per_s_per_node.argmax(axis=1)
        assert sweep(grid, [platform], [arch], BUNDLE.constants, space,
                     n_max=n_max, waiting_count=count) == \
            _rows(block, np.arange(len(grid)), best)

    def test_subnormal_rows_keep_their_optimum(self):
        space = ModeSpace.default()
        for name, arch, l_km, n_star in SUBNORMAL_ROWS:
            record, = sweep([l_km], [BUNDLE.platform(name)], [arch],
                            BUNDLE.constants, space, n_max=2000)
            assert 0.0 < record.q_ebit_per_s_per_node < sys.float_info.min
            assert record.n_nodes == n_star

    def test_huge_n_max_matches_and_stays_small(self, monkeypatch):
        # P_enc underflows within some 540 node counts, so every row closes
        # there and n_max = 10**8 costs no more than n_max = 2000
        names = ["WV-MUX-QM", "Temporal", "Lattice-SM"]
        grid = [100.0, 150.5, 151.0, 700.0, 2500.0]
        args = (grid, [BUNDLE.platform(name) for name in names], ARCHS,
                BUNDLE.constants, ModeSpace.default())
        shapes = block_spy(monkeypatch)
        start = time.perf_counter()
        huge = sweep(*args, n_max=10 ** 8)
        assert time.perf_counter() - start < 1.0
        assert max(rows * n for rows, n in shapes) <= _BLOCK_ENTRIES
        assert huge == sweep(*args, n_max=2000)
        temporal_held = huge[len(names) * len(ARCHS) + 3]
        assert (temporal_held.platform, temporal_held.n_nodes) == ("Temporal", 300)

    def test_default_rate_curve_evaluates_a_tenth_of_its_entries(
            self, monkeypatch, capsys):
        shapes = block_spy(monkeypatch)
        assert cli.run(["rate-curve"]) == 0
        capsys.readouterr()
        full = 10 * len(BUNDLE.platforms) * len(ARCHS) * 199
        assert full == 15920
        assert sum(rows * n for rows, n in shapes) <= 0.10 * full


class TestMetamorphicRelations:
    """Q* of a one-distance sweep, and N* along a grid, move the right way
    with each input."""

    @staticmethod
    def q_star(platform, l_km, constants=BUNDLE.constants,
               space=ModeSpace.default(), **options):
        return np.array([r.q_ebit_per_s_per_node for r in sweep(
            [l_km], [platform], ARCHS, constants, space, **options)])

    @given(platforms(), st.floats(10.0, 3000.0), st.floats(1e-3, 1.0),
           st.integers(1, 10 ** 4), st.floats(1e-3, 0.999),
           st.floats(1e-6, 0.05))
    @settings(max_examples=40, deadline=None)
    def test_q_star_is_monotone_in_link_and_noise_inputs(
            self, platform, l_km, gain, extra_modes, alpha_factor, b):
        base = self.q_star(platform, l_km)
        eta_m = platform.eta_m + gain * (1.0 - platform.eta_m)
        not_lower = [
            self.q_star(dataclasses.replace(platform, eta_m=eta_m), l_km),
            self.q_star(dataclasses.replace(
                platform, modes=platform.modes + extra_modes), l_km),
            self.q_star(platform, l_km, dataclasses.replace(
                BUNDLE.constants, alpha=BUNDLE.constants.alpha * alpha_factor))]
        for q in not_lower:
            assert np.all(q >= base * (1.0 - 1e-12)), (q, base)
        # read-out noise B > 0 against the NoiseParams() default
        noisy = self.q_star(platform, l_km, noise=NoiseParams(B=b))
        assert np.all(noisy <= base * (1.0 + 1e-12)), (noisy, base)

    @pytest.mark.parametrize("count", ["links", "nodes"])
    @given(platforms(), st.floats(10.0, 3000.0), st.floats(0.01, 1.0),
           st.floats(1e-3, 1.0), st.floats(1.0, 100.0), st.floats(0.0, 0.05))
    @settings(max_examples=60, deadline=None)
    def test_q_star_does_not_fall_as_the_chain_improves(
            self, count, platform, l_km, shrink, gain, growth, b):
        def toward(value, limit):
            return value + gain * (limit - value)

        # a longer fixed lifetime, or gamma for mode-dependent lifetimes
        constants, space = BUNDLE.constants, ModeSpace.default()
        longer, longer_space = platform, space
        if platform.tau_ms is None:
            longer_space = dataclasses.replace(space, gamma=space.gamma * growth)
        else:
            longer = dataclasses.replace(platform,
                                         tau_ms=platform.tau_ms * growth)
        for noise in (NoiseParams(), NoiseParams(B=b)):
            options = {"noise": noise, "waiting_count": count}
            base = self.q_star(platform, l_km, **options)
            not_lower = [
                self.q_star(platform, l_km * shrink, **options),
                *(self.q_star(dataclasses.replace(
                    platform, **{eta: toward(getattr(platform, eta), 1.0)}),
                    l_km, **options) for eta in ("eta_r", "eta_x", "eta_s")),
                self.q_star(longer, l_km, constants, longer_space, **options),
                self.q_star(platform, l_km, dataclasses.replace(
                    constants, c=toward(constants.c, 0.3)), **options)]
            for q in not_lower:
                assert np.all(q >= base * (1.0 - 1e-12)), (q, base)

    @pytest.mark.parametrize("count", ["links", "nodes"])
    @given(platforms())
    @settings(max_examples=20, deadline=None)
    def test_n_star_does_not_fall_as_the_distance_grows(self, count,
                                                        platform):
        grid = np.linspace(10.0, 3000.0, 60)
        records = sweep(grid, [platform], ARCHS, BUNDLE.constants,
                        ModeSpace.default(), n_max=400, waiting_count=count)
        for arch in ARCHS:
            n_star = [r.n_nodes for r in records
                      if r.architecture == arch and r.q_ebit_per_s_per_node > 0]
            assert n_star == sorted(n_star), (arch, n_star)
