import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from muxrepeater.chain import chain_time, expected_max_rounds
from muxrepeater.modes import ModeSpace
from muxrepeater.montecarlo import (
    _COLUMN_MAX_UP_TO,
    _DRAW_BLOCK,
    _TRIAL_CHUNK,
    McConfig,
    SimulationBudgetError,
    _earlier_pass_rounds,
    _estimate,
    _geometric_row_max,
    _geometric_search_sums,
    mc_chain_time,
    mc_expected_max_rounds,
)
from muxrepeater.params import PhysicalConstants, default_bundle, load_config

MC_SEEDS = Path(__file__).resolve().parents[1] / "bench" / "mc_seeds.json"


def _within(estimate, target, sigmas=3.0):
    return abs(estimate.mean - target) <= sigmas * estimate.std_error


class TestMcConfig:
    @pytest.mark.parametrize("field, value", [
        ("samples", 10.5), ("samples", True), ("samples", 0),
        ("samples", "10"), ("seed", 1.5), ("seed", -1), ("seed", False),
        ("seed", np.float64(3.0)), ("max_rounds", 0), ("max_rounds", 2.0),
        ("max_rounds", None)])
    def test_rejects_unusable_values(self, field, value):
        kwargs = {"samples": 10, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            McConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"samples": 1, "seed": 0, "max_rounds": 1},
        {"samples": np.int64(10), "seed": np.uint32(7)},
        {"samples": 10, "max_rounds": 10 ** 19}])
    def test_accepts_integers(self, kwargs):
        cfg = McConfig(**kwargs)
        # every racer heralds at once, within any max_rounds
        assert mc_expected_max_rounds(2, 1.0, cfg).mean == 1.0


class TestExpectedMaxRounds:
    def test_deterministic_success(self):
        est = mc_expected_max_rounds(5, 1.0, McConfig(samples=10_000, seed=1))
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_single_link_geometric_mean(self):
        est = mc_expected_max_rounds(1, 0.5, McConfig(samples=200_000, seed=2))
        assert est.std_error > 0
        assert _within(est, 2.0)

    def test_two_links_closed_form(self):
        est = mc_expected_max_rounds(2, 0.5, McConfig(samples=200_000, seed=3))
        assert _within(est, 8.0 / 3.0)

    def test_matches_series_at_small_probability(self):
        est = mc_expected_max_rounds(9, 0.05, McConfig(samples=150_000, seed=4))
        assert _within(est, expected_max_rounds(9, 0.05))

    def test_fixed_seed_reproducible(self):
        cfg = McConfig(samples=50_000, seed=99)
        a = mc_expected_max_rounds(3, 0.3, cfg)
        b = mc_expected_max_rounds(3, 0.3, cfg)
        assert a == b

    def test_round_cap_flags_samples(self):
        with pytest.raises(SimulationBudgetError):
            mc_expected_max_rounds(1, 0.5, McConfig(samples=10_000, seed=5,
                                                    max_rounds=1))

    def test_rejects_bad_probability(self):
        for p_g in (0.0, True, np.True_):
            with pytest.raises(ValueError, match=r"p_g must lie in \(0, 1\]"):
                mc_expected_max_rounds(2, p_g, McConfig(samples=10))

    @pytest.mark.parametrize("n_links", [0, 2.5, math.nan, True])
    def test_rejects_non_integer_link_count(self, n_links):
        with pytest.raises(ValueError, match="n_links"):
            mc_expected_max_rounds(n_links, 0.5, McConfig(samples=10))

    def test_subnormal_probability_saturates_without_warning(self):
        # every round count saturates at INT64_MAX, past any max_rounds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationBudgetError):
                mc_expected_max_rounds(1, 5e-324, McConfig(samples=1000))

    def test_huge_round_counts_do_not_wrap(self):
        # 1000 round counts near 1e18 sum past INT64_MAX
        est = mc_expected_max_rounds(
            1, 1e-18, McConfig(samples=1000, seed=1, max_rounds=10 ** 19))
        assert _within(est, 1e18)


class TestChainTime:
    def setup_method(self):
        self.bundle = default_bundle()
        self.space = ModeSpace.default()

    def test_blind_trivial_chain(self):
        lossless = PhysicalConstants(alpha=1e-15)
        from muxrepeater.params import PlatformParams
        ideal = PlatformParams(name="ideal", modes=1, chi=0.9999999,
                               eta_r=1.0, eta_x=1.0, eta_s=1.0, eta_m=1.0,
                               decoherence="exponential", tau_ms=1e12)
        result = mc_chain_time("ahierarchical", ideal, 2, 100.0, lossless,
                               self.space, McConfig(samples=5_000, seed=10))
        assert result.t_tot_us.mean == pytest.approx(100.0 / lossless.c,
                                                     rel=1e-3)

    def test_blind_anchor_matches_analytic(self):
        wv = self.bundle.platform("WV-MUX-QM")
        plan = chain_time("ahierarchical", wv, 5, 550.0,
                          self.bundle.constants, self.space)
        result = mc_chain_time("ahierarchical", wv, 5, 550.0,
                               self.bundle.constants, self.space,
                               McConfig(samples=20_000, seed=11))
        assert _within(result.t_tot_us, plan.t_tot_us)
        assert result.mean_ef.mean == plan.mean_ef
        assert result.mean_ef.std_error == 0.0
        assert result.plan == plan

    def test_held_matches_analytic(self):
        wv = self.bundle.platform("WV-MUX-QM")
        friendly = dataclasses.replace(wv, name="friendly")
        plan = chain_time("semihierarchical", friendly, 3, 220.0,
                          self.bundle.constants, self.space)
        result = mc_chain_time("semihierarchical", friendly, 3, 220.0,
                               self.bundle.constants, self.space,
                               McConfig(samples=30_000, seed=12))
        assert _within(result.t_tot_us, plan.t_tot_us)
        assert result.plan == plan

    def test_held_first_try_ef_matches_analytic(self):
        # quasi-deterministic heralding pins the storage to (L + L0)/c
        wv = self.bundle.platform("WV-MUX-QM")
        plan = chain_time("semihierarchical", wv, 3, 200.0,
                          self.bundle.constants, self.space)
        result = mc_chain_time("semihierarchical", wv, 3, 200.0,
                               self.bundle.constants, self.space,
                               McConfig(samples=5_000, seed=13))
        assert result.mean_ef.mean == pytest.approx(plan.mean_ef, rel=1e-6)

    def test_held_slow_heralding_lowers_ef_below_first_try(self):
        # when links often wait, realized storage exceeds the first-try
        # assumption and the delivered content drops below the analytic value
        temporal = self.bundle.platform("Temporal")
        slow = dataclasses.replace(temporal, name="slow", tau_ms=50.0)
        plan = chain_time("semihierarchical", slow, 3, 60.0,
                          self.bundle.constants, self.space)
        result = mc_chain_time("semihierarchical", slow, 3, 60.0,
                               self.bundle.constants, self.space,
                               McConfig(samples=20_000, seed=14))
        assert result.mean_ef.std_error > 0
        assert result.mean_ef.mean < plan.mean_ef

    def test_fixed_seed_reproducible(self):
        wv = self.bundle.platform("WV-MUX-QM")
        # held: q = 1.9e-4 gives 792-trial chunks, so 10,000 trials span 13
        cfg = McConfig(samples=10_000, seed=15)
        for architecture in ("ahierarchical", "semihierarchical"):
            a = mc_chain_time(architecture, wv, 5, 550.0,
                              self.bundle.constants, self.space, cfg)
            b = mc_chain_time(architecture, wv, 5, 550.0,
                              self.bundle.constants, self.space, cfg)
            assert a == b

    @pytest.mark.parametrize("count", ["links", "nodes"])
    def test_held_waiting_count_matches_analytic(self, count):
        # p_g = 0.59: the slowest of 3 or 4 racers often needs several
        # rounds, and the two counts' T_tot differ by about 7 sigma
        temporal = self.bundle.platform("Temporal")
        plan = chain_time("semihierarchical", temporal, 4, 150.0,
                          self.bundle.constants, self.space,
                          waiting_count=count)
        assert plan.p_g < 0.6
        result = mc_chain_time("semihierarchical", temporal, 4, 150.0,
                               self.bundle.constants, self.space,
                               McConfig(samples=20_000, seed=17),
                               waiting_count=count)
        assert _within(result.t_tot_us, plan.t_tot_us)

    def test_unknown_waiting_count_rejected(self):
        wv = self.bundle.platform("WV-MUX-QM")
        with pytest.raises(ValueError, match="waiting_count"):
            mc_chain_time("semihierarchical", wv, 5, 550.0,
                          self.bundle.constants, self.space,
                          McConfig(samples=10), waiting_count="link")

    def test_unknown_architecture_rejected(self):
        wv = self.bundle.platform("WV-MUX-QM")
        with pytest.raises(ValueError, match="architecture must be one of"):
            mc_chain_time("blind", wv, 5, 550.0, self.bundle.constants,
                          self.space, McConfig(samples=10))

    @pytest.mark.parametrize("arch", ["ahierarchical", "semihierarchical"])
    @pytest.mark.parametrize("n_nodes, l_km", [
        (5, np.array([100.0, 900.0])), (np.array([5, 6]), 100.0)],
        ids=["distance-array", "node-array"])
    def test_rejects_grids(self, arch, n_nodes, l_km):
        wv = self.bundle.platform("WV-MUX-QM")
        with pytest.raises(ValueError, match="use sweep for a grid"):
            mc_chain_time(arch, wv, n_nodes, l_km, self.bundle.constants,
                          self.space, McConfig(samples=10))

    def test_numpy_scalars_match_python_scalars(self):
        wv, cfg = self.bundle.platform("WV-MUX-QM"), McConfig(samples=1000)
        args = (self.bundle.constants, self.space, cfg)
        assert mc_chain_time("semihierarchical", wv, np.int64(5),
                             np.float64(550.0), *args) == \
            mc_chain_time("semihierarchical", wv, 5, 550.0, *args)

    @pytest.mark.parametrize("arch", ["ahierarchical", "semihierarchical"])
    def test_rejects_non_integer_node_count(self, arch):
        wv = self.bundle.platform("WV-MUX-QM")
        with pytest.raises(ValueError, match="node counts must be integers"):
            mc_chain_time(arch, wv, 5.0, 550.0, self.bundle.constants,
                          self.space, McConfig(samples=10))

    def test_vetted_bench_seeds_pass_held_check(self):
        # the benchmark's held-chain check at its mc_check point and seeds
        vetted = json.loads(MC_SEEDS.read_text())
        bundle = load_config(None)
        space = ModeSpace.from_params(bundle.mode_space, bundle.constants)
        wv = bundle.platform("WV-MUX-QM")
        plan = chain_time("semihierarchical", wv, 5, 550.0, bundle.constants,
                          space, bundle.noise)
        failed = []
        for base in vetted["seeds"]:
            cfg = McConfig(samples=vetted["held_samples"], seed=base + 2000)
            result = mc_chain_time("semihierarchical", wv, 5, 550.0,
                                   bundle.constants, space, cfg, bundle.noise)
            if not _within(result.t_tot_us, plan.t_tot_us):
                failed.append(base)
        assert failed == []

    @pytest.mark.parametrize("arch", ["ahierarchical", "semihierarchical"])
    @pytest.mark.parametrize("name, n_nodes, l_km, cfg, message", [
        # p_g = 2e-323: T_tot = inf in the record, for either architecture
        ("Lattice-SM", 2, 16_000.0, McConfig(samples=100, seed=16),
         "^the chain never delivers: T_tot = inf$"),
        # p_g = 0: the link never heralds
        ("Lattice-SM", 2, 40_000.0, McConfig(samples=100, seed=16),
         "^the chain never delivers: T_tot = inf$"),
        ("WV-MUX-QM", 5, 550.0, McConfig(samples=10, max_rounds=1),
         "^expected rounds per sample exceed max_rounds$")])
    def test_budget_checks_read_the_record(self, arch, name, n_nodes, l_km,
                                             cfg, message):
        platform = self.bundle.platform(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationBudgetError, match=message):
                mc_chain_time(arch, platform, n_nodes, l_km,
                              self.bundle.constants, self.space, cfg)

    def test_underflowed_chain_rejected(self):
        lattice = self.bundle.platform("Lattice-SM")
        with pytest.raises(SimulationBudgetError):
            mc_chain_time("ahierarchical", lattice, 2, 16_000.0,
                          self.bundle.constants, self.space,
                          McConfig(samples=100, seed=16))


class TestDrawStream:
    """Estimates equal a direct draw from ``default_rng(seed)``.

    70,000 samples span two trial chunks, so these also pin that chunking
    leaves the draw stream unchanged.
    """

    @pytest.mark.parametrize("m, p, seed", [
        (1, 0.5, 21), (3, 0.3, 22), (9, 0.05, 23), (49, 0.9, 24)])
    def test_slowest_link_matches_direct_draw(self, m, p, seed):
        est = mc_expected_max_rounds(m, p, McConfig(samples=70_000, seed=seed))
        direct = np.random.default_rng(seed).geometric(p, size=(70_000, m))
        assert est.mean == direct.max(axis=1).mean()

    def test_blind_chain_matches_direct_draw(self):
        bundle = default_bundle()
        wv = bundle.platform("WV-MUX-QM")
        space = ModeSpace.default()
        plan = chain_time("ahierarchical", wv, 5, 550.0, bundle.constants,
                          space)
        result = mc_chain_time("ahierarchical", wv, 5, 550.0,
                               bundle.constants, space,
                               McConfig(samples=70_000, seed=25))
        direct = np.random.default_rng(25).geometric(plan.p_success,
                                                     size=70_000)
        assert result.t_tot_us.mean == plan.t_rep_us * direct.mean()


class TestGeometricRowMax:
    """Row maxima equal numpy's own geometric draw, element for element.

    This pins the coupling to numpy's geometric algorithm: the raw variate
    of each branch, its transform, the int64 saturation and the p = 1/3
    branch point, which the three probabilities around 1/3 bracket by ulps.
    """

    @pytest.mark.parametrize("m", [1, 2, 49])
    @pytest.mark.parametrize("p", [
        5e-324, 1e-300, 1e-12, 1e-3, 0.05, np.nextafter(1 / 3, 0), 1 / 3,
        np.nextafter(1 / 3, 1), 0.5, 0.9, np.nextafter(1, 0), 1.0])
    def test_equals_numpy_geometric_max(self, p, m):
        seed = 41 + m
        direct_rng = np.random.default_rng(seed)
        direct = direct_rng.geometric(p, size=(2000, m)).max(axis=1)
        rng = np.random.default_rng(seed)
        maxima = _geometric_row_max(rng, float(p), (2000, m))
        assert maxima.dtype == direct.dtype
        assert np.array_equal(maxima, direct)
        assert rng.random() == direct_rng.random()


class TestGeometricSearchSums:
    """The accumulated sums equal numpy's search loop, replayed in Python.

    numpy's loop runs ``prod *= q; sum += prod`` until the sum reaches the
    uniform; the replay stops where the sum reaches 1 or stops changing.
    Past that point the accumulated sums must repeat the replay's last sum
    or be >= 1, so that ``searchsorted`` returns the k numpy returns.
    """

    @given(st.floats(1 / 3, 1.0))
    @example(1 / 3)
    @example(math.nextafter(1 / 3, 1.0))
    @example(1.0)
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_loop(self, p):
        q = 1.0 - p
        total = prod = p
        loop = [total]
        while total < 1.0:
            prod *= q
            if total + prod == total:
                break
            total += prod
            loop.append(total)
        sums = _geometric_search_sums(p)
        assert sums[:len(loop)].tolist() == loop
        later = sums[len(loop):]
        assert np.all((later == loop[-1]) | (later >= 1.0))


class TestTrialChunks:
    """Slowest-racer estimates equal those of one (samples, m) draw.

    The samples span three full trial chunks and a ragged fourth, on both
    sides of p = 1/3 and of the switch from column-wise maxima to
    max(axis=1).  The sums of integer round counts are exact, so the
    chunking must not change a bit.
    """

    @pytest.mark.parametrize("m", [1, 12, 13, _COLUMN_MAX_UP_TO,
                                   _COLUMN_MAX_UP_TO + 1])
    @pytest.mark.parametrize("p", [0.05, 0.5])
    def test_chunks_equal_one_draw(self, p, m):
        samples = 3 * min(_TRIAL_CHUNK, _DRAW_BLOCK // m) + 7
        seed = 51 + m
        est = mc_expected_max_rounds(m, p, McConfig(samples=samples,
                                                    seed=seed))
        direct = np.random.default_rng(seed).geometric(
            p, size=(samples, m)).max(axis=1).astype(float)
        assert est == _estimate(float(direct.sum()),
                                float((direct * direct).sum()), samples)


class TestFlaggedSamples:
    """Each sampler fails when over 0.1 % of samples pass max_rounds.

    max_rounds is about twice the expected rounds per sample, so the check
    before any draw passes and the shared trial loop flags the samples.
    """

    MESSAGE = (r"^\d+ of 2000 samples exceeded max_rounds while simulating "
               r"{}; raise max_rounds or rethink the parameters$")

    def test_slowest_link(self):
        cfg = McConfig(samples=2000, seed=61, max_rounds=4)
        with pytest.raises(SimulationBudgetError, match=self.MESSAGE.format(
                "slowest-link waiting rounds")):
            mc_expected_max_rounds(1, 0.5, cfg)

    @pytest.mark.parametrize("arch, what", [
        ("ahierarchical", "blind-protocol rounds"),
        ("semihierarchical", "held-protocol rounds")])
    def test_chain(self, arch, what):
        bundle = default_bundle()
        temporal = bundle.platform("Temporal")
        space = ModeSpace.default()
        plan = chain_time(arch, temporal, 3, 60.0, bundle.constants, space)
        blind = arch == "ahierarchical"
        factor = 1.0 if blind else expected_max_rounds(2, plan.p_g)
        cfg = McConfig(samples=2000, seed=62,
                       max_rounds=math.ceil(2 * factor / plan.p_success))
        with pytest.raises(SimulationBudgetError,
                           match=self.MESSAGE.format(what)):
            mc_chain_time(arch, temporal, 3, 60.0, bundle.constants, space,
                          cfg)


class TestSlowPassDraw:
    """Earlier passes drawn as slow-pass counts plus inverse-CDF maxima.

    Trial i has i % 5 earlier passes; its drawn round total must match the
    sum of raw per-racer maxima over the same passes in distribution: in the
    mean over all trials, and by a two-sample Kolmogorov-Smirnov bound
    (size about 1e-3) within each pass count.
    """

    @pytest.mark.parametrize("p, m, seed", [
        (0.05, 9, 31), (0.5, 3, 32), (1e-3, 2, 33), (0.9, 20, 34),
        (1e-3, 200, 35)])
    def test_matches_raw_maxima(self, p, m, seed):
        n = 4000
        passes = np.arange(n) % 5
        drawn = _earlier_pass_rounds(np.random.default_rng(seed), passes, p, m)
        assert drawn.dtype == np.int64
        assert np.all(drawn >= passes)
        maxima = np.random.default_rng(seed + 100).geometric(
            p, size=(passes.sum(), m)).max(axis=1)
        raw = np.bincount(np.repeat(np.arange(n), passes), weights=maxima,
                          minlength=n)
        diff = drawn - raw
        assert abs(diff.mean()) <= 3.0 * diff.std(ddof=1) / math.sqrt(n)
        for k in range(1, 5):
            x, y = drawn[passes == k], raw[passes == k]
            grid = np.union1d(x, y)
            gap = np.abs(np.searchsorted(np.sort(x), grid, side="right")
                         - np.searchsorted(np.sort(y), grid, side="right"))
            assert gap.max() / x.size <= 1.95 * math.sqrt(2.0 / x.size)

    def test_all_first_probability_underflow(self):
        # p**m underflows to 0: every earlier pass is slow
        assert 1e-3 ** 200 == 0.0
        drawn = _earlier_pass_rounds(np.random.default_rng(36),
                                     np.full(1000, 3), 1e-3, 200)
        assert np.all(drawn >= 3 * 2)

    def test_certain_heralding_draws_nothing(self):
        rng = np.random.default_rng(37)
        state = rng.bit_generator.state
        passes = np.arange(100) % 5
        drawn = _earlier_pass_rounds(rng, passes, 1.0, 4)
        assert np.array_equal(drawn, passes)
        assert rng.bit_generator.state == state
