import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from muxrepeater.chain import expected_max_rounds
from muxrepeater.link import p_eng
from muxrepeater.modes import ModeSpace
from muxrepeater.montecarlo import McConfig, mc_expected_max_rounds
from muxrepeater.params import (
    _SECTIONS,
    ConfigError,
    ModeSpaceParams,
    NoiseParams,
    PhysicalConstants,
    PlatformParams,
    SpdcParams,
    _config_keys,
    builtin_platforms,
    default_bundle,
    dump_config,
    load_config,
    parse_config,
)
from muxrepeater.sweep import sweep

README = Path(__file__).resolve().parents[1] / "README.md"


class TestBuiltinPlatforms:
    def test_exactly_four_presets(self):
        names = [p.name for p in builtin_platforms()]
        assert names == ["WV-MUX-QM", "WV-parallel", "Temporal", "Lattice-SM"]

    def test_wv_mux_row(self):
        p = default_bundle().platform("WV-MUX-QM")
        assert p.modes == 5500
        assert p.chi == 0.05
        assert p.eta_x == 0.9
        assert p.eta_r == 0.7
        assert p.eta_s == 0.9
        assert p.eta_m == 0.2
        assert p.multiplexed
        assert p.decoherence == "gaussian"
        assert p.tau_ms is None
        assert p.enc_detection == "single_mode"
        assert p.enc_detector_efficiency == 0.9

    def test_wv_parallel_row(self):
        p = default_bundle().platform("WV-parallel")
        assert p.modes == 5500
        assert p.eta_x == 1.0
        assert not p.multiplexed
        assert p.enc_detection == "multimode"
        assert p.enc_detector_efficiency == 0.2
        assert p.tau_ms is None

    def test_temporal_row(self):
        p = default_bundle().platform("Temporal")
        assert p.modes == 50
        assert p.chi == 0.47
        assert p.tau_ms == 1.0
        assert p.eta_r == 0.71
        assert p.eta_m == 0.9
        assert p.decoherence == "exponential"
        assert p.enc_detector_efficiency == 0.9

    def test_lattice_row(self):
        p = default_bundle().platform("Lattice-SM")
        assert p.modes == 1
        assert p.chi == 0.05
        assert p.tau_ms == 220.0
        assert p.eta_r == 0.76
        assert p.decoherence == "exponential"

    def test_presets_satisfy_type_invariants(self):
        # construction re-runs validation; mode-dependent lifetimes only on
        # gaussian platforms
        for p in builtin_platforms():
            PlatformParams(**{f: getattr(p, f) for f in (
                "name", "modes", "chi", "eta_r", "eta_x", "eta_s", "eta_m",
                "multiplexed", "enc_detection", "decoherence", "tau_ms")})
            if p.tau_ms is None:
                assert p.decoherence == "gaussian"


class TestValidation:
    def test_constants_positive(self):
        with pytest.raises(ConfigError, match="alpha"):
            PhysicalConstants(alpha=-0.1)

    def test_signal_speed_bounded(self):
        with pytest.raises(ConfigError, match="c"):
            PhysicalConstants(c=0.31)

    def test_chi_range(self):
        with pytest.raises(ConfigError, match="chi"):
            PlatformParams(name="x", modes=10, chi=1.5, eta_r=0.7,
                           decoherence="exponential", tau_ms=1.0)

    def test_mode_dependent_needs_gaussian(self):
        with pytest.raises(ConfigError, match="tau_ms"):
            PlatformParams(name="x", modes=10, chi=0.1, eta_r=0.7,
                           decoherence="exponential", tau_ms=None)

    def test_mode_space_ordering(self):
        with pytest.raises(ConfigError, match="K_max"):
            ModeSpaceParams(k_min=100.0, k_max=10.0)

    def test_k_max_square_must_be_finite(self):
        # the band measure squares K_max in Python floats
        with pytest.raises(ConfigError, match="^K_max: "):
            ModeSpaceParams(k_max=1e200)
        with pytest.raises(ConfigError, match="^K_max: "):
            ModeSpaceParams(k_max=10 ** 200)
        assert ModeSpaceParams(k_max=1e154).k_max == 1e154

    def test_pairing_count_must_fit_a_float(self):
        # 10**155 squared passes the float range; 10**154 squared does not
        common = dict(name="x", chi=0.1, eta_r=0.5, tau_ms=1.0)
        PlatformParams(modes=10**154, multiplexed=True, **common)
        PlatformParams(modes=10**155, multiplexed=False, **common)
        for modes, multiplexed in ((10**155, True), (10**309, False)):
            with pytest.raises(ConfigError, match="^M: .*fits a float"):
                PlatformParams(modes=modes, multiplexed=multiplexed, **common)

    def test_pairings(self):
        common = dict(name="x", chi=0.1, eta_r=0.5, tau_ms=1.0)
        assert PlatformParams(modes=7, **common).pairings == 7
        assert PlatformParams(modes=7, multiplexed=True, **common).pairings == 49
        # M**2 in int64 would wrap past 2**63
        big = PlatformParams(modes=np.int64(4_000_000_000), multiplexed=True,
                             **common)
        assert big.pairings == 16 * 10**18
        assert type(big.modes) is int
        bundle = dataclasses.replace(default_bundle(), platforms=(big,))
        assert parse_config(json.loads(json.dumps(dump_config(bundle)))) == bundle

    def test_noise_nonnegative(self):
        with pytest.raises(ConfigError, match="B"):
            NoiseParams(B=-1e-3)

    def test_spdc_visibility(self):
        with pytest.raises(ConfigError, match="visibility"):
            SpdcParams(visibility=1.2)


def _sweep_n_max(n_max):
    bundle = default_bundle()
    space = ModeSpace.from_params(bundle.mode_space, bundle.constants)
    return sweep([550.0], [bundle.platform("WV-MUX-QM")], ["ahierarchical"],
                 bundle.constants, space, n_max=n_max)


# every entry point that takes a count: (call, least legal count, message)
COUNT_ENTRY_POINTS = {
    "PlatformParams-modes": (
        lambda n: PlatformParams(name="x", modes=n, chi=0.1, eta_r=0.5,
                                 tau_ms=1.0),
        1, "M: must be an integer >= 1"),
    "McConfig-samples": (lambda n: McConfig(samples=n), 1, None),
    "McConfig-seed": (lambda n: McConfig(samples=1, seed=n), 0, None),
    "McConfig-max_rounds": (lambda n: McConfig(samples=1, max_rounds=n), 1,
                            None),
    "sweep-n_max": (_sweep_n_max, 2, None),
    "expected_max_rounds-m": (lambda n: expected_max_rounds(n, 0.3), 1, None),
    "p_eng-pairings": (lambda n: p_eng(0.1, n), 1, None),
    "mc_expected_max_rounds-n_links": (
        lambda n: mc_expected_max_rounds(n, 0.5, McConfig(samples=10)), 1, None),
}


class TestCountRule:
    """One rule for counts: an integer of any kind but bool, at least k."""

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", ["True", "2.5", "nan", "least-1"])
    def test_rejects(self, entry, bad):
        call, least, message = COUNT_ENTRY_POINTS[entry]
        value = {"True": True, "2.5": 2.5, "nan": math.nan,
                 "least-1": least - 1}[bad]
        name = entry.split("-")[1]
        message = message or f"{name} must be an integer >= {least}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_accepts_numpy_integer(self, entry):
        call, least, _ = COUNT_ENTRY_POINTS[entry]
        call(np.int64(least))


class TestConfigIO:
    def test_missing_path_gives_defaults(self):
        assert load_config(None) == default_bundle()

    def test_empty_config_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        bundle = load_config(path)
        assert bundle == default_bundle()
        assert len(bundle.platforms) == 4

    def test_single_field_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"constants": {"alpha": 0.17}}))
        bundle = load_config(path)
        assert bundle.constants.alpha == 0.17
        assert bundle.constants.c == 0.2
        assert bundle.mode_space == ModeSpaceParams()

    def test_out_of_range_value_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"platforms": [
            {"name": "bad", "M": 10, "chi": 1.5, "eta_r": 0.7,
             "decoherence": "exponential", "tau_ms": 1.0}]}))
        with pytest.raises(ConfigError, match="chi"):
            load_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"constants": {"alpha": 0.2, "speed": 1}}))
        with pytest.raises(ConfigError, match="speed"):
            load_config(path)

    def test_platforms_replace_builtins(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"platforms": [
            {"name": "only", "M": 3, "chi": 0.1, "eta_r": 0.5,
             "decoherence": "exponential", "tau_ms": 2.0}]}))
        bundle = load_config(path)
        assert [p.name for p in bundle.platforms] == ["only"]

    def test_noninteger_mode_count_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"platforms": [
            {"name": "x", "M": 3.5, "chi": 0.1, "eta_r": 0.5,
             "decoherence": "exponential", "tau_ms": 2.0}]}))
        with pytest.raises(ConfigError, match="M"):
            load_config(path)

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("section, key", [
        ("constants", "alpha"), ("mode_space", "K_max"), ("noise", "B"),
        ("spdc", "f_rep"), ("platforms", "tau_ms")])
    def test_non_finite_number_names_key(self, tmp_path, section, key,
                                         literal):
        # json parses these literals although JSON itself has no such numbers
        entry = {key: "VALUE"}
        if section == "platforms":
            entry = [{"name": "x", "M": 3, "chi": 0.1, "eta_r": 0.5,
                      "decoherence": "exponential", key: "VALUE"}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: entry}).replace('"VALUE"', literal))
        with pytest.raises(ConfigError, match=f"^{key}: expected a finite number"):
            load_config(path)

    @pytest.mark.parametrize("section, field_name, value", [
        ("platforms", "modes", 0), ("mode_space", "k_min", -1.0),
        ("mode_space", "k_max", 5.0)])
    def test_range_error_names_renamed_key(self, section, field_name, value):
        key, = [k for k, f in _config_keys(_SECTIONS[section]).items()
                if f.name == field_name]
        assert key != field_name
        entry = {key: value}
        if section == "platforms":
            entry = [{"name": "x", "chi": 0.1, "eta_r": 0.5,
                      "decoherence": "exponential", "tau_ms": 2.0, **entry}]
        with pytest.raises(ConfigError) as info:
            parse_config({section: entry})
        assert str(info.value).startswith(f"{key}: ")

    @pytest.mark.parametrize("value", [5, "B", [1]])
    @pytest.mark.parametrize("section", ["constants", "mode_space", "noise",
                                         "spdc"])
    def test_non_object_section_rejected(self, section, value):
        with pytest.raises(ConfigError, match=f"^{section}: expected an object$"):
            parse_config({section: value})

    def test_round_trip_defaults(self):
        bundle = default_bundle()
        assert parse_config(dump_config(bundle)) == bundle

    def test_round_trip_through_file(self, tmp_path):
        bundle = parse_config({
            "constants": {"alpha": 0.17, "c": 0.21},
            "mode_space": {"K_max": 500.0},
            "noise": {"B": 1e-4},
            "spdc": {"chi": 0.02},
            "platforms": [
                {"name": "custom", "M": 7, "chi": 0.2, "eta_r": 0.6,
                 "eta_x": 0.8, "multiplexed": True,
                 "decoherence": "gaussian", "tau_ms": None}],
        })
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dump_config(bundle)))
        assert load_config(path) == bundle


class TestReadmeSchema:
    @staticmethod
    def readme_rows(section):
        # cells of each row of the table under "### `<section>`", key unquoted
        title = "platforms[]" if section == "platforms" else section
        body = README.read_text(encoding="utf-8").split(f"### `{title}`\n")[1]
        return [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
                for line in body.split("\n#")[0].splitlines()
                if line.startswith("| `")]

    @pytest.mark.parametrize("section", list(_SECTIONS))
    def test_keys_match_dataclass(self, section):
        keys = [row[0] for row in self.readme_rows(section)]
        assert keys == list(_config_keys(_SECTIONS[section]))

    @pytest.mark.parametrize("section", list(_SECTIONS))
    def test_required_rows_are_fields_without_default(self, section):
        keys = _config_keys(_SECTIONS[section])
        required = [row[0] for row in self.readme_rows(section)
                    if "required" in row]
        assert required == [key for key, f in keys.items()
                            if f.default is dataclasses.MISSING]
