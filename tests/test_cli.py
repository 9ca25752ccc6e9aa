import argparse
import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from muxrepeater import montecarlo
from muxrepeater.chain import expected_max_rounds, mean_entanglement, spdc_time
from muxrepeater.cli import _usable_cpus, _z_score, build_parser, run
from muxrepeater.modes import ModeSpace
from muxrepeater.params import (PhysicalConstants, SpdcParams, dump_config,
                                load_config)
from muxrepeater.serialize import csv_text, format_csv_value, json_text
from muxrepeater.werner import ef_of_mode, entanglement_of_formation


class TestSerialize:
    def test_float_precision(self):
        assert format_csv_value(0.1) == "1.00000000000000e-01"
        assert format_csv_value(float("inf")) == "inf"
        assert format_csv_value(float("nan")) == "nan"
        assert format_csv_value(None) == ""
        assert format_csv_value(42) == "42"
        assert format_csv_value(True) == "true"

    def test_csv_quoting(self):
        text = csv_text(("a", "b"), [("x,y", 1)])
        assert text == 'a,b\n"x,y",1\n'

    def test_json_floats_full_precision(self):
        text = json_text(("x", "bad", "n"), [(0.1, float("inf"), 3)])
        [data] = json.loads(text)
        assert data["x"] == 0.1
        assert data["bad"] is None
        assert data["n"] == 3
        assert "1.0000000000000001e-01" in text


class TestCommands:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_2(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_bad_grid_exits_2(self, capsys):
        for argv in (["pg-curve", "--grid", "100:10:5"],
                     ["rate-curve", "--grid", "0:1000:3"],
                     ["optimize", "--grid", "0:500:2"],
                     ["rate-curve", "--grid", "100:inf:3"],
                     ["pg-curve", "--grid=-10:10:3"],
                     ["ef-curve", "--grid=-10:10:3"],
                     ["spdc", "--grid=-5:10:3"],
                     ["pg-curve", "--grid", "10:250"],
                     ["pg-curve", "--grid", "10:250:5:log:x"],
                     ["pg-curve", "--grid", "10:x:5"],
                     ["pg-curve", "--grid", "10:250:5.5"],
                     ["pg-curve", "--grid", "10:250:5:cubic"],
                     ["pg-curve", "--grid", "10:250:1"],
                     ["pg-curve", "--grid", "0:250:5:log"]):
            assert run(argv) == 2, argv
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["mc-validate", "--samples", "10", "--chain-samples", "0",
         "--seed", "-5"],
        ["ef-curve", "--chi", "2"],
        ["ef-curve", "--chi", "1"],
        ["ef-curve", "--modes", "inf"],
        ["ef-curve", "--modes", "10,-1"],
        ["limits", "--k-ref", "inf"],
        ["limits", "--n-nodes", "1"],
        ["limits", "--n-nodes", "two"],
        ["limits", "--k-ref", "x"],
        ["ef-curve", "--modes", ","],
        ["pg-curve", "--platforms", ","],
        ["mc-validate", "--samples", "1"],
        ["mc-validate", "--samples", "1.5"],
        ["mc-validate", "--chain-samples", "1"],
        ["mc-validate", "--chain-samples", "-1"],
        ["rate-curve", "--n-max", "1"],
        ["optimize", "--n-max", "x"],
        ["ef-curve", "--chi", "0"],
        ["ef-curve", "--chi", "nan"],
        ["limits", "--k-ref", "0"],
        ["limits", "--k-ref", "-1"],
        ["ef-curve", "--modes", "0"],
        ["ef-curve", "--modes", "1e400"],
        ["rate-curve", "--archs", ","],
        ["limits", "--n-nodes", "0"],
        ["limits", "--n-nodes", "2.5"],
        ["mc-validate", "--seed", "1.5"],
        ["mc-validate", "--chain-samples", "x"]])
    def test_out_of_range_number_exits_2(self, argv, capsys):
        assert run(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, code", [
        (["limits", "--n-nodes", "Infinity"], 0),
        (["limits", "--n-nodes", "2"], 0),
        (["ef-curve", "--chi", "0.999", "--grid", "0:1:2"], 0),
        (["rate-curve", "--n-max", "2", "--grid", "100:200:2"], 0),
        (["limits", "--k-ref", "1e-300"], 0),
        (["ef-curve", "--modes", "1e300", "--grid", "0:1:2"], 0),
        # two samples pass the parser; the z-score check then fails
        (["mc-validate", "--samples", "2", "--chain-samples", "0",
          "--seed", "0"], 4)])
    def test_edge_of_range_number_is_accepted(self, argv, code, capsys):
        assert run(argv) == code
        capsys.readouterr()

    def test_documented_inputs_are_accepted(self, capsys):
        assert run(["pg-curve", "--grid", "10:250:5:log",
                    "--platforms", "Temporal"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["L0_km"] for row in rows] == [
            format_csv_value(x) for x in np.geomspace(10.0, 250.0, 5).tolist()]
        assert run(["limits"]) == 0
        finite = capsys.readouterr().out
        assert run(["limits", "--n-nodes", "inf"]) == 0
        assert capsys.readouterr().out == finite
        assert run(["ef-curve", "--chi", "0.2"]) == 0
        assert capsys.readouterr().err == ""

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert run(["presets", "--output", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")
        assert not path.exists()

    def test_bad_architecture_exits_2(self, capsys):
        assert run(["rate-curve", "--archs", "hierarchical",
                    "--grid", "100:200:2"]) == 2
        capsys.readouterr()

    def test_config_error_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"platforms": [
            {"name": "x", "M": 5, "chi": 1.5, "eta_r": 0.7,
             "decoherence": "exponential", "tau_ms": 1.0}]}))
        assert run(["presets", "--config", str(cfg)]) == 3
        assert "chi" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv", [
        ('{"mode_space": {"K_max": Infinity}}',
         ["rate-curve", "--platforms", "WV-MUX-QM", "--grid", "100:200:2"]),
        ('{"constants": {"alpha": Infinity}}', ["spdc", "--grid", "0:10:2"]),
        ('{"spdc": {"f_rep": Infinity}}', ["spdc"])])
    def test_non_finite_config_exits_3(self, tmp_path, capsys, text, argv):
        cfg = tmp_path / "inf.json"
        cfg.write_text(text)
        assert run(argv + ["--config", str(cfg)]) == 3
        assert "expected a finite number, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["rate-curve", "--platforms", "WV-MUX-QM", "--grid", "100:200:2"],
        ["ef-curve", "--grid", "10:20:2"]])
    def test_k_max_with_overflowing_square_exits_3(self, tmp_path, capsys,
                                                    argv):
        cfg = tmp_path / "band.json"
        cfg.write_text('{"mode_space": {"K_max": 1e200}}')
        assert run(argv + ["--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: K_max: ")

    # a band measure K_max**2 - K_min**2 below the smallest normal float
    # gave a nan average (first band) or one 4e-4 off at t = 0 (second)
    @pytest.mark.parametrize("k_min, k_max, argv", [
        (1e-300, 1e-299, ["rate-curve", "--grid", "10:100:2",
                          "--platforms", "WV-MUX-QM", "--no-spdc"]),
        (1e-170, 1e-160, ["ef-curve", "--grid", "0:100:2", "--modes", "1e-165"])])
    def test_subnormal_band_measure_exits_3(self, tmp_path, capsys, k_min,
                                            k_max, argv):
        cfg = tmp_path / "band.json"
        cfg.write_text(json.dumps({"mode_space": {"K_min": k_min, "K_max": k_max}}))
        assert run(argv + ["--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: K_max: ") and err.count("\n") == 1

    def test_normal_band_measure_keeps_the_average(self, tmp_path, capsys):
        # K_max**2 = 4e-308 is just above the smallest normal float; at
        # t = 0 every mode holds the same ebit, and so does the average, to
        # the rounding the default band's quadrature shows too
        cfg = tmp_path / "band.json"
        cfg.write_text('{"mode_space": {"K_min": 1e-156, "K_max": 2e-154}}')
        assert run(["ef-curve", "--grid", "0:100:2", "--modes", "1e-155",
                    "--format", "json", "--config", str(cfg)]) == 0
        mode, average = json.loads(capsys.readouterr().out)[:2]
        assert average["series"] == "average"
        assert average["E_F"] == pytest.approx(mode["E_F"], rel=1e-15)

    @pytest.mark.parametrize("text, argv, prefix", [
        ('{"spdc": {"f_rep": 1%s}}' % ("0" * 400), ["spdc"], "f_rep"),
        ('{"mode_space": {"K_max": 1%s}}' % ("0" * 400),
         ["ef-curve", "--grid", "10:20:2"], "K_max"),
        ('{"platforms": [{"name": "X", "M": 1%s, "chi": 0.1, "eta_r": 0.5, '
         '"tau_ms": 1.0, "multiplexed": true}]}' % ("0" * 200),
         ["pg-curve", "--platforms", "X"], "M"),
        ('{"spdc": {"f_rep": 1%s}}' % ("0" * 4999), ["spdc"], "config"),
        # k_B*T = inf gives gamma = 0, k_B*T = 0 divides by 0, and a heavy
        # atom at a subnormal k_B*T gives gamma = inf
        ('{"constants": {"boltzmann": 1e308}, '
         '"mode_space": {"temperature": 1e308}}', ["presets"], "temperature"),
        ('{"constants": {"boltzmann": 1e-300}, '
         '"mode_space": {"temperature": 1e-300}}', ["presets"], "temperature"),
        ('{"constants": {"boltzmann": 1e308}, "mode_space": '
         '{"temperature": 1e308, "gamma_policy": "exact"}}',
         ["rate-curve", "--grid", "100:200:2"], "temperature"),
        ('{"constants": {"atomic_mass_rb87": 1e300, "boltzmann": 1e-300}, '
         '"mode_space": {"temperature": 1e-10}}', ["ef-curve"],
         "temperature")],
        ids=["f_rep-int-literal", "K_max-int-literal", "multiplexed-M",
             "int-past-digit-limit", "kT-overflow", "kT-underflow",
             "kT-overflow-exact-gamma", "gamma-overflow"])
    def test_numbers_past_the_float_range_exit_3(self, tmp_path, capsys, text,
                                                 argv, prefix):
        cfg = tmp_path / "huge.json"
        cfg.write_text(text)
        assert run(argv + ["--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {prefix}: ")

    def test_mode_lifetime_underflow_exits_3(self, tmp_path, capsys):
        # gamma = 1e-18 us/mm: tau = gamma/K underflows to 0 at K = 1e308
        cfg = tmp_path / "hot.json"
        cfg.write_text('{"mode_space": {"temperature": 1e40}}')
        argv = ["ef-curve", "--grid", "0:10:2", "--config", str(cfg)]
        assert run(argv + ["--modes", "1e305"]) == 0
        capsys.readouterr()
        assert run(argv + ["--modes", "10,1e308"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: modes: ")
        assert err.count("\n") == 1

    def test_non_utf8_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "latin.json"
        cfg.write_bytes(b'{"spdc": {"chi": 0.1}}\xff')
        assert run(["spdc", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: config: cannot read {cfg}: ")

    @pytest.mark.parametrize("k_min", [None, 1e-320])
    @pytest.mark.parametrize("arch", ["ahierarchical", "semihierarchical"])
    def test_overflowing_clock_period_gives_zero_rate(self, tmp_path, capsys,
                                                      arch, k_min):
        # L0/c overflows to T_r = inf at the far grid point: rate 0 by design.
        # K_min = 1e-320 adds a lifetime gamma/K = inf at that storage time
        argv = ["optimize", "--grid", "100:1e308:2", "--arch", arch]
        if k_min is not None:
            cfg = tmp_path / "band.json"
            cfg.write_text(json.dumps({"mode_space": {"K_min": k_min}}))
            argv += ["--config", str(cfg)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        near, far = csv.DictReader(io.StringIO(out))
        assert float(near["R_ebit_per_s"]) > 0.0
        assert float(far["L_km"]) == 1e308
        assert float(far["R_ebit_per_s"]) == 0.0
        assert math.isinf(float(far["T_per_ebit_s"]))

    def test_zero_ebit_rows_have_zero_rate(self, tmp_path, capsys):
        # B = 1 leaves no ebit, and at L = 1e-320 km T_tot_s underflows to 0
        cfg = tmp_path / "closed.json"
        cfg.write_text('{"noise": {"B": 1.0}}')
        assert run(["rate-curve", "--config", str(cfg), "--grid",
                    "1e-320:2:3", "--n-max", "3", "--platforms", "WV-MUX-QM",
                    "--no-spdc"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 6
        assert float(rows[0]["T_tot_s"]) == 0.0
        for row in rows:
            assert float(row["mean_EF"]) == 0.0
            assert float(row["R_ebit_per_s"]) == 0.0
            assert float(row["Q_ebit_per_s_per_node"]) == 0.0
            assert math.isinf(float(row["T_per_ebit_s"]))

    def test_overflowing_storage_ratio_gives_zero_ebits(self, tmp_path,
                                                        capsys):
        # t/tau and its square overflow at c = 1e-300: V = 0 by design
        cfg = tmp_path / "slow.json"
        cfg.write_text('{"constants": {"c": 1e-300}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["ef-curve", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 400
        assert all(float(row["E_F"]) == 0.0 for row in rows)

    def test_removed_chi_eff_policy_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        for section, key, value in (("noise", "chi_eff_policy", "frozen_t0"),
                                    ("mode_space", "grid_points", 64)):
            cfg.write_text(json.dumps({section: {key: value}}))
            assert run(["presets", "--config", str(cfg)]) == 3
            assert key in capsys.readouterr().err

    def test_unknown_platform_exits_3(self, capsys):
        assert run(["optimize", "--platform", "nonesuch",
                    "--grid", "100:200:2"]) == 3
        assert "nonesuch" in capsys.readouterr().err

    def test_handler_key_error_propagates(self, monkeypatch):
        # only a config error is exit 3; a KeyError is a fault of the program
        def broken(args, bundle, space):
            raise KeyError("internal")

        monkeypatch.setattr("muxrepeater.cli._cmd_presets", broken)
        with pytest.raises(KeyError, match="internal"):
            run(["presets"])

    def test_non_object_section_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"noise": "B"}')
        assert run(["presets", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "error: noise: expected an object\n"

    def test_presets_json_matches_parameter_table(self, capsys):
        assert run(["presets", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        assert set(by_name) == {"WV-MUX-QM", "WV-parallel", "Temporal",
                                "Lattice-SM"}
        wv = by_name["WV-MUX-QM"]
        assert (wv["M"], wv["chi"], wv["eta_x"], wv["eta_r"], wv["eta_s"],
                wv["eta_m"]) == (5500, 0.05, 0.9, 0.7, 0.9, 0.2)
        assert wv["tau_ms"] is None
        assert by_name["Temporal"]["tau_ms"] == 1.0
        assert by_name["Lattice-SM"]["tau_ms"] == 220.0
        assert by_name["WV-parallel"]["eta_x"] == 1.0

    def test_pg_curve_shape_contract(self, capsys):
        assert run(["pg-curve", "--grid", "10:250:100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "L0_km,platform,p_g"
        assert len(lines) == 1 + 300

    def test_ef_curve_series(self, capsys):
        assert run(["ef-curve", "--grid", "10:100:4", "--modes", "10,1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "L0_km,t_us,series,E_F"
        assert len(lines) == 1 + 4 * 3
        assert any("average" in line for line in lines[1:])

    def test_limits_row_per_platform(self, capsys):
        assert run(["limits"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 4

    def test_spdc_rows(self, capsys):
        assert run(["spdc", "--grid", "100:500:5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "L_km,T_per_ebit_s"
        assert len(lines) == 1 + 5

    def test_optimize_emits_full_records(self, capsys):
        assert run(["optimize", "--grid", "200:400:2", "--n-max", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("platform,architecture,L_km,N,L0_km")
        assert len(lines) == 1 + 2

    def test_rate_curve_includes_baseline(self, capsys):
        assert run(["rate-curve", "--grid", "200:300:2", "--n-max", "10",
                    "--platforms", "WV-MUX-QM", "--archs", "ahierarchical"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2 + 2  # records plus SPDC rows
        assert sum(line.startswith("SPDC,direct") for line in lines) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", [None, {"visibility": 0.9}],
                             ids=["default", "visibility-0.9"])
    def test_spdc_matches_rate_curve_baseline(self, tmp_path, capsys, fmt,
                                              source):
        options = ["--grid", "50:1000:7", "--format", fmt]
        if source is not None:
            cfg = tmp_path / "spdc.json"
            cfg.write_text(json.dumps({"spdc": source}))
            options += ["--config", str(cfg)]

        def baseline(argv):
            assert run(argv + options) == 0
            out = capsys.readouterr().out
            if fmt == "json":
                # keep each number as printed
                rows = json.loads(out, parse_float=str, parse_constant=str)
            else:
                rows = list(csv.DictReader(io.StringIO(out)))
            return [(row["L_km"], row["T_per_ebit_s"]) for row in rows
                    if row.get("platform", "SPDC") == "SPDC"]

        direct = baseline(["spdc"])
        assert len(direct) == 7
        assert direct == baseline(["rate-curve", "--platforms", "WV-MUX-QM",
                                   "--archs", "ahierarchical", "--n-max", "4"])

    def test_mc_validate_small_budget(self, capsys):
        assert run(["mc-validate", "--samples", "20000",
                    "--chain-samples", "2000", "--seed", "11"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # 16 grid cells plus the end-to-end chain row
        assert len(lines) == 1 + 16 + 1
        assert all(line.endswith(",true") for line in lines[1:])

    def test_mc_validate_analytic_counts_nodes(self, capsys):
        # with one heralding process per node, N processes race
        assert run(["mc-validate", "--samples", "2000", "--chain-samples", "0",
                    "--waiting-count", "nodes", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 16
        for row in rows:
            assert row["analytic"] == expected_max_rounds(row["n_nodes"],
                                                          row["p_g"])
        by_cell = {(row["n_nodes"], row["p_g"]): row for row in rows}
        assert abs(by_cell[2, 0.1]["analytic"] - 280.0 / 19.0) < 1e-13

    @pytest.mark.parametrize("count", ["links", "nodes"])
    def test_mc_validate_cells_match_direct_draw(self, count, capsys):
        # cell i draws one raw geometric per racer from default_rng(42 + i)
        assert run(["mc-validate", "--samples", "70000", "--chain-samples", "0",
                    "--seed", "42", "--waiting-count", count,
                    "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 16
        for cell, row in enumerate(rows):
            assert row["check"] == "waiting_rounds"
            racers = row["n_nodes"] - 1 if count == "links" else row["n_nodes"]
            direct = np.random.default_rng(42 + cell).geometric(
                row["p_g"], size=(70_000, racers))
            assert row["mc_mean"] == direct.max(axis=1).mean(), row

    def test_z_score_at_zero_standard_error(self):
        exact = montecarlo.McEstimate(2.5, 0.0, 100)
        assert _z_score(2.5, exact) == 0.0
        assert _z_score(2.0, exact) == math.inf
        assert _z_score(2.0, montecarlo.McEstimate(2.5, 0.25, 100)) == 2.0

    @pytest.mark.parametrize("arch, extra", [
        ("ahierarchical", []),
        ("semihierarchical", ["--waiting-count", "nodes"])],
        ids=["blind", "held-nodes"])
    def test_optimize_is_rate_curve_of_one_platform(self, capsys, arch, extra):
        # the README's contract: the same bytes as rate-curve without SPDC
        extra = ["--grid", "100:1000:4"] + extra
        assert run(["optimize", "--arch", arch] + extra) == 0
        optimized = capsys.readouterr().out
        assert run(["rate-curve", "--platforms", "WV-MUX-QM", "--archs", arch,
                    "--no-spdc"] + extra) == 0
        assert capsys.readouterr().out == optimized

    def test_json_escapes_control_characters(self, tmp_path, capsys):
        name = "a\tb\u0001"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"platforms": [
            {"name": name, "M": 5, "chi": 0.05, "eta_r": 0.7,
             "decoherence": "exponential", "tau_ms": 1.0}]}))
        assert run(["presets", "--format", "json", "--config", str(cfg)]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["name"] == name

    def test_failing_check_exits_4_after_full_table(self, monkeypatch, capsys):
        monkeypatch.setattr("muxrepeater.cli._z_score", lambda *args: math.inf)
        assert run(["mc-validate", "--samples", "200",
                    "--chain-samples", "200"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 17
        assert all(line.endswith(",false") for line in lines[1:])

    @pytest.mark.parametrize("visibility", [0.9, 0.3])
    def test_spdc_rows_follow_source_visibility(self, tmp_path, capsys,
                                                visibility):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spdc": {"visibility": visibility}}))
        assert run(["rate-curve", "--grid", "100:200:2", "--n-max", "4",
                    "--platforms", "Temporal", "--archs", "ahierarchical",
                    "--config", str(cfg)]) == 0
        rows = [row for row in csv.DictReader(
            io.StringIO(capsys.readouterr().out)) if row["platform"] == "SPDC"]
        assert len(rows) == 2
        source, constants = SpdcParams(visibility=visibility), PhysicalConstants()
        ef = entanglement_of_formation(visibility)
        for row in rows:
            l_km = float(row["L_km"])
            per_pair = spdc_time(l_km, SpdcParams(), constants) * 1e-6
            per_ebit = spdc_time(l_km, source, constants) * 1e-6
            assert row["mean_EF"] == format_csv_value(ef)
            assert row["T_tot_s"] == format_csv_value(per_pair)
            assert row["T_per_ebit_s"] == format_csv_value(per_ebit)
            assert "nan" not in row.values()
            if visibility > 1 / 3:
                assert 0.78 < ef < 0.79
                assert row["R_ebit_per_s"] == format_csv_value(1.0 / per_ebit)
            else:
                assert ef == 0.0
                assert row["R_ebit_per_s"] == format_csv_value(0.0)
                assert row["T_per_ebit_s"] == "inf"

    def test_limits_use_effective_chi(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"B": 0.05}}))
        assert run(["limits", "--format", "json", "--config", str(cfg)]) == 0
        rows = {row["platform"]: row for row in json.loads(capsys.readouterr().out)}
        bundle = load_config(str(cfg))
        space = ModeSpace.from_params(bundle.mode_space, bundle.constants)
        wv = rows["WV-MUX-QM"]
        chi_eff = bundle.noise.effective_chi(bundle.platform("WV-MUX-QM"))
        assert wv["chi"] == chi_eff
        l0_max = wv["L0_max_ahier_km"]
        k_ref = wv["k_ref_inv_mm"]
        c = bundle.constants.c
        assert ef_of_mode(k_ref, 0.99 * l0_max / c, chi_eff, space) > 0.0
        assert ef_of_mode(k_ref, 1.01 * l0_max / c, chi_eff, space) == 0.0

    @pytest.mark.parametrize("name", ["WV-MUX-QM", "WV-parallel", "Temporal",
                                      "Lattice-SM"])
    def test_blind_limit_is_the_entanglement_edge(self, capsys, name):
        # gaussian decay ends at c*tau*sqrt(ln(1/chi)), exponential at
        # c*tau*ln(1/chi); the reference mode stands in for the WV average
        assert run(["limits", "--format", "json"]) == 0
        rows = {row["platform"]: row for row in json.loads(capsys.readouterr().out)}
        bundle = load_config(None)
        space = ModeSpace.from_params(bundle.mode_space, bundle.constants)
        platform = bundle.platform(name)
        row = rows[name]
        c = bundle.constants.c
        for scale, entangled in ((0.99, True), (1.01, False)):
            t_us = scale * row["L0_max_ahier_km"] / c
            if platform.tau_us is None:
                ef = ef_of_mode(row["k_ref_inv_mm"], t_us, row["chi"], space)
            else:
                ef = mean_entanglement(platform, space, t_us, bundle.noise)
            assert (ef > 0.0) == entangled, (scale, ef)

    def test_limits_vanish_when_noise_pushes_chi_past_one(self, tmp_path,
                                                         capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"B": 0.7}}))
        assert run(["limits", "--format", "json", "--config", str(cfg)]) == 0
        rows = {row["platform"]: row for row in json.loads(capsys.readouterr().out)}
        for name in ("WV-MUX-QM", "WV-parallel", "Temporal"):
            assert rows[name]["chi"] > 1.0
            assert rows[name]["L0_max_ahier_km"] == 0.0
            assert rows[name]["L_max_semihier_km"] == 0.0
        assert rows["Lattice-SM"]["L0_max_ahier_km"] > 0.0

    def test_limits_vanish_at_infinite_lifetime_when_chi_past_one(
            self, tmp_path, capsys):
        # K_ref = 1e-320 gives tau = inf, and inf * 0 would print nan
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"B": 1.0}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["limits", "--k-ref", "1e-320", "--config",
                        str(cfg)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4
        for row in rows:
            assert float(row["chi"]) > 1.0
            assert row["L0_max_ahier_km"] == format_csv_value(0.0)
            assert row["L_max_semihier_km"] == format_csv_value(0.0)

    def test_limits_node_count_past_int64_is_many_node_limit(self, capsys):
        assert run(["limits", "--n-nodes", "100000000000000000000"]) == 0
        huge = capsys.readouterr().out
        assert run(["limits"]) == 0
        assert huge == capsys.readouterr().out

    def test_mc_validate_chain_check_needs_wv_mux_qm(self, tmp_path, capsys):
        bundle = load_config(None)
        doc = dump_config(bundle)
        doc["platforms"] = [entry for entry in doc["platforms"]
                            if entry["name"] != "WV-MUX-QM"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["mc-validate", "--samples", "2000", "--config", str(cfg)]
        assert run(argv + ["--chain-samples", "100"]) == 3
        assert "unknown platform 'WV-MUX-QM'" in capsys.readouterr().err
        assert run(argv + ["--chain-samples", "0"]) == 0
        assert "chain_t_tot_us" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["presets"],
        ["pg-curve", "--grid", "10:100:3"],
        ["ef-curve", "--grid", "10:100:3", "--modes", "10,1000"],
        ["rate-curve", "--grid", "100:300:2", "--n-max", "20"],
        ["optimize", "--grid", "100:300:2", "--n-max", "20"],
        ["limits"],
        ["spdc", "--grid", "0:100:3"],
        ["mc-validate", "--samples", "20000", "--chain-samples", "2000",
         "--seed", "11"]])
    def test_json_table_matches_csv(self, argv, capsys):
        code = run(argv)
        csv_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert run(argv + ["--format", "json"]) == code
        json_rows = json.loads(capsys.readouterr().out)
        header, cells = csv_rows[0], csv_rows[1:]
        assert len(json_rows) == len(cells) > 0
        for json_row, csv_row in zip(json_rows, cells):
            assert list(json_row) == header
            for value, cell in zip(json_row.values(), csv_row):
                if value is None:
                    assert cell in ("", "inf", "-inf", "nan")
                else:
                    assert cell == format_csv_value(value)


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["optimize", "--grid", "200:600:3", "--n-max", "30"]
        assert run(argv + ["--output", str(out1)]) == 0
        assert run(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mc_fixed_seed_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["mc-validate", "--samples", "5000", "--chain-samples", "0",
                "--seed", "3"]
        assert run(argv + ["--output", str(out1)]) == 0
        assert run(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("argv", [["presets"],
                                      ["pg-curve", "--grid", "10:100:5"]],
                             ids=["presets", "pg-curve"])
    def test_config_roundtrip_same_output(self, tmp_path, capsys, argv):
        # an explicit config equal to the defaults produces identical bytes
        from muxrepeater.params import default_bundle, dump_config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dump_config(default_bundle())))
        assert run(argv) == 0
        default_out = capsys.readouterr().out
        assert run(argv + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == default_out


class TestMcValidatePool:
    """The waiting-round cells run on a thread pool, one per usable CPU."""

    ARGV = ["mc-validate", "--samples", "70000", "--chain-samples", "2000",
            "--seed", "5"]

    def test_thread_count_changes_no_byte(self, monkeypatch, capsys):
        before = threading.active_count()
        outputs = []
        for cpus in (1, 4):
            monkeypatch.setattr("muxrepeater.cli._usable_cpus", lambda: cpus)
            assert run(self.ARGV) == 0
            outputs.append(capsys.readouterr())
            assert threading.active_count() == before
        assert outputs[0] == outputs[1]
        assert outputs[0].out.count("\n") == 1 + 16 + 1

    @pytest.mark.parametrize("count, cpus", [(3, 3), (None, 1)])
    def test_usable_cpus_without_affinity(self, monkeypatch, count, cpus):
        # where the OS has no affinity call, every CPU counts, and at least 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _usable_cpus() == cpus

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (3, 3), (64, 16)])
    def test_workers_bounded_by_cells_and_cpus(self, monkeypatch, capsys,
                                               cpus, workers):
        import concurrent.futures
        seen = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr("muxrepeater.cli._usable_cpus", lambda: cpus)
        assert run(["mc-validate", "--samples", "100",
                    "--chain-samples", "0"]) == 0
        assert seen == [workers]

    def test_first_failing_cell_in_row_order_exits_4(self, monkeypatch,
                                                     capsys):
        real = montecarlo.mc_expected_max_rounds

        def failing(n_links, p_g, cfg):
            cell = cfg.seed - 42
            if cell == 5:
                time.sleep(0.05)   # a later failing cell finishes first
                raise montecarlo.SimulationBudgetError("cell 5 over budget")
            if cell == 9:
                raise montecarlo.SimulationBudgetError("cell 9 over budget")
            return real(n_links, p_g, cfg)

        monkeypatch.setattr(montecarlo, "mc_expected_max_rounds", failing)
        monkeypatch.setattr("muxrepeater.cli._usable_cpus", lambda: 4)
        before = threading.active_count()
        assert run(["mc-validate", "--samples", "200", "--seed", "42"]) == 4
        assert threading.active_count() == before
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cell 5 over budget\n"


class TestModuleEntryPoints:
    @staticmethod
    def python(*args):
        # a fresh interpreter that imports the package from this checkout
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))

    @pytest.mark.parametrize("module", ["muxrepeater", "muxrepeater.cli"])
    def test_python_dash_m_runs_presets(self, module):
        proc = self.python("-m", module, "presets")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("name,M,chi,")
        assert "WV-MUX-QM" in proc.stdout

    def test_params_imports_alone(self):
        # the package root re-exports nothing, so no other module loads
        proc = self.python("-c", "import sys, muxrepeater.params\n"
                           "print(sorted(m for m in sys.modules"
                           " if m.startswith('muxrepeater')))\n"
                           "print('numpy' in sys.modules,"
                           " sys.modules['muxrepeater'].__all__)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "['muxrepeater', 'muxrepeater.params']", "False []"]


class TestReadmeOptions:
    def test_table_rows_are_the_parser_options(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        body = readme.read_text(encoding="utf-8").split("### Options\n")[1]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in body.split("\n#")[0].splitlines()
                if line.startswith("| ") and "`--" in line]
        [commands] = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
        documented = sorted(
            (command.strip("` "), option.strip("` "))
            for names, options, *_ in rows
            for command in (commands if names == "all" else names.split(","))
            for option in options.split(","))
        declared = sorted(
            (command, option) for command, sub in commands.items()
            for action in sub._actions for option in action.option_strings
            if not isinstance(action, argparse._HelpAction))
        assert documented == declared


class TestPythonFloor:
    def test_sources_parse_at_the_declared_floor(self):
        # tomllib is 3.11+, so the floor is read with a regex
        root = Path(__file__).resolve().parents[1]
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        major, minor = map(int, re.search(
            r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject,
            re.MULTILINE).groups())
        files = sorted(path for folder in ("src", "tests", "tools")
                       for path in (root / folder).rglob("*.py"))
        assert len(files) > 15
        for path in files:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(major, minor))
