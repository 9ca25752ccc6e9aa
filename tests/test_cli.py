import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from muxrepeater.chain import expected_max_rounds
from muxrepeater.cli import run
from muxrepeater.serialize import csv_text, format_csv_value, json_text


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
        text = json_text({"x": 0.1, "bad": float("inf"), "n": 3})
        data = json.loads(text)
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
        assert run(["pg-curve", "--grid", "100:10:5"]) == 2
        capsys.readouterr()

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

    def test_removed_chi_eff_policy_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"noise": {"chi_eff_policy": "frozen_t0"}}))
        assert run(["presets", "--config", str(cfg)]) == 3
        assert "chi_eff_policy" in capsys.readouterr().err

    def test_unknown_platform_exits_3(self, capsys):
        assert run(["optimize", "--platform", "nonesuch",
                    "--grid", "100:200:2"]) == 3
        assert "nonesuch" in capsys.readouterr().err

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

    def test_config_roundtrip_same_output(self, tmp_path, capsys):
        # an explicit config equal to the defaults produces identical bytes
        from muxrepeater.params import default_bundle, dump_config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dump_config(default_bundle())))
        assert run(["pg-curve", "--grid", "10:100:5"]) == 0
        default_out = capsys.readouterr().out
        assert run(["pg-curve", "--grid", "10:100:5", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == default_out


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["muxrepeater", "muxrepeater.cli"])
    def test_python_dash_m_runs_presets(self, module):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", module, "presets"],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("name,M,chi,")
        assert "WV-MUX-QM" in proc.stdout
