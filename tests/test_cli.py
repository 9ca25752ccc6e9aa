import csv
import io
import json
import math
import os
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
from muxrepeater.cli import run
from muxrepeater.modes import ModeSpace
from muxrepeater.params import PhysicalConstants, SpdcParams, load_config
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
                     ["spdc", "--grid=-5:10:3"]):
            assert run(argv) == 2, argv
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["mc-validate", "--samples", "10", "--chain-samples", "0",
         "--seed", "-5"],
        ["ef-curve", "--chi", "2"],
        ["ef-curve", "--chi", "1"],
        ["ef-curve", "--modes", "inf"],
        ["limits", "--k-ref", "inf"]])
    def test_out_of_range_number_exits_2(self, argv, capsys):
        assert run(argv) == 2
        capsys.readouterr()

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

    @pytest.mark.parametrize("text, argv, prefix", [
        ('{"spdc": {"f_rep": 1%s}}' % ("0" * 400), ["spdc"], "f_rep"),
        ('{"mode_space": {"K_max": 1%s}}' % ("0" * 400),
         ["ef-curve", "--grid", "10:20:2"], "K_max"),
        ('{"platforms": [{"name": "X", "M": 1%s, "chi": 0.1, "eta_r": 0.5, '
         '"tau_ms": 1.0, "multiplexed": true}]}' % ("0" * 200),
         ["pg-curve", "--platforms", "X"], "M"),
        ('{"spdc": {"f_rep": 1%s}}' % ("0" * 4999), ["spdc"], "config")],
        ids=["f_rep-int-literal", "K_max-int-literal", "multiplexed-M",
             "int-past-digit-limit"])
    def test_numbers_past_the_float_range_exit_3(self, tmp_path, capsys, text,
                                                 argv, prefix):
        cfg = tmp_path / "huge.json"
        cfg.write_text(text)
        assert run(argv + ["--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {prefix}: ")

    def test_non_utf8_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "latin.json"
        cfg.write_bytes(b'{"spdc": {"chi": 0.1}}\xff')
        assert run(["spdc", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: config: cannot read {cfg}: ")

    def test_overflowing_clock_period_gives_zero_rate(self, capsys):
        # L0/c overflows to T_r = inf at the far grid point: rate 0 by design
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["optimize", "--grid", "100:1e308:2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        near, far = csv.DictReader(io.StringIO(out))
        assert float(near["R_ebit_per_s"]) > 0.0
        assert float(far["L_km"]) == 1e308
        assert float(far["R_ebit_per_s"]) == 0.0
        assert math.isinf(float(far["T_per_ebit_s"]))

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

    def test_config_roundtrip_same_output(self, tmp_path, capsys):
        # an explicit config equal to the defaults produces identical bytes
        from muxrepeater.params import default_bundle, dump_config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dump_config(default_bundle())))
        assert run(["pg-curve", "--grid", "10:100:5"]) == 0
        default_out = capsys.readouterr().out
        assert run(["pg-curve", "--grid", "10:100:5", "--config", str(cfg)]) == 0
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
