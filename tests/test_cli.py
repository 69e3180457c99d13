import argparse
import contextlib
import csv
import io
import json
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imcperf import ImcMacroConfig, ImcType, TechnologyParams, cli, macro_metrics
from imcperf.cli import (
    LAYER_FIELDS,
    NETWORK_FIELDS,
    PEAK_FIELDS,
    VALIDATE_FIELDS,
    main,
)

# energy_per_mac / clock_period / area for the seven reference design points
VALIDATE_ROWS = (
    "1,aimc,7,2,7,1024,512,1,1,2.93857e-14,8.93929e-08,2.56847e+07",
    "2,aimc,8,8,2,16,12,32,1,7.11277e-13,4.90904e-09,80185.6",
    "3,aimc,8,8,1,64,256,1,8,3.50332e-13,6.2584e-09,4.82894e+06",
    "4,dimc,8,8,2,32,6,1,64,1.4338e-13,4.57924e-09,1.39582e+06",
    "5,dimc,8,8,1,32,1,16,2,1.64714e-13,3.107e-09,14994.4",
    "6,dimc,8,8,2,128,8,8,8,1.3585e-13,5.42052e-09,1.45272e+06",
    "7,dimc,8,8,1,128,8,2,4,1.38561e-13,3.75708e-09,293915",
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestValidate:
    def test_reference_table(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(VALIDATE_FIELDS)
        assert len(lines) == 8
        assert tuple(lines[1:]) == VALIDATE_ROWS

    def test_json_round_trips_model_exactly(self, capsys):
        code, out, _ = run(capsys, "validate", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "validate"
        assert len(doc["rows"]) == 7
        for row in doc["rows"]:
            macro = ImcMacroConfig(
                imc_type=ImcType(row["imc_type"]),
                d_i=row["d_i"], d_o=row["d_o"], b_i=row["b_i"], b_w=row["b_w"],
                b_cycle=row["b_cycle"], m=row["m"], n_macros=row["n_macros"])
            mm = macro_metrics(TechnologyParams(), macro)
            per_mac = mm.energy_per_mvm / (macro.d_i * macro.d_o * macro.n_macros)
            assert row["energy_per_mac"] == per_mac
            assert row["clock_period"] == mm.clock_period
            assert row["area"] == mm.area

    def test_installed_entry_point(self):
        # the console script when installed, else the same cli:main via the package
        script = shutil.which("imcperf")
        command = [script] if script else [sys.executable, "-m", "imcperf"]
        proc = subprocess.run([*command, "validate"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 8


class TestPeakAndSweep:
    def test_default_design_point(self, capsys):
        code, out, _ = run(capsys, "peak")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert (row["imc_type"], row["d_i"], row["d_o"], row["b_cycle"]) == (
            "aimc", "32", "32", "2")
        assert row["macro_tops"] == "8.16389e+10"
        assert row["system_energy_per_mvm"] == "2.35841e-09"
        assert out.splitlines()[0] == ",".join(PEAK_FIELDS)

    def test_sweep_covers_both_types_sorted(self, capsys):
        code, out, _ = run(capsys, "sweep")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 12
        keys = [(r["imc_type"], int(r["d_i"])) for r in rows]
        assert keys == sorted(keys)
        assert {r["imc_type"] for r in rows} == {"aimc", "dimc"}
        assert sorted({int(r["d_i"]) for r in rows}) == [32, 64, 128, 256, 512, 1024]

    def test_parallel_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run(capsys, "sweep", "--jobs", "1")
        _, parallel, _ = run(capsys, "sweep", "--jobs", "4")
        assert serial == parallel

    @pytest.mark.parametrize("command", ["layer", "network"])
    def test_parallel_jobs_do_not_change_mapper_output(self, capsys, command):
        argv = (command, "--workload", "mlperf-tiny-layers", "--type", "both",
                "--sizes", "16,64")
        serial_code, serial, _ = run(capsys, *argv, "--jobs", "1")
        parallel_code, parallel, _ = run(capsys, *argv, "--jobs", "4")
        assert serial_code == parallel_code == 0
        assert serial == parallel

    @pytest.mark.parametrize("command", ["layer", "network"])
    def test_jobs_flag_starts_no_threads(self, capsys, monkeypatch, command):
        def refuse(thread):
            raise RuntimeError("the CLI evaluates serially and starts no threads")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, out, err = run(capsys, command, "--workload", "mlperf-tiny-layers",
                             "--type", "both", "--sizes", "16,64", "--jobs", "4")
        assert code == 0, err
        assert {(r["imc_type"], r["d_i"]) for r in parse_csv(out)} == {
            ("aimc", "16"), ("aimc", "64"), ("dimc", "16"), ("dimc", "64")}

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "sweep", "--sizes", "32,128")
        _, second, _ = run(capsys, "sweep", "--sizes", "32,128")
        assert first == second

    def test_csv_floats_use_six_significant_digits(self, capsys):
        _, csv_out, _ = run(capsys, "peak")
        _, json_out, _ = run(capsys, "peak", "--format", "json")
        row = parse_csv(csv_out)[0]
        full = json.loads(json_out)["rows"][0]
        for key in ("clock_period", "macro_energy_per_mvm", "macro_area",
                    "system_tops_per_w"):
            assert row[key] == format(full[key], ".6g")


class TestWorkloadCommands:
    def test_layer_table_for_bundled_workload(self, capsys):
        code, out, _ = run(capsys, "layer", "--workload", "mlperf-tiny-layers",
                           "--type", "dimc", "--sizes", "32")
        assert code == 0
        assert out.splitlines()[0] == ",".join(LAYER_FIELDS)
        rows = parse_csv(out)
        assert [r["kind"] for r in rows] == ["fc", "pw", "dw", "conv"]

        dw = rows[2]
        assert (dw["k_u"], dw["ox_u"], dw["c_u"], dw["fx_u"], dw["fy_u"]) == (
            "1", "25", "1", "3", "3")
        assert (dw["rows"], dw["cols"]) == ("9", "25")
        assert dw["spatial_utilization"] == "0.219727"
        assert dw["in_unroll_ratio"] == "1"
        assert dw["out_unroll_ratio"] == "1"
        assert (dw["mvm_invocations"], dw["weight_tile_loads"]) == ("320", "64")
        assert dw["energy"] == "3.94468e-07"

        fc = rows[0]
        assert fc["in_unroll_ratio"] == "0.05"
        assert (fc["mvm_invocations"], fc["total_cycles"]) == ("80", "640")
        assert fc["energy"] == "2.46339e-06"

    def test_layer_utilization_at_larger_array(self, capsys):
        code, out, _ = run(capsys, "layer", "--workload", "mlperf-tiny-layers",
                           "--type", "dimc", "--sizes", "256")
        assert code == 0
        conv = parse_csv(out)[3]
        assert conv["spatial_utilization"] == "0.5625"

    def test_network_summary_values(self, capsys):
        code, out, _ = run(capsys, "network", "--workload", "mlperf-tiny-layers",
                           "--type", "both", "--sizes", "32")
        assert code == 0
        assert out.splitlines()[0] == ",".join(NETWORK_FIELDS)
        rows = parse_csv(out)
        assert len(rows) == 2  # single workload: no geomean row
        by_type = {r["imc_type"]: r for r in rows}
        assert by_type["aimc"]["energy"] == "5.64355e-06"
        assert by_type["aimc"]["tops_per_w"] == "1.09968e+12"
        assert by_type["dimc"]["energy"] == "4.36348e-06"
        assert by_type["dimc"]["tops_per_w"] == "1.42228e+12"

    def test_network_geomean_row(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"layers": [{"k": 64, "c": 64, "ox": 12, "oy": 12}]}))
        b.write_text(json.dumps({"layers": [{"k": 16, "c": 16, "ox": 8, "oy": 8,
                                             "fx": 3, "fy": 3}]}))
        code, out, _ = run(capsys, "network", "--workload", str(a),
                           "--workload", str(b), "--type", "dimc", "--sizes", "64")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        geo = rows[2]
        assert geo["workload"] == "geomean"
        assert geo["energy"] == ""  # only efficiency metrics are averaged
        assert float(geo["tops_per_w"]) > 0

    def test_objective_flag_accepted(self, capsys):
        code, _, _ = run(capsys, "layer", "--workload", "mlperf-tiny-layers",
                         "--type", "dimc", "--sizes", "32",
                         "--objective", "latency")
        assert code == 0


class TestConfigHandling:
    def test_env_directory_config(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "config.json").write_text(json.dumps({"macro": {"imc_type": "dimc"}}))
        monkeypatch.setenv("IMCPERF_CONFIG_DIR", str(tmp_path))
        _, out, _ = run(capsys, "peak")
        assert parse_csv(out)[0]["imc_type"] == "dimc"

    def test_explicit_config_wins_over_env(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "config.json").write_text(json.dumps({"macro": {"imc_type": "dimc"}}))
        explicit = tmp_path / "other.json"
        explicit.write_text(json.dumps({"macro": {"d_i": 64, "d_o": 64}}))
        monkeypatch.setenv("IMCPERF_CONFIG_DIR", str(tmp_path))
        _, out, _ = run(capsys, "peak", "--config", str(explicit))
        row = parse_csv(out)[0]
        assert (row["imc_type"], row["d_i"]) == ("aimc", "64")

    def test_technology_override_scales_energy(self, capsys, tmp_path):
        cfg = tmp_path / "hv.json"
        cfg.write_text(json.dumps({"technology": {"v_dd": 1.8}}))
        _, base, _ = run(capsys, "peak", "--format", "json")
        _, scaled, _ = run(capsys, "peak", "--format", "json", "--config", str(cfg))
        e0 = json.loads(base)["rows"][0]["macro_energy_per_mvm"]
        e1 = json.loads(scaled)["rows"][0]["macro_energy_per_mvm"]
        assert e1 == pytest.approx(4 * e0, rel=1e-12)

    def test_back_to_back_technologies_price_their_own_macros(self, capsys, tmp_path):
        # every macro energy scales with v_dd squared; a macro priced under the
        # first technology must not answer for the second
        energies = []
        outputs = []
        for v_dd in (0.8, 1.0, 0.8):
            cfg = tmp_path / f"tech-{v_dd}.json"
            cfg.write_text(json.dumps({"technology": {"v_dd": v_dd}}))
            code, out, err = run(capsys, "peak", "--format", "json", "--config", str(cfg))
            assert code == 0, err
            outputs.append(out)
            energies.append(json.loads(out)["rows"][0]["macro_energy_per_mvm"])
        assert energies[1] == pytest.approx(energies[0] / 0.64, rel=1e-12)
        assert outputs[2] == outputs[0] != outputs[1]

    def test_cache_override_applies(self, capsys, tmp_path):
        cfg = tmp_path / "cache.json"
        cfg.write_text(json.dumps({"cache": {"area": 0.0}}))
        _, out, _ = run(capsys, "peak", "--config", str(cfg))
        row = parse_csv(out)[0]
        assert row["system_area"] == row["macro_area"]

    @pytest.mark.parametrize("name", [[1, 2], 7], ids=["list", "number"])
    def test_non_string_cache_name_is_a_config_error(self, capsys, tmp_path, name):
        cfg = tmp_path / "cache.json"
        cfg.write_text(json.dumps({"cache": {"name": name}}))
        assert run(capsys, "peak", "--config", str(cfg)) == (
            2, "", "imcperf: config error: invalid cache section: "
                   f"name must be a string, got {name!r}\n")


class TestBooleanConfig:
    """JSON true and false are no numbers, and 1 or "yes" is no flag: each is a
    config error (exit 2) that names the field, under every command."""

    CASES = (
        ({"macro": {"b_i": True, "b_cycle": True}},
         "invalid macro section: b_i must be an integer >= 1, got True"),
        ({"macro": {"b_cycle": True}},
         "invalid macro section: b_cycle must be an integer >= 1, got True"),
        ({"macro": {"n_macros": True}},
         "invalid macro section: n_macros must be an integer >= 1, got True"),
        ({"macro": {"d_i": True}},
         "invalid macro section: d_i must be an integer >= 1, got True"),
        ({"macro": {"weight_sparsity": False}},
         "invalid macro section: weight_sparsity must be a number, not a boolean, got False"),
        ({"macro": {"pipelined": 1}},
         "invalid macro section: pipelined must be a boolean, got 1"),
        ({"macro": {"adc_resolution_from_full_precision": "yes"}},
         "invalid macro section: adc_resolution_from_full_precision must be a boolean, "
         "got 'yes'"),
        ({"technology": {"v_dd": True}},
         "invalid technology section: v_dd must be a number, not a boolean, got True"),
        ({"technology": {"k1": False}},
         "invalid technology section: k1 must be a number, not a boolean, got False"),
        ({"cache": {"capacity_bits": True}},
         "invalid cache section: capacity_bits must be an integer >= 1, got True"),
        ({"cache": {"bandwidth_bits_per_cycle": True}},
         "invalid cache section: bandwidth_bits_per_cycle must be an integer >= 1, got True"),
        ({"cache": {"read_energy": False}},
         "invalid cache section: read_energy must be a number, not a boolean, got False"),
    )

    @pytest.mark.parametrize("config, message", [
        pytest.param(config, message, id=json.dumps(config)) for config, message in CASES])
    @pytest.mark.parametrize("command", [
        ("peak", "--type", "dimc", "--sizes", "32"), ("validate",)], ids=lambda c: c[0])
    def test_rejected_with_the_field_named(self, capsys, tmp_path, command, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run(capsys, *command, "--config", str(path)) \
            == (2, "", f"imcperf: config error: {message}\n")

    def test_real_booleans_still_set_the_flags(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"macro": {
            "pipelined": True, "adc_resolution_from_full_precision": False}}))
        code, out, err = run(capsys, "peak", "--config", str(path))
        assert code == 0, err
        _, plain, _ = run(capsys, "peak")
        # a pipelined macro runs a shorter clock
        assert float(parse_csv(out)[0]["clock_period"]) \
            < float(parse_csv(plain)[0]["clock_period"])


class TestNumericConfig:
    """A value that is no number, or a number out of range, in a numeric field is a
    config error (exit 2) that names the field, under every command."""

    CASES = (
        ({"technology": {"v_dd": "1"}},
         "invalid technology section: v_dd must be a number, got '1'"),
        ({"technology": {"k1": None}},
         "invalid technology section: k1 must be a number, got None"),
        ({"macro": {"input_toggle_rate": "0.5"}},
         "invalid macro section: input_toggle_rate must be a number, got '0.5'"),
        ({"macro": {"weight_sparsity": None}},
         "invalid macro section: weight_sparsity must be a number, got None"),
        ({"cache": {"read_energy": None}},
         "invalid cache section: read_energy must be a number, got None"),
        ({"cache": {"area": "0"}},
         "invalid cache section: area must be a number, got '0'"),
        ({"dram_energy_per_bit": "1"}, "dram_energy_per_bit must be a number, got '1'"),
        ({"dram_energy_per_bit": None}, "dram_energy_per_bit must be a number, got None"),
        ({"dram_energy_per_bit": True},
         "dram_energy_per_bit must be a number, not a boolean, got True"),
        ({"dram_energy_per_bit": -1},
         "dram_energy_per_bit must be finite and non-negative, got -1"),
        ({"dram_energy_per_bit": 10**400},
         "dram_energy_per_bit: int too large to convert to float"),
    )

    @pytest.mark.parametrize("config, message", [
        pytest.param(config, message, id=json.dumps(config)[:40]) for config, message in CASES])
    @pytest.mark.parametrize("command", [
        ("peak", "--type", "dimc", "--sizes", "32"), ("validate",)], ids=lambda c: c[0])
    def test_rejected_with_the_field_named(self, capsys, tmp_path, command, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run(capsys, *command, "--config", str(path)) \
            == (2, "", f"imcperf: config error: {message}\n")


class TestOutputFile:
    def test_out_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "validate", "--out", str(target))
        assert code == 0
        _, stdout_text, _ = run(capsys, "validate")
        assert target.read_text() == stdout_text
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask022", "umask027"])
    def test_out_file_mode_follows_umask(self, capsys, tmp_path, umask):
        target = tmp_path / "rows.csv"
        previous = os.umask(umask)
        try:
            code, _, _ = run(capsys, "validate", "--out", str(target))
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("length", [244, 255])
    def test_out_name_up_to_the_filesystem_limit(self, capsys, tmp_path, length):
        # the staged name must not grow with the target's: 255 bytes is NAME_MAX
        target = tmp_path / ("r" * (length - 4) + ".csv")
        code, out, err = run(capsys, "validate", "--out", str(target))
        assert (code, out, err) == (0, "", "")
        _, stdout_text, _ = run(capsys, "validate")
        assert target.read_text() == stdout_text
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_unwritable_out_fails_cleanly(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "rows.csv"
        code, _, err = run(capsys, "validate", "--out", str(target))
        assert code == 1
        assert "cannot write output" in err
        assert not target.exists()

    def test_staged_name_is_not_interned(self, capsys, tmp_path, monkeypatch):
        # pathlib interns every path part it parses, and each staged name is new,
        # so a long run would fill the interpreter's table with dead names
        interned = []
        intern = sys.intern
        monkeypatch.setattr(sys, "intern", lambda text: interned.append(text) or intern(text))
        written = run(capsys, "validate", "--out", str(tmp_path / "rows.csv"))
        missing = tmp_path / "missing-dir"
        failed = run(capsys, "validate", "--out", str(missing / "rows.csv"))
        monkeypatch.undo()
        assert [text for text in interned if text.startswith(".imcperf-")] == []
        assert written == (0, "", "")
        code, out, err = failed
        assert (code, out) == (1, "")
        assert re.fullmatch(
            re.escape("imcperf: error: cannot write output: [Errno 2] No such file or "
                      f"directory: '{missing}/.imcperf-") + r"[0-9a-f]{16}\.tmp'\n", err), err

    def test_out_directory_fails_cleanly(self, capsys, tmp_path):
        # the staged file is written, then cannot replace a directory
        target = tmp_path / "rows"
        target.mkdir()
        (target / "kept.txt").write_text("kept\n")
        code, out, err = run(capsys, "validate", "--out", str(target))
        assert code == 1 and out == ""
        assert "cannot write output" in err
        assert [p.name for p in target.iterdir()] == ["kept.txt"]
        assert (target / "kept.txt").read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows"]


class TestExitCodes:
    def test_usage_errors(self, capsys, tmp_path):
        assert run(capsys, "bogus")[0] == 1
        assert run(capsys, "peak", "--sizes", "33")[0] == 1
        assert run(capsys, "peak", "--sizes", "")[0] == 1
        assert run(capsys, "peak", "--jobs", "0")[0] == 1
        assert run(capsys, "layer")[0] == 1
        assert run(capsys, "network")[0] == 1

    @pytest.mark.parametrize("command", ["peak", "sweep", "validate", "layer", "network"])
    @pytest.mark.parametrize("sizes", ["33", "", "abc", "4,8192"])
    def test_sizes_are_checked_under_every_command(self, capsys, command, sizes):
        workload = ["--workload", "mlperf-tiny-layers"] if command in ("layer", "network") else []
        code, out, err = run(capsys, command, *workload, "--sizes", sizes)
        expected = run(capsys, "peak", "--sizes", sizes)
        assert (code, out, err) == expected
        assert code == 1 and out == "" and err.startswith("imcperf: error: --sizes")

    def test_config_errors(self, capsys, tmp_path):
        assert run(capsys, "peak", "--config", str(tmp_path / "nope.json"))[0] == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(capsys, "peak", "--config", str(bad))[0] == 2
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"macro": {"rows": 32}}))
        assert run(capsys, "peak", "--config", str(unknown))[0] == 2
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"macro": {"d_i": -4}}))
        assert run(capsys, "peak", "--config", str(invalid))[0] == 2

    @pytest.mark.parametrize("command", ["peak", "validate"])
    @pytest.mark.parametrize("doc", [
        {"cache": {"capacity_bits": 0}},
        {"dram_energy_per_bit": -1},
        {"cache": {"read_energy": "cheap"}},
        {"dram_energy_per_bit": float("nan")},
        {"dram_energy_per_bit": 10 ** 400},
    ], ids=["zero-capacity", "negative-dram", "string-energy", "nan-dram", "huge-dram"])
    def test_invalid_cache_or_dram_is_a_config_error(self, capsys, tmp_path, command, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--config", str(config))
        assert code == 2 and out == ""
        assert "config error" in err

    def test_non_utf8_config_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b"{}\xff")
        code, out, err = run(capsys, "peak", "--config", str(config))
        assert code == 2 and out == ""
        assert f"config error: cannot read config file {config}" in err

    @pytest.mark.parametrize("text", [
        '{"dram_energy_per_bit": ' + "1" * 5000 + "}",
        "[" * 100_000 + "]" * 100_000,
    ], ids=["overlong-integer", "deep-nesting"])
    def test_undecodable_json_is_a_config_error(self, capsys, tmp_path, text):
        # json.loads raises ValueError past 4300 digits, RecursionError when too deep
        config = tmp_path / "config.json"
        config.write_text(text)
        code, out, err = run(capsys, "peak", "--config", str(config))
        assert code == 2 and out == ""
        assert f"config error: invalid JSON in {config}" in err

    def test_oversized_adc_is_an_evaluation_error(self, capsys, tmp_path):
        # b_i sets the ADC resolution; 4**res must not become a 200-Mbit integer
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"macro": {
            "b_i": 100_000_000, "adc_resolution_from_full_precision": True}}))
        code, out, err = run(capsys, "peak", "--config", str(config))
        assert code == 3 and out == ""
        assert "ADC resolution of 100000003 bits is too large to price" in err

    def test_narrow_cache_bandwidth_is_an_evaluation_error(self, capsys, tmp_path):
        # whether the bandwidth fits depends on --sizes, so the config loads
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cache": {"bandwidth_bits_per_cycle": 8}}))
        assert run(capsys, "validate", "--config", str(config))[0] == 0
        code, out, err = run(capsys, "peak", "--config", str(config))
        assert code == 3 and out == ""
        assert "does not fit the macro dimensions" in err

    def test_evaluation_errors(self, capsys, tmp_path):
        assert run(capsys, "layer", "--workload", "no-such-net")[0] == 3
        overflow = tmp_path / "huge.json"
        overflow.write_text(json.dumps(
            {"layers": [{"k": 1 << 31, "c": 1 << 31, "ox": 4}]}))
        assert run(capsys, "network", "--workload", str(overflow))[0] == 3

    def test_search_budget_is_an_evaluation_error(self, capsys, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"layers": [
            {"name": "huge", "k": 5040, "c": 5040, "ox": 5040, "fx": 5040}]}))
        code, out, err = run(capsys, "layer", "--workload", str(huge),
                             "--type", "dimc", "--sizes", "4096")
        assert code == 3 and out == ""
        assert "'huge' has 2852721 mapping candidates" in err

    @pytest.mark.parametrize("imc_type", ["aimc", "dimc"])
    def test_degenerate_technology_is_an_evaluation_error(self, capsys, tmp_path, imc_type):
        config = tmp_path / "zero.json"
        config.write_text(json.dumps({"technology": {"d_gate": 0, "k3": 0, "k4": 0}}))
        code, out, err = run(capsys, "peak", "--type", imc_type, "--config", str(config))
        assert code == 3 and out == ""
        assert f"clock period of the {imc_type.upper()} macro is zero" in err

    def test_errors_reach_stderr_not_stdout(self, capsys):
        code, out, err = run(capsys, "layer")
        assert code == 1 and out == "" and "workload" in err


class TestParserReuse:
    @staticmethod
    def write_network(tmp_path, name, k):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"layers": [{"k": k, "c": 8, "ox": 4, "oy": 4}]}))
        return str(path)

    def test_main_builds_no_parser(self, capsys, monkeypatch, tmp_path):
        workload = self.write_network(tmp_path, "net", 16)

        def refuse(self, *args, **kwargs):
            raise AssertionError("main built an argument parser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert run(capsys, "validate")[0] == 0
        code, out, err = run(capsys, "layer", "--workload", workload)
        assert code == 0, err
        assert [r["workload"] for r in parse_csv(out)] == ["net"]

    def test_back_to_back_calls_are_independent(self, capsys, tmp_path):
        first_net = self.write_network(tmp_path, "first", 16)
        second_net = self.write_network(tmp_path, "second", 32)
        _, first, _ = run(capsys, "layer", "--workload", first_net)
        _, second, _ = run(capsys, "layer", "--workload", second_net)
        _, again, _ = run(capsys, "layer", "--workload", first_net)
        assert [r["workload"] for r in parse_csv(first)] == ["first"]
        assert [r["workload"] for r in parse_csv(second)] == ["second"]
        assert again == first


_SCALARS = (
    st.text()
    | st.sampled_from(("caf\u00e9", 'say "hi"', "back\\slash", "\x00\x01\x1f\x7f",
                       "line\u2028sep\u2029", "\ud800 lone", "\U0001f600", ""))
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from((float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324))
    | st.none()
    | st.booleans()
)


@st.composite
def _tables(draw):
    """Columns, at least one as every command has, and rows that may lack some of
    them, as the geomean rows do."""
    fieldnames = tuple(draw(st.lists(st.text(max_size=8), unique=True, min_size=1,
                                     max_size=6)))
    rows = draw(st.lists(st.dictionaries(st.sampled_from(fieldnames), _SCALARS,
                                         max_size=len(fieldnames)), max_size=4))
    return fieldnames, rows


class TestRenderJson:
    """The JSON renderer assembles the indented layout around rows the C encoder
    writes; its text must be json.dumps's, byte for byte."""

    @staticmethod
    def expected(command, fieldnames, rows):
        full = [{key: row.get(key) for key in fieldnames} for row in rows]
        return json.dumps({"command": command, "rows": full}, indent=2) + "\n"

    @settings(max_examples=300)
    @given(command=st.sampled_from(tuple(cli._COMMANDS)) | st.text(max_size=6),
           table=_tables())
    def test_matches_indented_json_dumps(self, command, table):
        fieldnames, rows = table
        assert cli._render_json(command, fieldnames, rows) == self.expected(
            command, fieldnames, rows)

    @pytest.mark.parametrize("fieldnames, rows", [
        (PEAK_FIELDS, []),
        (NETWORK_FIELDS, [{"workload": "geomean", "tops": 1.5}]),
        (("a", "b"), [{}, {"a": float("nan"), "b": -0.0}]),
    ], ids=["zero-rows", "missing-keys", "special-floats"])
    def test_edge_tables(self, fieldnames, rows):
        assert cli._render_json("peak", fieldnames, rows) == self.expected(
            "peak", fieldnames, rows)


def test_python_dash_m_entry():
    proc = subprocess.run([sys.executable, "-m", "imcperf.cli", "peak"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(PEAK_FIELDS[:3]))


# Fuzzed config and workload documents: every value is plausible for its key,
# except that one in twenty is replaced by anything JSON can hold.
_FUZZ_NUMBERS = (st.integers() | st.floats()
                 | st.sampled_from((0, -1, 2**62, 2**64, 10**400, 5e-324, 1.7e308)))
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | _FUZZ_NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_FUZZ_HUGE = st.sampled_from((4096, 2**20, 2**40, 2**61, 10**30, 10**400))
_DEEP = 50_000
# raw file contents: truncated, not UTF-8, nested past the parser's recursion
# limit, an integer past its digit limit, and number literals json.dumps
# would spell differently
_FUZZ_RAW = st.sampled_from((
    b"", b"{", b"\xff\xfe{}", b"[" * _DEEP + b"]" * _DEEP,
    b'{"a": ' * _DEEP + b"1" + b"}" * _DEEP, b"9" * 5000,
    b'{"macro": {"d_i": 1e999}}', b'{"layers": [{"k": NaN}]}'))


def _mostly(plausible, wild=_FUZZ_JSON):
    return st.integers(0, 19).flatmap(lambda n: wild if n == 19 else plausible)


def _fuzz_document(table):
    """A JSON object with any of table's keys, or, rarely, any JSON at all."""
    return _mostly(st.fixed_dictionaries({}, optional=table),
                   st.dictionaries(st.text(max_size=4) | st.sampled_from(sorted(table)),
                                   _FUZZ_JSON, max_size=4) | _FUZZ_JSON)


_FUZZ_CONFIG = _fuzz_document({
    "technology": _fuzz_document({
        f.name: _mostly(st.sampled_from((f.default, 0.5 * f.default, 2 * f.default)),
                        st.sampled_from((0.0, 1e300)) | st.floats(0.0, 10.0) | _FUZZ_JSON)
        for f in fields(TechnologyParams)}),
    "macro": _fuzz_document({
        "imc_type": _mostly(st.sampled_from(("aimc", "dimc"))),
        "d_i": _mostly(st.integers(1, 64), _FUZZ_HUGE | _FUZZ_JSON),
        "d_o": _mostly(st.integers(1, 64), _FUZZ_HUGE | _FUZZ_JSON),
        **{name: _mostly(st.integers(1, 16), _FUZZ_HUGE | _FUZZ_JSON)
           for name in ("b_i", "b_w", "b_o", "m", "n_macros")},
        "b_cycle": _mostly(st.none() | st.integers(1, 8)),
        "input_toggle_rate": _mostly(st.floats(0.0, 1.0)),
        "weight_sparsity": _mostly(st.floats(0.0, 1.0)),
        "pipelined": _mostly(st.booleans()),
        "adc_resolution_from_full_precision": _mostly(st.booleans()),
    }),
    "cache": _fuzz_document({
        "name": _mostly(st.text(max_size=4)),
        "capacity_bits": _mostly(st.integers(1, 2**24), _FUZZ_HUGE | _FUZZ_JSON),
        "read_energy": _mostly(st.floats(0.0, 1e-11)),
        "write_energy": _mostly(st.floats(0.0, 1e-11)),
        "area": _mostly(st.floats(0.0, 1e7)),
        "bandwidth_bits_per_cycle": _mostly(st.integers(1, 2**16), _FUZZ_HUGE | _FUZZ_JSON),
    }),
    "dram_energy_per_bit": _mostly(st.floats(0.0, 1e-10)),
})
_FUZZ_LAYER = _fuzz_document({
    **{name: _mostly(st.integers(1, 12), _FUZZ_HUGE | _FUZZ_JSON)
       for name in ("b", "g", "k", "c", "ox", "oy", "fx", "fy", "sx", "sy", "repeat")},
    **{name: _mostly(st.none() | st.integers(1, 16)) for name in ("b_i", "b_w", "b_o")},
    "name": _mostly(st.text(max_size=4)),
})
_FUZZ_WORKLOAD = _fuzz_document({
    "name": _mostly(st.text(max_size=4)),
    "layers": _mostly(st.lists(_FUZZ_LAYER, min_size=1, max_size=3)),
})
# covers each --sizes/--type/--objective/--format path a command can take
_FUZZ_FLAGS = st.sampled_from(([], ["--sizes", "8,16"], ["--type", "both"],
                               ["--objective", "edp"], ["--format", "json"]))


class _Expired(BaseException):
    """Raised by SIGALRM; no handler in the CLI catches it."""


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail the test if the block is still running after seconds."""
    def expire(signum, frame):
        raise _Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Expired:
        raise AssertionError(f"still running after {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run_in_process(command, config, workload, flags=()):
    """main() on a config and a workload file, each a JSON document or raw bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in (("config.json", config), ("net.json", workload)):
            path = os.path.join(tmp, name)
            with open(path, "wb") as stream:
                stream.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode(
                    "utf-8", "surrogatepass"))
            paths.append(path)
        argv = [command, "--config", paths[0], *flags]
        if cli._COMMANDS[command].takes_workload:
            argv += ["--workload", paths[1]]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), _time_limit(20):
            warnings.simplefilter("ignore")  # b_cycle rounding is drawn on purpose
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFuzz:
    """Whatever the config and workload files hold, a command ends within a time
    bound with exit 0, 2 (config error) or 3 (evaluation error), never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(tuple(cli._COMMANDS)),
           config=_mostly(_FUZZ_CONFIG, _FUZZ_RAW), workload=_mostly(_FUZZ_WORKLOAD, _FUZZ_RAW),
           flags=_FUZZ_FLAGS)
    def test_every_input_ends_cleanly(self, command, config, workload, flags):
        code, out, err = _run_in_process(command, config, workload, flags)
        assert "Traceback" not in err
        if code == 0:
            assert out and err == ""
        else:
            prefix = {2: "imcperf: config error: ", 3: "imcperf: evaluation error: "}
            assert code in prefix, (code, err)
            assert err.startswith(prefix[code]) and out == ""

    @pytest.mark.parametrize("command", ["peak", "layer"])
    def test_huge_array_dimension_is_a_config_error(self, command):
        # unroll factors were tried up to d_o: 2**40 of them for this layer
        code, _, err = _run_in_process(command, {"macro": {"d_o": 2**40}},
                                       {"layers": [{"k": 2**40}]})
        assert (code, err) == (
            2, f"imcperf: config error: invalid macro section: d_o must be at most "
               f"65536, got {2**40}\n")

    @pytest.mark.parametrize("command", ["peak", "validate"])
    @pytest.mark.parametrize("key", ["b_i", "b_w", "b_o", "m", "n_macros"])
    def test_huge_macro_integer_is_a_config_error(self, command, key):
        # peak failed converting it to float, naming nothing; validate passed it
        code, _, err = _run_in_process(command, {"macro": {key: 10**400}}, {})
        assert (code, err) == (
            2, f"imcperf: config error: invalid macro section: {key} must be at most "
               f"4294967296, got {10**400}\n")

    def test_huge_repeat_is_an_evaluation_error(self):
        # repeat x MACs failed converting to float, naming nothing
        code, out, err = _run_in_process("network", {},
                                         {"layers": [{"k": 8}, {"k": 8, "repeat": 10**400}]})
        assert (code, out) == (3, "")
        assert err == (f"imcperf: evaluation error: layer 1: repeat {10**400} times 8 MACs "
                       "overflows the supported range\n")

    @pytest.mark.parametrize("section, key", [
        ("technology", "k1"), ("technology", "v_dd"), ("cache", "area"),
        ("cache", "read_energy")])
    def test_huge_integer_constant_is_a_config_error(self, section, key):
        code, _, err = _run_in_process("peak", {section: {key: 10**400}}, {})
        assert (code, err) == (
            2, f"imcperf: config error: invalid {section} section: "
               "int too large to convert to float\n")

    def test_nan_adc_k_is_a_config_error(self):
        code, _, err = _run_in_process("peak", b'{"technology": {"adc_k": NaN}}', {})
        assert (code, err) == (
            2, "imcperf: config error: invalid technology section: adc_k must be >= 1, "
               "got nan\n")
