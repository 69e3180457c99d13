import csv
import io
import json
import shutil
import subprocess
import sys

import pytest

from imcperf import ImcMacroConfig, ImcType, TechnologyParams, macro_metrics
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

    def test_cache_override_applies(self, capsys, tmp_path):
        cfg = tmp_path / "cache.json"
        cfg.write_text(json.dumps({"cache": {"area": 0.0}}))
        _, out, _ = run(capsys, "peak", "--config", str(cfg))
        row = parse_csv(out)[0]
        assert row["system_area"] == row["macro_area"]


class TestOutputFile:
    def test_out_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "validate", "--out", str(target))
        assert code == 0
        _, stdout_text, _ = run(capsys, "validate")
        assert target.read_text() == stdout_text
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []

    def test_unwritable_out_fails_cleanly(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "rows.csv"
        code, _, err = run(capsys, "validate", "--out", str(target))
        assert code == 1
        assert "cannot write output" in err
        assert not target.exists()


class TestExitCodes:
    def test_usage_errors(self, capsys, tmp_path):
        assert run(capsys, "bogus")[0] == 1
        assert run(capsys, "peak", "--sizes", "33")[0] == 1
        assert run(capsys, "peak", "--sizes", "")[0] == 1
        assert run(capsys, "peak", "--jobs", "0")[0] == 1
        assert run(capsys, "layer")[0] == 1
        assert run(capsys, "network")[0] == 1

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


def test_python_dash_m_entry():
    proc = subprocess.run([sys.executable, "-m", "imcperf.cli", "peak"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(PEAK_FIELDS[:3]))
