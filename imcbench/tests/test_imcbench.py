"""Tests of the benchmark itself: checker, generator, reference, tracing, smoke runs.

Run from the repository root: python -m pytest imcbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from imcbench import reference, run, tracing, workloads  # noqa: E402


@pytest.fixture(scope="module")
def mix_golden():
    return reference.load_golden("layer-mix")["requests"]


def _first_rows(golden):
    return copy.deepcopy(next(iter(golden.values())))


class TestChecker:
    def test_identical_rows_pass(self, mix_golden):
        rows = _first_rows(mix_golden)
        assert reference.compare_rows(rows, copy.deepcopy(rows)) is None

    def test_swapped_mapping_is_rejected(self, mix_golden):
        rows = _first_rows(mix_golden)
        other = copy.deepcopy(rows)
        row = next(r for r in other if r["k_u"] != r["c_u"])
        row["k_u"], row["c_u"] = row["c_u"], row["k_u"]
        assert "k_u" in reference.compare_rows(rows, other)

    def test_relative_perturbation_of_1e9_is_rejected(self, mix_golden):
        rows = _first_rows(mix_golden)
        other = copy.deepcopy(rows)
        other[0]["energy"] *= 1 + 1e-9
        assert "energy" in reference.compare_rows(rows, other)

    def test_relative_perturbation_within_1e12_passes(self, mix_golden):
        rows = _first_rows(mix_golden)
        other = copy.deepcopy(rows)
        other[0]["energy"] *= 1 + 1e-13
        assert reference.compare_rows(rows, other) is None

    def test_integer_counts_must_match_exactly(self, mix_golden):
        rows = _first_rows(mix_golden)
        other = copy.deepcopy(rows)
        other[0]["i_cache_bits"] += 1
        assert "i_cache_bits" in reference.compare_rows(rows, other)
        other = copy.deepcopy(rows)
        other[0]["total_cycles"] = float(other[0]["total_cycles"])
        assert "total_cycles" in reference.compare_rows(rows, other)

    def test_missing_row_is_rejected(self, mix_golden):
        rows = _first_rows(mix_golden)
        assert "rows" in reference.compare_rows(rows, rows[:-1] or [{}])


class TestGenerator:
    def test_same_seed_same_requests(self):
        assert workloads.mix_requests(5) == workloads.mix_requests(5)

    def test_other_seed_other_layers(self):
        assert workloads.mix_requests(5) != workloads.mix_requests(6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mix_covers_the_paths_it_exists_for(self, seed):
        requests = workloads.mix_requests(seed)
        layers = [layer for r in requests for layer in r["files"][f"{r['id']}.json"]["layers"]]
        assert any(layer.get("b_i") == 7 for r in requests if "aimc" in r["argv"]
                   for layer in r["files"][f"{r['id']}.json"]["layers"])
        kinds = {layer["name"].rsplit("-", 1)[0] for layer in layers}
        assert kinds == {"conv", "fc", "dw", "spill-in", "spill-out"}
        assert {"latency", "edp"} == {r["argv"][r["argv"].index("--objective") + 1]
                                      for r in requests}
        assert all(r["argv"][-2:] == ["--jobs", "2"] for r in requests)
        for r in requests:
            sizes = map(int, r["argv"][r["argv"].index("--sizes") + 1].split(","))
            for size in sizes:
                for layer in r["files"][f"{r['id']}.json"]["layers"]:
                    assert 2 <= workloads.candidate_count(layer, size) <= 30

    def test_spill_layers_exceed_the_default_cache(self):
        from imcperf.workload import Layer

        cache_bits = 256 * 1024 * 8
        for r in workloads.mix_requests(4):
            for spec in r["files"][f"{r['id']}.json"]["layers"]:
                layer = Layer(**spec)
                if layer.name.startswith("spill-in"):
                    assert layer.input_elements * (layer.b_i or 8) > cache_bits
                if layer.name.startswith("spill-out"):
                    assert layer.output_elements * 8 > cache_bits

    def test_pools_do_not_depend_on_the_seed(self):
        for workload in ("dse-network", "peak-sweep"):
            assert workloads.requests_for(workload, 1) == workloads.requests_for(workload, 9)


class TestReference:
    def test_golden_covers_every_request(self):
        for workload in workloads.WORKLOADS:
            golden = reference.load_golden(workload)
            assert golden["seed"] == workloads.DEFAULT_SEED
            ids = {r["id"] for r in workloads.requests_for(workload, workloads.DEFAULT_SEED)}
            assert ids == set(golden["requests"])

    def test_exhaustive_search_reproduces_golden(self, tmp_path, mix_golden):
        requests = workloads.mix_requests(workloads.DEFAULT_SEED)[:12]
        requests += [r for r in workloads.dse_requests()
                     if r["id"].startswith("mlperf-tiny-layers|") and r["id"].endswith("|64")]
        dse_golden = reference.load_golden("dse-network")["requests"]
        workloads.write_files(requests, tmp_path)
        for r in requests:
            want = mix_golden.get(r["id"]) or dse_golden[r["id"]]
            assert reference.compare_rows(want, reference.reference_rows(r["argv"], tmp_path)) \
                is None, r["id"]


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "imcbench/run.py"]
    assert doc["paths"] == ["imcbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(workloads.WHY.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == [tuple(spec) for spec in run.END_TO_END]
    specs = tracing.per_layer_specs(workloads.bench_layer_names())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == specs
    assert len(doc["per_layer"]) <= 128


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 99) == 99
    assert run.percentile([3.0], 95) == 3.0


class TestTracer:
    def test_self_time_subtracts_children(self):
        tracer = tracing.Tracer()
        leaf = tracer.wrap("components.leaf", lambda: time.sleep(0.002))

        def middle():
            leaf()
            leaf()
            time.sleep(0.001)

        tracer.wrap("macro.middle", middle)()
        spans = tracer.self_times()
        calls, self_s, inclusive = spans["macro.middle"]
        leaf_calls, leaf_self, leaf_inclusive = spans["components.leaf"]
        assert (calls, leaf_calls) == (1, 2)
        assert leaf_self == leaf_inclusive
        assert self_s == pytest.approx(inclusive - leaf_inclusive, abs=1e-12)
        assert self_s > 0

    def test_parallel_children_are_not_counted_twice(self):
        tracer = tracing.Tracer()
        child = tracer.wrap("system.child", lambda: time.sleep(0.05))

        def main():
            threads = [threading.Thread(target=child) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5)
            assert not any(thread.is_alive() for thread in threads)

        tracer.wrap(tracing.MAIN, main)()
        spans = tracer.self_times()
        calls, self_s, inclusive = spans[tracing.MAIN]
        child_calls, _, child_total = spans["system.child"]
        covered = inclusive - self_s
        assert (calls, child_calls) == (1, 2)
        assert 0 <= self_s and covered <= inclusive
        assert covered < child_total  # the overlap counts once

    def test_install_restores_every_name(self):
        from imcperf import cli, components, macro, mapper, system, workload

        modules = {"cli": cli, "components": components, "macro": macro,
                   "mapper": mapper, "system": system, "workload": workload}
        before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.WRAPPED}
        post_init = components.ComponentCost.__post_init__
        uninstall = tracing.Tracer().install(modules)
        assert getattr(system, "best_mapping") is not before[("system", "best_mapping")]
        uninstall()
        assert {(m, a): getattr(modules[m], a) for m, a, _ in tracing.WRAPPED} == before
        assert components.ComponentCost.__post_init__ is post_init


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "imcbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_every_end_to_end_metric():
    proc = _run("--workload", "peak-sweep", "--seed", "2", "--seconds", "0.3", "--trace", "0")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit, _, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert f"\n{name} = " in proc.stdout and proc.stdout.count(f" {unit}\n") >= 1
    assert "error_rate = 0 " in proc.stdout


def test_smoke_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "layer-mix", "--seed", "4", "--seconds", "0.3", "--trace", "1")
    result = _result(proc)
    assert result["correct"]
    specs = tracing.per_layer_specs(workloads.bench_layer_names())
    assert [(name, metric["unit"]) for name, metric in result["metrics"].items()] \
        == [(name, unit) for name, unit, _ in specs]
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics["mapper.candidates"] > 0
    assert metrics["macro.b_cycle_warnings"] > 0
    assert metrics["system.winner_reevals"] == metrics["mapper.best_mapping.calls"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "imcbench", tmp_path / "imcbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "layer-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
