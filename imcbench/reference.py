"""Reference results and the output checker.

The reference search is written here, over the public ``enumerate_mappings``,
``evaluate_mapping`` and ``evaluate_layer_mapping``, and never calls
``best_mapping``: a later fast path in the mapper cannot vouch for itself.
It keeps the mapper's tie-break: lowest objective, then highest spatial
utilization, then the lexicographically smallest unroll-factor tuple.

Golden files under ``golden/`` hold the reference rows of every request of the
seed-independent pools and of ``layer-mix`` at the default seed. Regenerate
them with ``python3 imcbench/reference.py --write [WORKLOAD ...]`` (run from the
repo root).
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
REL_TOL = 1e-12


def _objective(metrics, objective: str) -> float:
    if objective == "energy":
        return metrics.energy
    if objective == "latency":
        return metrics.latency
    return metrics.energy * metrics.latency


def reference_search(system, layer, objective: str):
    """Exhaustive search: (MappingResult, SystemMetrics) of the winning mapping."""
    from imcperf.mapper import enumerate_mappings, evaluate_mapping
    from imcperf.system import evaluate_layer_mapping

    best_key = None
    best = None
    for mapping in enumerate_mappings(layer, system.macro):
        result = evaluate_mapping(layer, system.macro, mapping)
        metrics = evaluate_layer_mapping(system, layer, result)
        key = (_objective(metrics, objective), -result.spatial_utilization, mapping.factors())
        if best_key is None or key < best_key:
            best_key, best = key, (result, metrics)
    return best


def _energy_columns(row: dict, breakdown: dict) -> None:
    from imcperf.system import ENERGY_BREAKDOWN_KEYS

    for key in ENERGY_BREAKDOWN_KEYS:
        row[f"energy_{key}"] = breakdown[key]


def layer_row(network, index: int, macro, result, metrics) -> dict:
    from imcperf.workload import classify, total_macs

    layer = network.layers[index]
    mapping = result.mapping
    traffic = result.traffic
    row = {
        "workload": network.name, "layer_index": index,
        "layer": layer.name or f"layer{index}", "kind": classify(layer).value,
        "imc_type": macro.imc_type.value, "d_i": macro.d_i, "d_o": macro.d_o,
        "macs": total_macs(layer),
        "k_u": mapping.k_u, "ox_u": mapping.ox_u, "c_u": mapping.c_u,
        "fx_u": mapping.fx_u, "fy_u": mapping.fy_u,
        "rows": mapping.rows, "cols": mapping.cols,
        "spatial_utilization": result.spatial_utilization,
        "in_unroll_ratio": result.in_unroll_ratio,
        "out_unroll_ratio": result.out_unroll_ratio,
        "mvm_invocations": result.mvm_invocations,
        "total_cycles": result.total_cycles,
        "weight_tile_loads": result.weight_tile_loads,
        "w_dram_bits": traffic[("W", "dram")], "w_macro_bits": traffic[("W", "macro")],
        "i_dram_bits": traffic[("I", "dram")], "i_cache_bits": traffic[("I", "cache")],
        "o_cache_bits": traffic[("O", "cache")],
        "energy": metrics.energy, "latency": metrics.latency, "tops": metrics.tops,
        "tops_per_w": metrics.tops_per_w, "tops_per_mm2": metrics.tops_per_mm2,
        "area": metrics.area, "warnings": "; ".join(metrics.warnings),
    }
    _energy_columns(row, metrics.energy_breakdown)
    return row


def network_row(network, macro, per_layer: list) -> dict:
    """Whole-network totals, summed in layer order like the CLI's network command."""
    from imcperf.system import ENERGY_BREAKDOWN_KEYS
    from imcperf.workload import total_macs

    energy = latency = 0.0
    macs = 0
    breakdown = dict.fromkeys(ENERGY_BREAKDOWN_KEYS, 0.0)
    notes: list[str] = []
    for layer, repeat, (_, metrics) in zip(network.layers, network.repeats, per_layer):
        energy += repeat * metrics.energy
        latency += repeat * metrics.latency
        macs += repeat * total_macs(layer)
        for key, value in metrics.energy_breakdown.items():
            breakdown[key] += repeat * value
        notes.extend(note for note in metrics.warnings if note not in notes)
    area = per_layer[-1][1].area
    ops = 2.0 * macs
    row = {
        "workload": network.name, "imc_type": macro.imc_type.value,
        "d_i": macro.d_i, "d_o": macro.d_o, "n_layers": len(network.layers), "macs": macs,
        "energy": energy, "latency": latency, "tops": ops / latency,
        "tops_per_w": ops / energy, "tops_per_mm2": ops / latency / (area * 1e-6),
        "area": area, "warnings": "; ".join(notes),
    }
    _energy_columns(row, breakdown)
    return row


def _option(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def reference_rows(argv: list[str], run_dir: Path) -> list[dict]:
    """Reference rows of one `layer` or `network` request, in CLI row order."""
    from imcperf import cli
    from imcperf.workload import bundled_network, load_network

    command = argv[0]
    bundle = cli.load_config(None)
    workload = _option(argv, "--workload")
    path = run_dir / workload
    network = load_network(path) if path.is_file() else bundled_network(workload)
    objective = _option(argv, "--objective", "energy")
    type_arg = _option(argv, "--type")
    types = ("aimc", "dimc") if type_arg == "both" else (type_arg,)
    sizes = [int(s) for s in _option(argv, "--sizes").split(",")]
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for imc_type in types:
            for size in sizes:
                macro = cli.build_macro(bundle, imc_type, size)
                system = cli.make_system(bundle, macro)
                per_layer = [reference_search(system, layer, objective)
                             for layer in network.layers]
                if command == "network":
                    rows.append(network_row(network, macro, per_layer))
                else:
                    rows.extend(layer_row(network, index, macro, *best)
                                for index, best in enumerate(per_layer))
    if command == "layer":
        rows.sort(key=lambda r: (r["workload"], r["imc_type"], r["d_i"], r["layer_index"]))
    return rows


def cli_rows(argv: list[str], out: Path = Path("out.json")) -> list[dict]:
    """The CLI's own JSON rows for one request, run in-process."""
    from imcperf import cli

    code = cli.main(argv + ["--format", "json", "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return json.loads(out.read_text())["rows"]


def compare_rows(expected: list[dict], actual: list[dict]) -> str | None:
    """None when the rows match, else the first difference.

    Where the reference holds a float, the output must be a number within
    REL_TOL relative of it; anything else (strings, nulls, integer counts and
    mapping factors) must be equal and of the same type.
    """
    if len(expected) != len(actual):
        return f"expected {len(expected)} rows, got {len(actual)}"
    for index, (want, got) in enumerate(zip(expected, actual)):
        if set(want) != set(got):
            return f"row {index}: columns differ: {sorted(set(want) ^ set(got))}"
        for key, a in want.items():
            b = got[key]
            if isinstance(a, float):
                if not (isinstance(b, (int, float)) and not isinstance(b, bool)
                        and math.isfinite(a) and math.isfinite(b)
                        and abs(a - b) <= REL_TOL * max(abs(a), abs(b))):
                    return f"row {index}: {key} = {b!r}, reference {a!r}"
            elif type(a) is not type(b) or a != b:
                return f"row {index}: {key} = {b!r}, reference {a!r}"
    return None


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict:
    """{"seed", "requests": {id: [row dict, ...]}} from golden/<workload>.json.

    On disk each request is [schema index, [[value, ...], ...]], the schemas
    being the column lists of the commands involved.
    """
    doc = json.loads(golden_path(workload).read_text())
    schemas = doc["schemas"]
    return {"seed": doc["seed"], "requests": {
        rid: [dict(zip(schemas[schema], values)) for values in rows]
        for rid, (schema, rows) in doc["requests"].items()}}


def write_golden(workload: str, seed: int, rows_by_id: dict[str, list[dict]]) -> None:
    schemas: list[list[str]] = []
    lines = []
    for rid, rows in rows_by_id.items():
        fields = list(rows[0])
        if fields not in schemas:
            schemas.append(fields)
        values = [[row[f] for f in fields] for row in rows]
        lines.append(f"{json.dumps(rid)}: [{schemas.index(fields)}, {json.dumps(values)}]")
    GOLDEN_DIR.mkdir(exist_ok=True)
    golden_path(workload).write_text(
        '{"seed": %d,\n "schemas": %s,\n "requests": {\n  %s\n }}\n'
        % (seed, json.dumps(schemas), ",\n  ".join(lines)))


def main() -> int:
    import os
    import tempfile

    root = HERE.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from imcbench import workloads

    chosen = sys.argv[2:] or list(workloads.WORKLOADS)
    if sys.argv[1:2] != ["--write"] or not set(chosen) <= set(workloads.WORKLOADS):
        print("usage: python3 imcbench/reference.py --write [WORKLOAD ...]", file=sys.stderr)
        return 1
    home = os.getcwd()
    for workload in chosen:
        requests = workloads.requests_for(workload, workloads.DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            run_dir = Path(tmp)
            workloads.write_files(requests, run_dir)
            os.chdir(run_dir)
            try:
                if workload == "peak-sweep":
                    # No mapping search to redo: the rows are this commit's CLI output.
                    rows = {r["id"]: cli_rows(r["argv"]) for r in requests}
                else:
                    rows = {r["id"]: reference_rows(r["argv"], run_dir) for r in requests}
            finally:
                os.chdir(home)
        write_golden(workload, workloads.DEFAULT_SEED, rows)
        print(f"{workload}: {len(rows)} requests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
