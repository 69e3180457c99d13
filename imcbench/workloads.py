"""The benchmark's three workloads: the requests of one pass, and the files they read.

A request is one ``imcperf`` command line. Every pass of a run issues the same
request set; the seed fixes the order of each pass and, for ``layer-mix``, the
layers themselves. ``dse-network`` and ``peak-sweep`` draw from fixed pools
whose reference rows are checked in under ``golden/``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
NETWORK_DIR = HERE / "networks"

DEFAULT_SEED = 1

WHY = {
    "dse-network": (
        "network sweep over ResNet-50/MobileNetV2 stages and mlperf-tiny, aimc+dimc, "
        "sizes 32-1024: the mapper search is nearly all the time"),
    "peak-sweep": (
        "sweep/validate over config variants, sizes 8-4096: no mapper runs, so "
        "components, macro and peak pricing do all the work"),
    "layer-mix": (
        "layer on seeded awkward layers, 16-64 macros, latency/edp, b_i=7, "
        "cache spill, --jobs 2: per-layer fixed cost and the thread pool"),
}
WORKLOADS = tuple(WHY)

# point_tail_ms: the highest percentile with at least ten requests beyond it
# in a run at half this machine's speed (dse-network: one pass of 108).
TAIL_PERCENTILE = {"dse-network": 90, "peak-sweep": 99, "layer-mix": 95}

# Hand-written stage networks, one request per (network, type, size).
DSE_NETWORKS = (
    "r50-conv2", "r50-conv3", "r50-conv4", "r50-conv5",
    "mv2-b1-b2", "mv2-b3-b4", "mv2-b5-b6", "mv2-b7-head",
    "mlperf-tiny-layers",
)
DSE_SIZES = (32, 64, 128, 256, 512, 1024)
BUNDLED = {"mlperf-tiny-layers": (
    "fc-autoencoder", "pw-mobilenetv1", "dw-dscnn", "conv-resnet8")}


def network_layers(name: str) -> list[dict]:
    if name in BUNDLED:
        return [{"name": layer} for layer in BUNDLED[name]]
    return json.loads((NETWORK_DIR / f"{name}.json").read_text())["layers"]


def bench_layer_names() -> list[str]:
    """Every layer of the dse-network pool, in pool order."""
    return [layer["name"] for net in DSE_NETWORKS for layer in network_layers(net)]


_ODD = (8, 32, 128, 512, 2048)
_EVEN = (16, 64, 256, 1024, 4096)

# (name, config document, sizes). Variants with a technology section also
# issue a `validate` request, the only command the technology moves alone.
PEAK_VARIANTS: tuple[tuple[str, dict, tuple[int, ...]], ...] = (
    ("default", {}, _ODD),
    ("default-even", {}, _EVEN),
    ("b4w4", {"macro": {"b_i": 4, "b_w": 4}}, _ODD),
    ("b8w2", {"macro": {"b_w": 2}}, _EVEN),
    ("b8w1", {"macro": {"b_w": 1}}, _ODD),
    ("b16", {"macro": {"b_i": 16, "b_w": 16, "b_o": 16}}, _EVEN),
    ("bcycle1", {"macro": {"b_cycle": 1}}, _ODD),
    ("bcycle4", {"macro": {"b_cycle": 4}}, _EVEN),
    ("bcycle8", {"macro": {"b_cycle": 8}}, _ODD),
    ("m4", {"macro": {"m": 4}}, _EVEN),
    ("m16", {"macro": {"m": 16, "b_w": 4}}, _ODD),
    ("macros8", {"macro": {"n_macros": 8}}, _EVEN),
    ("macros64", {"macro": {"n_macros": 64, "m": 2}}, _ODD),
    ("pipelined", {"macro": {"pipelined": True}}, _EVEN),
    ("adc-full", {"macro": {"adc_resolution_from_full_precision": True}}, _ODD),
    ("sparse", {"macro": {"input_toggle_rate": 0.25, "weight_sparsity": 0.5}}, _EVEN),
    ("vdd0.8", {"technology": {"v_dd": 0.8}}, _ODD),
    ("vdd1.0", {"technology": {"v_dd": 1.0}}, _EVEN),
    ("adc-fit", {"technology": {"k1": 80e-15, "k4": 500e-12, "k5": 0.04}}, _ODD),
    ("cell", {"technology": {"sram_cell_area": 0.9, "sram_cell_write_energy": 8e-15}}, _EVEN),
    ("cache1m", {"cache": {"capacity_bits": 8388608, "read_energy": 5e-14}}, _ODD),
    ("cache64k", {"cache": {"capacity_bits": 524288, "area": 1.5e5}}, _EVEN),
    ("dram", {"dram_energy_per_bit": 1.2e-11}, _ODD),
    ("mixed", {"technology": {"v_dd": 0.85, "a_gate": 0.5},
               "macro": {"b_i": 6, "b_w": 4, "b_cycle": 2, "m": 2, "pipelined": True},
               "cache": {"write_energy": 4e-14}}, _EVEN),
)

# layer-mix: prime or awkward loop bounds, so each layer has few candidates.
# Every pass has the same mix of macro types, sizes, objectives, layer kinds
# and candidate-count bands; the seed draws the layers within them.
MIX_REQUESTS = 48
MIX_TYPES = ("aimc", "dimc", "both")
MIX_SIZE_SETS = ((16,), (32,), (64,), (16, 64))
MIX_OBJECTIVES = ("latency", "edp")
MIX_LAYER_COUNTS = (2, 3)
MIX_JOBS = 2  # nproc of the machine the benchmark was built on
MIX_KINDS = ("conv", "fc", "conv", "dw", "conv", "spill-in", "conv", "spill-out")
MIX_BANDS = ((2, 6), (7, 15), (16, 30))  # candidates per layer, per conv slot
MIX_CANDIDATES = (2, 30)  # every other slot
MIX_B_I7_EVERY = 4  # conv slots: so every seed warns, whatever its random draws
_AWKWARD = (1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 21, 23, 25, 27, 29, 31)
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SPILL_SIDE = (157, 163, 167, 173, 179)  # 13 * side^2 * 7 bits > the 2 Mbit default cache


def _divisors(n: int, limit: int) -> list[int]:
    return [d for d in range(1, min(n, limit) + 1) if n % d == 0]


def candidate_count(layer: dict, size: int) -> int:
    """Divisor-only unrollings of a layer that fit a size x size array."""
    get = layer.get
    rows = sum(1 for c in _divisors(get("c", 1), size) for fx in _divisors(get("fx", 1), size)
               for fy in _divisors(get("fy", 1), size) if c * fx * fy <= size)
    cols = sum(1 for k in _divisors(get("k", 1), size) for ox in _divisors(get("ox", 1), size)
               if k * ox <= size)
    return rows * cols


def _mix_layer(rng: random.Random, kind: str) -> dict:
    pick = rng.choice
    if kind == "conv":
        kernel = pick((1, 3, 5, 7))
        layer = {"k": pick(_AWKWARD), "c": pick(_AWKWARD), "ox": pick(_AWKWARD),
                 "oy": pick(_AWKWARD), "fx": kernel, "fy": kernel}
        if rng.random() < 0.5:
            layer["sx"] = layer["sy"] = 2
    elif kind == "fc":
        layer = {"k": pick(_PRIMES) * pick((1, 2, 3)), "c": pick(_PRIMES) * pick((1, 2, 5))}
    elif kind == "dw":
        layer = {"g": pick(_AWKWARD), "ox": pick(_AWKWARD), "oy": pick(_AWKWARD),
                 "fx": 3, "fy": 3}
    elif kind == "spill-in":
        side = pick(_SPILL_SIDE)
        layer = {"k": pick((2, 3, 5)), "c": pick((13, 17, 19)), "ox": side, "oy": side}
    else:  # spill-out
        side = pick(_SPILL_SIDE)
        layer = {"k": pick((13, 17, 19)), "c": pick((3, 5, 7)), "ox": side, "oy": side}
    # 7 is not a multiple of the AIMC b_cycle of 2; spill layers keep >= 7 bits
    b_i = pick((None, 7) if kind.startswith("spill") else (None, None, 4, 6, 7, 7))
    if b_i is not None:
        layer["b_i"] = b_i
    b_w = pick((None, None, 2, 4))
    if b_w is not None:
        layer["b_w"] = b_w
    return layer


def mix_requests(seed: int) -> list[dict]:
    """The seeded layer-mix request set, one workload file per request."""
    rng = random.Random(seed)
    requests = []
    slot = conv_slot = 0
    for index in range(MIX_REQUESTS):
        imc_type = MIX_TYPES[index % len(MIX_TYPES)]
        sizes = MIX_SIZE_SETS[index % len(MIX_SIZE_SETS)]
        layers = []
        for position in range(MIX_LAYER_COUNTS[index // 2 % len(MIX_LAYER_COUNTS)]):
            kind = MIX_KINDS[slot % len(MIX_KINDS)]
            slot += 1
            low, high = MIX_CANDIDATES
            if kind == "conv":
                low, high = MIX_BANDS[conv_slot % len(MIX_BANDS)]
            while True:
                layer = _mix_layer(rng, kind)
                counts = [candidate_count(layer, size) for size in sizes]
                if low <= min(counts) and max(counts) <= high:
                    break
            if kind == "conv":
                if conv_slot % MIX_B_I7_EVERY == 0:
                    layer["b_i"] = 7
                conv_slot += 1
            layers.append({"name": f"{kind}-{position}", **layer})
        name = f"mix-{index:02d}"
        requests.append({
            "id": name,
            "argv": ["layer", "--workload", f"{name}.json", "--type", imc_type,
                     "--sizes", ",".join(map(str, sizes)),
                     "--objective", MIX_OBJECTIVES[index % len(MIX_OBJECTIVES)],
                     "--jobs", str(MIX_JOBS)],
            "jobs": MIX_JOBS,
            "evals": len(layers) * len(sizes) * (2 if imc_type == "both" else 1),
            "files": {f"{name}.json": {"name": name, "layers": layers}},
        })
    return requests


def dse_requests() -> list[dict]:
    requests = []
    for net in DSE_NETWORKS:
        workload = net if net in BUNDLED else f"{net}.json"
        files = {} if net in BUNDLED else {
            workload: json.loads((NETWORK_DIR / workload).read_text())}
        for imc_type in ("aimc", "dimc"):
            for size in DSE_SIZES:
                requests.append({
                    "id": f"{net}|{imc_type}|{size}",
                    "argv": ["network", "--workload", workload, "--type", imc_type,
                             "--sizes", str(size), "--objective", "energy", "--jobs", "1"],
                    "jobs": 1,
                    "evals": len(network_layers(net)),
                    "files": files,
                })
    return requests


def peak_requests() -> list[dict]:
    requests = []
    for name, doc, sizes in PEAK_VARIANTS:
        config = f"config-{name}.json"
        files = {config: doc}
        requests.append({
            "id": f"sweep|{name}",
            "argv": ["sweep", "--config", config, "--sizes", ",".join(map(str, sizes))],
            "jobs": 1,
            "evals": 2 * len(sizes),
            "files": files,
        })
        if "technology" in doc:
            requests.append({
                "id": f"validate|{name}",
                "argv": ["validate", "--config", config],
                "jobs": 1,
                "evals": 7,
                "files": files,
            })
    return requests


def requests_for(workload: str, seed: int) -> list[dict]:
    """The requests of one pass: {"id", "argv", "jobs", "evals", "files"}.

    File names in argv are relative to the run directory; "jobs" is the
    request's --jobs and "evals" its evaluation count.
    """
    if workload == "dse-network":
        return dse_requests()
    if workload == "peak-sweep":
        return peak_requests()
    if workload == "layer-mix":
        return mix_requests(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def seed_independent(workload: str) -> bool:
    return workload != "layer-mix"


def write_files(requests: list[dict], run_dir: Path) -> None:
    """Write every workload and config file the requests name into run_dir."""
    for request in requests:
        for name, doc in request["files"].items():
            (run_dir / name).write_text(json.dumps(doc, indent=1))
