"""Independent reference implementations the tests compare the package against.

Everything here is deliberately brute force: the tree oracle builds the adder
tree level by level, the mapping oracle enumerates every single MAC's loop
indices and counts events with np.unique, the mapping-result oracle derives a
mapping's counts from the loop bounds alone, the layer-metrics oracle prices
every component from scratch for each mapping, and the search oracle prices
every candidate and takes the least key. Slow and obviously correct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from imcperf import (
    ImcMacroConfig,
    ImcType,
    Layer,
    MappingResult,
    SpatialMapping,
    SystemConfig,
    SystemMetrics,
    TechnologyParams,
    accumulator_cost,
    adc_area,
    adc_delay,
    adc_energy,
    adc_resolution,
    adder_tree_cost,
    ceil_log2,
    cell_array_energy,
    dac_energy,
    enumerate_mappings,
    evaluate_layer_mapping,
    evaluate_mapping,
    multiplier_cost,
    register_cost,
    sram_array_area,
    total_macs,
)
from imcperf.mapper import TRAFFIC_KEYS


def ripple_tree(params: TechnologyParams, fan_in: int, b_in: int) -> tuple[int, float]:
    """FA count and critical-path delay of an explicitly constructed tree.

    Operands are paired level by level; each pair of w-bit operands needs one
    w-bit ripple-carry adder and produces a (w+1)-bit result.
    """
    width, count, n_fa, depth = b_in, fan_in, 0, 0
    while count > 1:
        n_fa += (count // 2) * width
        count //= 2
        width += 1
        depth += 1
    delay = params.fa_sum_delay * depth + params.fa_carry_delay * width
    return n_fa, delay


def _unique_rows(*columns: np.ndarray) -> int:
    # mixed-radix encoding of each tuple into one integer; 1-D unique is far
    # faster than np.unique(axis=0) and the key space stays far below 2**63
    code = np.zeros_like(columns[0], dtype=np.int64)
    for column in columns:
        code = code * int(column.max() + 1) + column
    return np.unique(code).size


@dataclass
class SimCounts:
    mvms: int
    loads: int
    macs: int
    weight_macro_bits: int
    weight_dram_bits: int
    input_cache_bits: int
    output_cache_bits: int


def simulate_mapping(layer: Layer, mapping: SpatialMapping,
                     b_i: int, b_w: int, b_o: int) -> SimCounts:
    """Loop-enumeration simulator: walk every MAC and count distinct events."""
    bounds = (layer.b, layer.g, layer.k, layer.c,
              layer.ox, layer.oy, layer.fx, layer.fy)
    grids = np.meshgrid(*[np.arange(n) for n in bounds], indexing="ij")
    b, g, k, c, ox, oy, fx, fy = (axis.ravel() for axis in grids)

    k_t, k_in = k // mapping.k_u, k % mapping.k_u
    ox_t, ox_in = ox // mapping.ox_u, ox % mapping.ox_u
    c_t, c_in = c // mapping.c_u, c % mapping.c_u
    fx_t, fx_in = fx // mapping.fx_u, fx % mapping.fx_u
    fy_t, fy_in = fy // mapping.fy_u, fy % mapping.fy_u

    # one MVM invocation per distinct setting of the temporal loops
    mvm_cols = (b, g, k_t, c_t, ox_t, oy, fx_t, fy_t)
    tile_cols = (g, k_t, c_t, fx_t, fy_t)
    row = (c_in * mapping.fx_u + fx_in) * mapping.fy_u + fy_in
    col = k_in * mapping.ox_u + ox_in

    mvms = _unique_rows(*mvm_cols)
    loads = _unique_rows(*tile_cols)
    macs = _unique_rows(*mvm_cols, row, col)
    # weights written once per tile load per occupied (row, col) cell
    written = _unique_rows(*tile_cols, row, col)
    distinct_weights = _unique_rows(g, k, c, fx, fy)
    # every MVM reads its row-tile of inputs once, multicast across columns
    input_reads = _unique_rows(*mvm_cols, row)
    outputs = _unique_rows(b, g, k, ox, oy)
    return SimCounts(
        mvms=mvms,
        loads=loads,
        macs=macs,
        weight_macro_bits=written * b_w,
        weight_dram_bits=distinct_weights * b_w,
        input_cache_bits=input_reads * b_i,
        output_cache_bits=outputs * b_o,
    )


def mapping_result_oracle(layer: Layer, cfg: ImcMacroConfig,
                          mapping: SpatialMapping) -> MappingResult:
    """One mapping's result straight from the loop bounds, sharing nothing between calls.

    Every tile count, cycle count and traffic entry is derived from the layer,
    the macro and the mapping alone, so a stale per-layer cache in the package
    shows as a mismatch.
    """
    b_i = cfg.b_i if layer.b_i is None else layer.b_i
    b_w = cfg.b_w if layer.b_w is None else layer.b_w
    b_o = cfg.b_o if layer.b_o is None else layer.b_o
    b_cycle = min(cfg.b_cycle, b_i)
    k_t, ox_t = layer.k // mapping.k_u, layer.ox // mapping.ox_u
    c_t, fx_t, fy_t = layer.c // mapping.c_u, layer.fx // mapping.fx_u, layer.fy // mapping.fy_u
    rows = mapping.c_u * mapping.fx_u * mapping.fy_u
    cols = mapping.k_u * mapping.ox_u
    loads = layer.g * k_t * c_t * fx_t * fy_t
    mvms = layer.b * layer.oy * ox_t * loads
    ix = (layer.ox - 1) * layer.sx + layer.fx
    iy = (layer.oy - 1) * layer.sy + layer.fy
    traffic = dict.fromkeys(TRAFFIC_KEYS, 0)
    traffic[("W", "dram")] = layer.g * layer.k * layer.c * layer.fx * layer.fy * b_w
    traffic[("W", "macro")] = loads * rows * cols * b_w
    traffic[("I", "dram")] = layer.b * layer.g * layer.c * ix * iy * b_i
    traffic[("I", "cache")] = mvms * rows * b_i
    traffic[("O", "cache")] = layer.b * layer.g * layer.k * layer.ox * layer.oy * b_o
    return MappingResult(
        mapping=mapping,
        spatial_utilization=rows * cols / (cfg.d_i * cfg.d_o),
        mvm_invocations=mvms,
        total_cycles=mvms * ((b_i + b_cycle - 1) // b_cycle),
        weight_tile_loads=loads,
        traffic=traffic,
        in_unroll_ratio=rows / (layer.c * layer.fx * layer.fy),
        out_unroll_ratio=cols / min(cfg.d_o, layer.k * layer.ox),
    )


def exhaustive_best_mapping(layer: Layer, system: SystemConfig,
                            objective: str) -> tuple[MappingResult, SystemMetrics]:
    """The search's answer by brute force: price every candidate, take the least key.

    The key is the objective, then higher spatial utilization, then the
    smallest factor tuple; every candidate's key is distinct, so the minimum
    does not depend on the order of the candidates.
    """
    priced = []
    for mapping in enumerate_mappings(layer, system.macro):
        result = evaluate_mapping(layer, system.macro, mapping)
        metrics = evaluate_layer_mapping(system, layer, result)
        value = {"energy": metrics.energy, "latency": metrics.latency,
                 "edp": metrics.energy * metrics.latency}[objective]
        key = (value, -result.spatial_utilization,
               (mapping.k_u, mapping.ox_u, mapping.c_u, mapping.fx_u, mapping.fy_u))
        priced.append((key, result, metrics))
    _, result, metrics = min(priced, key=lambda entry: entry[0])
    return result, metrics


def random_oracle_cases(n_cases: int, seed: int, max_bound: int = 8,
                        max_dim: int = 16, max_points: int = 200_000):
    """Random (layer, d_i, d_o, mapping) tuples for the mapping oracle."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < n_cases:
        bounds = {name: rng.randint(1, max_bound)
                  for name in ("b", "g", "k", "c", "ox", "oy", "fx", "fy")}
        product = 1
        for value in bounds.values():
            product *= value
        if product > max_points:
            continue
        layer = Layer(**bounds, sx=rng.randint(1, 2), sy=rng.randint(1, 2))
        d_i = rng.choice((2, 4, 8, 16))
        d_o = rng.choice((2, 4, 8, 16))

        def pick(bound: int, cap: int) -> int:
            choices = [d for d in range(1, bound + 1) if bound % d == 0 and d <= cap]
            return rng.choice(choices)

        k_u = pick(bounds["k"], d_o)
        ox_u = pick(bounds["ox"], d_o // k_u)
        c_u = pick(bounds["c"], d_i)
        fx_u = pick(bounds["fx"], d_i // c_u)
        fy_u = pick(bounds["fy"], d_i // (c_u * fx_u))
        mapping = SpatialMapping(k_u=k_u, ox_u=ox_u, c_u=c_u, fx_u=fx_u, fy_u=fy_u)
        cases.append((layer, d_i, d_o, mapping))
    return cases


_MACRO_COMPONENTS = ("cell_array", "dac", "adc", "multiplier", "adder_tree",
                     "combine_tree", "accumulator", "input_register", "pipeline_register")


def layer_metrics_oracle(system: SystemConfig, layer: Layer,
                         result: MappingResult) -> SystemMetrics:
    """System metrics of one mapping, straight from the component functions.

    Nothing is shared with the package's pricing or carried between calls: each
    call resolves the layer's precisions, prices every component of one macro
    and the mapping's active rows and columns, and then the cache, DRAM and
    weight traffic. Float operations run in the model's documented order, so
    the result must equal the package's exactly.
    """
    macro, params, cache = system.macro, system.params, system.cache
    b_i = macro.b_i if layer.b_i is None else layer.b_i
    b_w = macro.b_w if layer.b_w is None else layer.b_w
    b_cycle = min(macro.b_cycle, b_i)
    d_i, d_o = macro.d_i, macro.d_o
    alpha = macro.input_toggle_rate * (1.0 - macro.weight_sparsity)
    rows, cols = result.mapping.rows, result.mapping.cols

    # per cycle with rows x cols active; clock-path delay; area of one macro
    energy = dict.fromkeys(_MACRO_COMPONENTS, 0.0)
    delay = dict.fromkeys(_MACRO_COMPONENTS, 0.0)
    area = dict.fromkeys(_MACRO_COMPONENTS, 0.0)
    area["cell_array"] = sram_array_area(params, d_i * d_o * b_w * macro.m)
    area["input_register"] = register_cost(params, d_i * b_i).area
    if macro.imc_type is ImcType.AIMC:
        res = adc_resolution(
            params, b_i if macro.adc_resolution_from_full_precision else b_cycle, d_i)
        b_adds_out = res + ceil_log2(b_w)
        combine = adder_tree_cost(params, b_w, res, alpha)
        energy["cell_array"] = cell_array_energy(params, b_w, d_i, d_o, alpha)
        energy["dac"] = rows * dac_energy(params, b_cycle)
        energy["adc"] = cols * b_w * adc_energy(params, res)
        delay["adc"] = adc_delay(params, res, d_i)
        area["adc"] = d_o * b_w * adc_area(params, res)
        pipeline_bits = res * b_w
    else:
        tree_out = b_w + ceil_log2(d_i)
        b_adds_out = tree_out + ceil_log2(b_cycle)
        mult = multiplier_cost(params)
        tree = adder_tree_cost(params, d_i, b_w, alpha)
        combine = adder_tree_cost(params, b_cycle, tree_out, alpha)
        energy["multiplier"] = rows * cols * b_w * b_cycle * mult.energy * alpha
        delay["multiplier"] = mult.delay
        area["multiplier"] = d_i * d_o * b_w * b_cycle * mult.area
        energy["adder_tree"] = cols * b_cycle * tree.energy * (rows / d_i)
        delay["adder_tree"] = tree.delay
        area["adder_tree"] = d_o * b_cycle * tree.area
        pipeline_bits = b_w * d_i
    energy["combine_tree"] = cols * combine.energy
    delay["combine_tree"] = combine.delay
    area["combine_tree"] = d_o * combine.area
    acc = accumulator_cost(params, b_adds_out + (b_i - b_cycle), b_adds_out)
    energy["accumulator"] = cols * acc.energy
    delay["accumulator"] = acc.delay
    area["accumulator"] = d_o * acc.area
    if macro.pipelined:
        energy["pipeline_register"] = cols * pipeline_bits * params.dff_energy
        area["pipeline_register"] = register_cost(params, d_o * pipeline_bits).area

    total_delay = sum(delay.values())
    front = delay["adc"] + delay["multiplier"]
    clock = max(front, total_delay - front) if macro.pipelined else total_delay

    traffic = result.traffic
    notes = []
    if traffic[("I", "dram")] > cache.capacity_bits:
        notes.append(
            f"input activations ({traffic[('I', 'dram')]} bits) exceed the cache capacity "
            f"({cache.capacity_bits} bits); inputs stream from DRAM per access")
        dram_in = traffic[("I", "cache")] * system.dram_energy_per_bit
        cache_in = 0.0
    else:
        dram_in = traffic[("I", "dram")] * system.dram_energy_per_bit
        cache_in = traffic[("I", "cache")] * cache.read_energy
    output_bits = traffic[("O", "cache")]
    dram_out = 0.0
    if output_bits > cache.capacity_bits:
        notes.append(
            f"output activations ({output_bits} bits) exceed the cache capacity "
            f"({cache.capacity_bits} bits); outputs spill to DRAM")
        dram_out = output_bits * system.dram_energy_per_bit

    energy_breakdown = {name: e * result.total_cycles for name, e in energy.items()}
    energy_breakdown["input_register"] += (register_cost(params, rows * b_i).energy
                                           * result.mvm_invocations)
    energy_breakdown["cache"] = cache_in + output_bits * cache.write_energy
    energy_breakdown["dram"] = dram_in + dram_out
    energy_breakdown["weight_load"] = (traffic[("W", "dram")] * system.dram_energy_per_bit
                                       + traffic[("W", "macro")] * params.sram_cell_write_energy)
    total_energy = sum(energy_breakdown.values())

    compute_time = result.total_cycles * clock
    stall_time = traffic[("W", "macro")] / cache.bandwidth_bits_per_cycle * clock
    latency = compute_time + stall_time
    area_breakdown = dict(area)
    area_breakdown["cache"] = cache.area
    total_area = sum(area.values()) + cache.area
    ops = 2.0 * total_macs(layer)
    return SystemMetrics(
        tops=ops / latency,
        tops_per_w=ops / total_energy,
        tops_per_mm2=ops / latency / (total_area * 1e-6),
        energy=total_energy,
        latency=latency,
        area=total_area,
        energy_breakdown=energy_breakdown,
        delay_breakdown={"compute": compute_time, "weight_load_stall": stall_time},
        area_breakdown=area_breakdown,
        warnings=tuple(notes),
    )
