"""System-level model: macro plus on-chip cache plus DRAM.

Peak metrics assume dense workloads filling the whole array with weights
resident forever: no weight traffic, but every MVM's input and output
activations stream DRAM -> cache -> macro -> cache -> DRAM. Workload metrics
price a concrete layer mapping instead: weights stream from DRAM once per
distinct tile and are written into the array per column copy, activations are
cache-resident (DRAM once per layer) unless they overflow the cache, and idle
rows/columns are energy-gated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from .components import TechnologyParams, _check_amount, _check_count, register_cost
from .macro import (
    BREAKDOWN_COMPONENTS,
    ImcMacroConfig,
    _price_components,
    layer_precisions,
    macro_metrics,
    # Unused here; imcbench's tracer wraps both under this module's name.
    per_cycle_energy,  # noqa: F401
    resolve_layer_precisions,  # noqa: F401
)
from .mapper import MappingResult, best_mapping
from .workload import Layer, LayerKind, Network, classify, total_macs

__all__ = [
    "MemoryLevel",
    "SystemConfig",
    "SystemMetrics",
    "LayerReport",
    "default_cache",
    "default_system_config",
    "peak_system_metrics",
    "evaluate_layer_mapping",
    "layer_system_metrics",
    "network_system_metrics",
    "geomean_efficiency",
]

ENERGY_BREAKDOWN_KEYS: tuple[str, ...] = BREAKDOWN_COMPONENTS + ("cache", "dram", "weight_load")


@dataclass(frozen=True)
class MemoryLevel:
    """One memory level: capacity, per-bit access energies, area, and bandwidth."""

    name: str
    capacity_bits: int
    read_energy: float   # J/bit
    write_energy: float  # J/bit
    area: float          # um^2
    bandwidth_bits_per_cycle: int

    def __post_init__(self) -> None:
        # a list name would leave the level, and every config holding it, unhashable
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        _check_count("capacity_bits", self.capacity_bits)
        _check_count("bandwidth_bits_per_cycle", self.bandwidth_bits_per_cycle)
        _check_amount("read_energy", self.read_energy)
        _check_amount("write_energy", self.write_energy)
        _check_amount("area", self.area)


def default_cache(macro: ImcMacroConfig) -> MemoryLevel:
    """256 KB activation cache with bandwidth fitted to the macro dimensions.

    The 0.03 pJ/bit access energy and 0.5 mm^2 area are placeholder calibration
    values; fit them to a memory compiler before trusting absolute numbers.
    """
    return MemoryLevel(
        name="cache",
        capacity_bits=256 * 1024 * 8,
        read_energy=0.03e-12,
        write_energy=0.03e-12,
        area=0.5e6,
        bandwidth_bits_per_cycle=macro.d_i * macro.b_cycle + macro.d_o * macro.b_o,
    )


@dataclass(frozen=True)
class SystemConfig:
    """A macro, its technology constants, the activation cache, and DRAM pricing."""

    macro: ImcMacroConfig
    params: TechnologyParams
    cache: MemoryLevel
    dram_energy_per_bit: float = 3.7e-12

    def __post_init__(self) -> None:
        needed = self.macro.d_i * self.macro.b_cycle + self.macro.d_o * self.macro.b_o
        if self.cache.bandwidth_bits_per_cycle < needed:
            raise ValueError(
                f"cache bandwidth {self.cache.bandwidth_bits_per_cycle} bits/cycle does not "
                f"fit the macro dimensions (needs >= d_i*b_cycle + d_o*b_o = {needed})")
        _check_amount("dram_energy_per_bit", self.dram_energy_per_bit)


def default_system_config(macro: ImcMacroConfig,
                          params: TechnologyParams | None = None) -> SystemConfig:
    return SystemConfig(
        macro=macro,
        params=params if params is not None else TechnologyParams(),
        cache=default_cache(macro),
    )


@dataclass(frozen=True)
class SystemMetrics:
    """System-scope metrics. Scope of energy/latency depends on the producer:
    one MVM wave for peak metrics, the whole layer or network otherwise.
    """

    tops: float
    tops_per_w: float
    tops_per_mm2: float
    energy: float
    latency: float
    area: float
    energy_breakdown: dict[str, float] = field(repr=False)
    delay_breakdown: dict[str, float] = field(repr=False)
    area_breakdown: dict[str, float] = field(repr=False)
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class LayerReport:
    """Per-layer entry of a network evaluation."""

    layer: Layer
    kind: LayerKind
    repeat: int
    mapping: MappingResult
    metrics: SystemMetrics


def _in_range(metrics: SystemMetrics, scope: str) -> SystemMetrics:
    """metrics, if every headline value is a finite positive float; else a ValueError."""
    for name in ("energy", "latency", "tops", "tops_per_w", "tops_per_mm2", "area"):
        value = getattr(metrics, name)
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} of the {scope} is {value!r}: the technology "
                             "constants or the workload are out of range")
    return metrics


def peak_system_metrics(system: SystemConfig) -> SystemMetrics:
    """Peak metrics with activation streaming through cache and DRAM.

    Per MVM wave each macro reads d_i*b_i input bits (multicast across columns
    is free) and writes d_o*b_o output bits; both cross the cache and DRAM.
    Weights never move. Memory bandwidth fits the array, so throughput equals
    the macro's.
    """
    macro = system.macro
    mm = macro_metrics(system.params, macro)
    bits_in = macro.d_i * macro.b_i * macro.n_macros
    bits_out = macro.d_o * macro.b_o * macro.n_macros

    cache_energy = bits_in * system.cache.read_energy + bits_out * system.cache.write_energy
    dram_energy = (bits_in + bits_out) * system.dram_energy_per_bit

    energy_breakdown = {name: mm.breakdown[name].energy for name in BREAKDOWN_COMPONENTS}
    energy_breakdown["cache"] = cache_energy
    energy_breakdown["dram"] = dram_energy
    energy_breakdown["weight_load"] = 0.0
    energy = sum(energy_breakdown.values())

    latency = mm.clock_period * mm.cycles_per_mvm
    area = mm.area + system.cache.area
    area_breakdown = {name: mm.breakdown[name].area for name in BREAKDOWN_COMPONENTS}
    area_breakdown["cache"] = system.cache.area

    ops = 2.0 * macro.d_i * macro.d_o * macro.n_macros
    return _in_range(SystemMetrics(
        tops=mm.tops,
        tops_per_w=ops / energy,
        tops_per_mm2=mm.tops / (area * 1e-6),
        energy=energy,
        latency=latency,
        area=area,
        energy_breakdown=energy_breakdown,
        delay_breakdown={"compute": latency, "weight_load_stall": 0.0},
        area_breakdown=area_breakdown,
    ), "system at peak")


def _input_spill(bits: int, capacity: int) -> str:
    return (f"input activations ({bits} bits) exceed the cache capacity "
            f"({capacity} bits); inputs stream from DRAM per access")


def _output_spill(bits: int, capacity: int) -> str:
    return (f"output activations ({bits} bits) exceed the cache capacity "
            f"({capacity} bits); outputs spill to DRAM")


# The last price built, as (system, layer, cfg, price). A mapper search prices
# every candidate of one layer on one system in turn. The entry holds both
# frozen objects, so neither can be freed and its id reused while the entry
# lives; equal but distinct objects rebuild. The tuple is read once and
# replaced whole, so a reader never sees a price paired with the wrong key.
_price_entry: tuple[SystemConfig, Layer, ImcMacroConfig,
                    Callable[[MappingResult], SystemMetrics]] | None = None


def _layer_price(system: SystemConfig, layer: Layer) -> Callable[[MappingResult], SystemMetrics]:
    """The price of a mapping result of the layer on one macro of the system.

    What does not depend on the mapping is computed here, once per (system,
    layer); evaluate_layer_mapping calls the returned function per result.
    """
    global _price_entry
    entry = _price_entry
    b_i, b_w, b_o, b_cycle = layer_precisions(system.macro, layer.b_i, layer.b_w, layer.b_o)
    cfg = entry[2] if entry is not None and entry[0] is system else None
    if cfg is None or (cfg.b_i, cfg.b_w, cfg.b_o, cfg.b_cycle) != (b_i, b_w, b_o, b_cycle):
        # One replace, so a b_cycle that does not divide b_i warns once per run
        # of layers at the same precisions. Keeping the last layer's macro
        # otherwise lets macro_metrics and _price_components reuse its prices.
        cfg = replace(system.macro, n_macros=1, b_i=b_i, b_w=b_w, b_o=b_o, b_cycle=b_cycle)
    params = system.params
    cache = system.cache
    mm = macro_metrics(params, cfg)
    area_breakdown = {name: mm.breakdown[name].area for name in BREAKDOWN_COMPONENTS}
    area_breakdown["cache"] = cache.area
    cycle_energies = _price_components(params, cfg)[0]
    # register energy is linear in the bits written
    register_energy_per_bit = register_cost(params, 1).energy
    ops = 2.0 * total_macs(layer)
    area = mm.area + cache.area
    d_i, d_o = cfg.d_i, cfg.d_o
    clock = mm.clock_period
    cache_read_energy, cache_write_energy = cache.read_energy, cache.write_energy
    capacity = cache.capacity_bits
    bandwidth = cache.bandwidth_bits_per_cycle
    dram_rate = system.dram_energy_per_bit
    cell_write_energy = params.sram_cell_write_energy
    # The layer's own activation sizes and their spill warnings, None where the
    # size fits the cache; a result with other traffic gets its text formatted.
    layer_input_bits = layer.input_elements * b_i
    input_spill = (_input_spill(layer_input_bits, capacity)
                   if layer_input_bits > capacity else None)
    layer_output_bits = layer.output_elements * b_o
    output_spill = (_output_spill(layer_output_bits, capacity)
                    if layer_output_bits > capacity else None)

    def price(result: MappingResult) -> SystemMetrics:
        mapping = result.mapping
        rows = mapping.c_u * mapping.fx_u * mapping.fy_u
        cols = mapping.k_u * mapping.ox_u
        if rows > d_i or cols > d_o:
            raise ValueError(f"a {rows} x {cols} mapping does not fit the "
                             f"{d_i} x {d_o} macro")
        cycles = result.total_cycles

        traffic = result.traffic
        input_bits_from_dram = traffic[("I", "dram")]
        input_cache_reads = traffic[("I", "cache")]
        output_bits = traffic[("O", "cache")]
        weight_macro_bits = traffic[("W", "macro")]

        if input_bits_from_dram > capacity:
            notes: tuple[str, ...] = (
                input_spill if input_bits_from_dram == layer_input_bits
                else _input_spill(input_bits_from_dram, capacity),)
            dram_in = input_cache_reads * dram_rate
            cache_in = 0.0
        else:
            notes = ()
            dram_in = input_bits_from_dram * dram_rate
            cache_in = input_cache_reads * cache_read_energy

        cache_out = output_bits * cache_write_energy
        dram_out = 0.0
        if output_bits > capacity:
            notes += (output_spill if output_bits == layer_output_bits
                      else _output_spill(output_bits, capacity),)
            dram_out = output_bits * dram_rate

        energy_breakdown = cycle_energies(
            rows, cols, cycles,
            rows * b_i * register_energy_per_bit * result.mvm_invocations)
        energy_breakdown["cache"] = cache_in + cache_out
        energy_breakdown["dram"] = dram_in + dram_out
        energy_breakdown["weight_load"] = (traffic[("W", "dram")] * dram_rate
                                           + weight_macro_bits * cell_write_energy)
        energy = sum(energy_breakdown.values())

        compute_time = cycles * clock
        stall_time = weight_macro_bits / bandwidth * clock
        latency = compute_time + stall_time

        # The field dict, in field order, becomes the instance's __dict__, as for
        # the search's mappings and results; SystemMetrics has no __post_init__,
        # so its constructor would check nothing.
        metrics = object.__new__(SystemMetrics)
        object.__setattr__(metrics, "__dict__", {
            "tops": ops / latency,
            "tops_per_w": ops / energy,
            "tops_per_mm2": ops / latency / (area * 1e-6),
            "energy": energy,
            "latency": latency,
            "area": area,
            "energy_breakdown": energy_breakdown,
            "delay_breakdown": {"compute": compute_time, "weight_load_stall": stall_time},
            "area_breakdown": dict(area_breakdown),
            "warnings": notes,
        })
        return metrics

    _price_entry = (system, layer, cfg, price)
    return price


def evaluate_layer_mapping(system: SystemConfig, layer: Layer,
                           result: MappingResult) -> SystemMetrics:
    """Price one mapping of one layer on a single macro.

    Idle columns' converters, trees, and accumulators and idle rows' drivers are
    gated off; the analog cell array keeps switching in full. Activations that
    do not fit the cache fall back to per-access DRAM reads (inputs) or an extra
    DRAM write-out (outputs), with a warning recorded. Weight loading stalls
    compute: written bits cross the cache-to-macro port at its bandwidth.
    """
    entry = _price_entry
    if entry is not None and entry[0] is system and entry[1] is layer:
        return entry[3](result)
    return _layer_price(system, layer)(result)


def layer_system_metrics(system: SystemConfig, layer: Layer,
                         objective: str = "energy") -> tuple[MappingResult, SystemMetrics]:
    """Best mapping for the layer under the objective, and its system metrics."""
    result = best_mapping(layer, system, objective)
    return result, _in_range(evaluate_layer_mapping(system, layer, result), "layer")


def network_system_metrics(system: SystemConfig, network: Network,
                           objective: str = "energy"
                           ) -> tuple[SystemMetrics, list[LayerReport]]:
    """Sum per-layer energy and latency over a network; hardware area counts once."""
    reports: list[LayerReport] = []
    energy = 0.0
    latency = 0.0
    macs = 0
    energy_breakdown = dict.fromkeys(ENERGY_BREAKDOWN_KEYS, 0.0)
    delay_breakdown = {"compute": 0.0, "weight_load_stall": 0.0}
    notes: list[str] = []
    area = 0.0
    area_breakdown: dict[str, float] = {}

    for layer, repeat in zip(network.layers, network.repeats):
        result, metrics = layer_system_metrics(system, layer, objective)
        reports.append(LayerReport(
            layer=layer, kind=classify(layer), repeat=repeat,
            mapping=result, metrics=metrics,
        ))
        energy += repeat * metrics.energy
        latency += repeat * metrics.latency
        macs += repeat * total_macs(layer)
        for key, value in metrics.energy_breakdown.items():
            energy_breakdown[key] += repeat * value
        for key, value in metrics.delay_breakdown.items():
            delay_breakdown[key] += repeat * value
        for note in metrics.warnings:
            if note not in notes:
                notes.append(note)
        area = metrics.area
        area_breakdown = metrics.area_breakdown

    ops = 2.0 * macs
    summary = _in_range(SystemMetrics(
        tops=ops / latency,
        tops_per_w=ops / energy,
        tops_per_mm2=ops / latency / (area * 1e-6),
        energy=energy,
        latency=latency,
        area=area,
        energy_breakdown=energy_breakdown,
        delay_breakdown=delay_breakdown,
        area_breakdown=area_breakdown,
        warnings=tuple(notes),
    ), "network")
    return summary, reports


def geomean_efficiency(metrics: list[SystemMetrics]) -> dict[str, float]:
    """Geometric mean of efficiency metrics across several networks."""
    if not metrics:
        raise ValueError("geomean_efficiency needs at least one metrics entry")
    out = {}
    for name in ("tops", "tops_per_w", "tops_per_mm2"):
        values = [getattr(m, name) for m in metrics]
        if any(v <= 0 for v in values):
            raise ValueError(f"{name} values must be positive for a geometric mean")
        out[name] = math.exp(sum(math.log(v) for v in values) / len(values))
    return out
