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
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

from .components import TechnologyParams, register_cost
from .macro import (
    BREAKDOWN_COMPONENTS,
    ImcMacroConfig,
    MacroMetrics,
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
        if not isinstance(self.capacity_bits, int) or self.capacity_bits < 1:
            raise ValueError(f"capacity_bits must be an integer >= 1, got {self.capacity_bits!r}")
        if not isinstance(self.bandwidth_bits_per_cycle, int) or self.bandwidth_bits_per_cycle < 1:
            raise ValueError(
                f"bandwidth_bits_per_cycle must be an integer >= 1, "
                f"got {self.bandwidth_bits_per_cycle!r}")
        for name in ("read_energy", "write_energy", "area"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


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
        if not math.isfinite(self.dram_energy_per_bit) or self.dram_energy_per_bit < 0:
            raise ValueError(
                f"dram_energy_per_bit must be finite and non-negative, "
                f"got {self.dram_energy_per_bit!r}")


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
    return SystemMetrics(
        tops=mm.tops,
        tops_per_w=ops / energy,
        tops_per_mm2=mm.tops / (area * 1e-6),
        energy=energy,
        latency=latency,
        area=area,
        energy_breakdown=energy_breakdown,
        delay_breakdown={"compute": latency, "weight_load_stall": 0.0},
        area_breakdown=area_breakdown,
    )


@dataclass(frozen=True)
class _LayerPricing:
    """What pricing one layer on one system costs before any mapping is chosen."""

    cfg: ImcMacroConfig  # one macro, with the layer's precisions
    metrics: MacroMetrics
    area_breakdown: dict[str, float]
    register_energy_per_bit: float
    cycle_energies: Callable[[int, int], dict[str, float]]
    ops: float


_pricing_memo = threading.local()


def _layer_pricing(system: SystemConfig, layer: Layer) -> _LayerPricing:
    """The layer's candidate-invariant costs, built once per (system, layer).

    A mapper search prices every candidate of one layer on one system in turn,
    so each thread keeps the last pricing it built, keyed on the identity of
    the two frozen objects. The entry holds both, so neither can be freed and
    its id reused while the entry lives; equal but distinct objects rebuild.
    """
    entry = getattr(_pricing_memo, "entry", None)
    if entry is not None and entry[0] is system and entry[1] is layer:
        return entry[2]
    b_i, b_w, b_o, b_cycle = layer_precisions(system.macro, layer.b_i, layer.b_w, layer.b_o)
    # One replace, so a b_cycle that does not divide b_i warns once per layer.
    cfg = replace(system.macro, n_macros=1, b_i=b_i, b_w=b_w, b_o=b_o, b_cycle=b_cycle)
    params = system.params
    mm = macro_metrics(params, cfg)
    area_breakdown = {name: mm.breakdown[name].area for name in BREAKDOWN_COMPONENTS}
    area_breakdown["cache"] = system.cache.area
    pricing = _LayerPricing(
        cfg=cfg,
        metrics=mm,
        area_breakdown=area_breakdown,
        # register energy is linear in the bits written
        register_energy_per_bit=register_cost(params, 1).energy,
        cycle_energies=_price_components(params, cfg)[0],
        ops=2.0 * total_macs(layer),
    )
    _pricing_memo.entry = (system, layer, pricing)
    return pricing


def evaluate_layer_mapping(system: SystemConfig, layer: Layer,
                           result: MappingResult) -> SystemMetrics:
    """Price one mapping of one layer on a single macro.

    Idle columns' converters, trees, and accumulators and idle rows' drivers are
    gated off; the analog cell array keeps switching in full. Activations that
    do not fit the cache fall back to per-access DRAM reads (inputs) or an extra
    DRAM write-out (outputs), with a warning recorded. Weight loading stalls
    compute: written bits cross the cache-to-macro port at its bandwidth.
    """
    pricing = _layer_pricing(system, layer)
    cfg = pricing.cfg
    mm = pricing.metrics
    params = system.params

    rows = result.mapping.rows
    cols = result.mapping.cols
    if rows > cfg.d_i or cols > cfg.d_o:
        raise ValueError(f"a {rows} x {cols} mapping does not fit the "
                         f"{cfg.d_i} x {cfg.d_o} macro")
    cycle_energies = pricing.cycle_energies(rows, cols)
    reg_energy = rows * cfg.b_i * pricing.register_energy_per_bit

    notes: list[str] = []
    traffic = result.traffic
    input_bits_from_dram = traffic[("I", "dram")]
    input_cache_reads = traffic[("I", "cache")]
    output_bits = traffic[("O", "cache")]

    if input_bits_from_dram > system.cache.capacity_bits:
        notes.append(
            f"input activations ({input_bits_from_dram} bits) exceed the cache capacity "
            f"({system.cache.capacity_bits} bits); inputs stream from DRAM per access")
        dram_in = input_cache_reads * system.dram_energy_per_bit
        cache_in = 0.0
    else:
        dram_in = input_bits_from_dram * system.dram_energy_per_bit
        cache_in = input_cache_reads * system.cache.read_energy

    cache_out = output_bits * system.cache.write_energy
    dram_out = 0.0
    if output_bits > system.cache.capacity_bits:
        notes.append(
            f"output activations ({output_bits} bits) exceed the cache capacity "
            f"({system.cache.capacity_bits} bits); outputs spill to DRAM")
        dram_out = output_bits * system.dram_energy_per_bit

    weight_load = (traffic[("W", "dram")] * system.dram_energy_per_bit
                   + traffic[("W", "macro")] * params.sram_cell_write_energy)

    energy_breakdown = {name: energy * result.total_cycles
                        for name, energy in cycle_energies.items()}
    energy_breakdown["input_register"] += reg_energy * result.mvm_invocations
    energy_breakdown["cache"] = cache_in + cache_out
    energy_breakdown["dram"] = dram_in + dram_out
    energy_breakdown["weight_load"] = weight_load
    energy = sum(energy_breakdown.values())

    compute_time = result.total_cycles * mm.clock_period
    stall_cycles = traffic[("W", "macro")] / system.cache.bandwidth_bits_per_cycle
    stall_time = stall_cycles * mm.clock_period
    latency = compute_time + stall_time

    area = mm.area + system.cache.area
    ops = pricing.ops
    return SystemMetrics(
        tops=ops / latency,
        tops_per_w=ops / energy,
        tops_per_mm2=ops / latency / (area * 1e-6),
        energy=energy,
        latency=latency,
        area=area,
        energy_breakdown=energy_breakdown,
        delay_breakdown={"compute": compute_time, "weight_load_stall": stall_time},
        area_breakdown=dict(pricing.area_breakdown),
        warnings=tuple(notes),
    )


def layer_system_metrics(system: SystemConfig, layer: Layer,
                         objective: str = "energy") -> tuple[MappingResult, SystemMetrics]:
    """Best mapping for the layer under the objective, and its system metrics."""
    result = best_mapping(layer, system, objective)
    return result, evaluate_layer_mapping(system, layer, result)


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
    summary = SystemMetrics(
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
    )
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
