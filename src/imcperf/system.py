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
from functools import reduce
from operator import add
from typing import Any, Callable, Iterable

from .components import TechnologyParams, _check_amount, _check_count, _store_floats
from .macro import (
    BREAKDOWN_COMPONENTS,
    ImcMacroConfig,
    _CycleEnergies,
    _pricing,
    layer_precisions,
    macro_metrics,
    # Unused here; imcbench's tracer wraps both under this module's name.
    per_cycle_energy,  # noqa: F401
    resolve_layer_precisions,  # noqa: F401
)
from . import mapper
from .mapper import MappingResult
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
    "best_mapping",
    "OBJECTIVES",
    "layer_system_metrics",
    "network_system_metrics",
    "geomean_efficiency",
]

ENERGY_BREAKDOWN_KEYS: tuple[str, ...] = BREAKDOWN_COMPONENTS + ("cache", "dram", "weight_load")
OBJECTIVES = ("energy", "latency", "edp")


def _total(values: Iterable[float]) -> float:
    """The floats added left to right from 0, so every Python prints the same
    digits: from 3.12 sum() compensates."""
    return reduce(add, values, 0)


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
        _store_floats(self, "read_energy", "write_energy", "area")


def default_cache(macro: ImcMacroConfig, **fields: Any) -> MemoryLevel:
    """256 KB activation cache with bandwidth fitted to the macro dimensions.

    Each MemoryLevel field given in fields replaces its default, and the level
    is built and checked once. The 0.03 pJ/bit access energy and 0.5 mm^2 area
    are placeholder calibration values; fit them to a memory compiler before
    trusting absolute numbers.
    """
    return MemoryLevel(**{
        "name": "cache",
        "capacity_bits": 256 * 1024 * 8,
        "read_energy": 0.03e-12,
        "write_energy": 0.03e-12,
        "area": 0.5e6,
        "bandwidth_bits_per_cycle": macro.d_i * macro.b_cycle + macro.d_o * macro.b_o,
        **fields,
    })


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
        _store_floats(self, "dram_energy_per_bit")


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


def _system_metrics(ops: float, energy: float, latency: float, area: float,
                    energy_breakdown: dict[str, float], delay_breakdown: dict[str, float],
                    area_breakdown: dict[str, float],
                    warnings: tuple[str, ...]) -> SystemMetrics:
    """The metrics of ops operations that take energy and latency on area um^2."""
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
        "delay_breakdown": delay_breakdown,
        "area_breakdown": area_breakdown,
        "warnings": warnings,
    })
    return metrics


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
    energy = _total(energy_breakdown.values())

    latency = mm.clock_period * mm.cycles_per_mvm
    area = mm.area + system.cache.area
    area_breakdown = {name: mm.breakdown[name].area for name in BREAKDOWN_COMPONENTS}
    area_breakdown["cache"] = system.cache.area

    ops = 2.0 * macro.d_i * macro.d_o * macro.n_macros
    return _in_range(_system_metrics(
        ops, energy, latency, area, energy_breakdown,
        {"compute": latency, "weight_load_stall": 0.0}, area_breakdown, ()), "system at peak")


def _input_spill(bits: int, capacity: int) -> str:
    return (f"input activations ({bits} bits) exceed the cache capacity "
            f"({capacity} bits); inputs stream from DRAM per access")


def _output_spill(bits: int, capacity: int) -> str:
    return (f"output activations ({bits} bits) exceed the cache capacity "
            f"({capacity} bits); outputs spill to DRAM")


# The last layer pricing built, as (system, layer, cfg, price, cycle_energies):
# the layer's single macro, the price of a mapping result on it, and the
# energy by component of its active rows and columns. A mapper search prices
# every candidate of one layer on one system in turn. The entry holds both
# frozen objects, so neither can be freed and its id reused while the entry
# lives; equal but distinct objects rebuild. The tuple is read once and
# replaced whole, so a reader never sees a price paired with the wrong key.
_PriceEntry = tuple[SystemConfig, Layer, ImcMacroConfig,
                    Callable[[MappingResult], SystemMetrics], _CycleEnergies]
_price_entry: _PriceEntry | None = None


def _layer_pricing(system: SystemConfig, layer: Layer) -> _PriceEntry:
    """The pricing entry of the layer on one macro of the system.

    What does not depend on the mapping is computed here, once per (system,
    layer); evaluate_layer_mapping calls the entry's price per result.
    """
    global _price_entry
    entry = _price_entry
    if entry is not None and entry[0] is system and entry[1] is layer:
        return entry
    b_i, b_w, b_o, b_cycle = layer_precisions(system.macro, layer.b_i, layer.b_w, layer.b_o)
    cfg = entry[2] if entry is not None and entry[0] is system else None
    if cfg is None or (cfg.b_i, cfg.b_w, cfg.b_o, cfg.b_cycle) != (b_i, b_w, b_o, b_cycle):
        # One replace, so a b_cycle that does not divide b_i warns once per run
        # of layers at the same precisions. Keeping the last layer's macro
        # otherwise lets _pricing reuse its prices.
        cfg = replace(system.macro, n_macros=1, b_i=b_i, b_w=b_w, b_o=b_o, b_cycle=b_cycle)
    params = system.params
    cache = system.cache
    mm = macro_metrics(params, cfg)
    area_breakdown = {name: mm.breakdown[name].area for name in BREAKDOWN_COMPONENTS}
    area_breakdown["cache"] = cache.area
    cycle_energies = _pricing(params, cfg)[0]  # a memo hit: macro_metrics priced cfg
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

        energy_breakdown = cycle_energies(rows, cols, cycles, result.mvm_invocations)
        energy_breakdown["cache"] = cache_in + cache_out
        energy_breakdown["dram"] = dram_in + dram_out
        energy_breakdown["weight_load"] = (traffic[("W", "dram")] * dram_rate
                                           + weight_macro_bits * cell_write_energy)
        energy = _total(energy_breakdown.values())

        compute_time = cycles * clock
        stall_time = weight_macro_bits / bandwidth * clock
        latency = compute_time + stall_time

        return _system_metrics(
            ops, energy, latency, area, energy_breakdown,
            {"compute": compute_time, "weight_load_stall": stall_time},
            dict(area_breakdown), notes)

    entry = _price_entry = (system, layer, cfg, price, cycle_energies)
    return entry


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
    return _layer_pricing(system, layer)[3](result)


# The search prices the first row tuple of the largest row product r*, and the
# first tuple of every other row product only where r* may not win exactly,
# with the column pairs _priced_cols picks. For one (k_u, ox_u) column pair,
# the row tuple (c_u, fx_u, fy_u) acts through its product r alone: its MVMs
# are MVMs(r*) * r* / r, its cycles are cycles_per_mvm times that, and no
# traffic entry depends on r. The tuples of one product therefore price to
# the same floats, and the tie-break takes the first. Latency, cycles * clock
# plus a stall that does not depend on r, is least at r*, and so is the
# utilization tie-break, so a latency search needs nothing more.
#
# In exact arithmetic, a candidate's energy is its MVMs times the macro energy
# of one MVM at (r, cols), plus cache, DRAM and weight-load terms that do not
# depend on r. Of the macro terms, cell_array, adc, combine_tree, accumulator
# and pipeline_register are constants times the cycles, so they fall as r
# grows, and dac, multiplier, adder_tree and input_register do not depend on
# r. So the exact macro energy falls with r, least from the next smaller
# product r2 to r*, and its relative gain there is
#     gain = r* * E1(r2, cols) / (r2 * E1(r*, cols)) - 1
# where E1 is the macro energy of one MVM. Both E1 are sums of terms that are
# affine in cols with non-negative coefficients, so gain is monotone in cols
# and is least at the fewest or the most columns of any column pair.
#
# The floats wobble. Each macro term is at most five roundings from its exact
# value (an int converted to float, a division and three multiplies, at
# most), and _total adds the nine terms left to right, eight roundings more,
# so a candidate's macro energy is within 13u of its exact value, relative
# (u = 2**-53). With E1(r*, cols) inside _MVM_ENERGY_RANGE, no term of any
# candidate overflows (it is at most E1(r*, max cols) times at most 2**94
# cycles, and the macro's own range check keeps its factors finite) or loses
# more than 1e-80 of its value to subnormals. The cache, DRAM and weight-load
# terms are the same floats for every r and _total adds them after the macro
# terms; float addition and multiplication are monotone, so r*'s energy, and
# its energy-delay product, is at most every smaller product's whenever its
# macro energy is. That holds once the exact gain exceeds 26u / (1 - 26u),
# below 3e-15. 1 + gain is computed within 15u of its exact value, relative,
# so a computed gain at or above _GAIN_MARGIN, 1e-12, proves r* wins. Any
# other gain, a NaN included, or an E1(r*, cols) outside the range, prices
# every row product. The column argument above _priced_cols uses the same
# margin.
_GAIN_MARGIN = 1e-12
_MVM_ENERGY_RANGE = (1e-200, 1e200)  # J


def _priced_rows(system: SystemConfig, layer: Layer, objective: str,
                 rows: list[tuple[int, int, int]],
                 cols: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """The row tuples the search prices: the first tuple of the largest row
    product, or, where that product may not win exactly, the first tuple of
    every row product, in the order of rows."""
    firsts: dict[int, tuple[int, int, int]] = {}
    for row in rows:
        firsts.setdefault(row[0] * row[1] * row[2], row)
    top = max(firsts)
    if objective == "latency" or len(firsts) == 1:
        return [firsts[top]]
    below = max(product for product in firsts if product != top)
    _, _, cfg, _, cycle_energies = _layer_pricing(system, layer)
    cycles = cfg.cycles_per_mvm
    low, high = _MVM_ENERGY_RANGE
    col_counts = [k_u * ox_u for k_u, ox_u in cols]
    for count in {min(col_counts), max(col_counts)}:
        top_energy = math.fsum(cycle_energies(top, count, cycles, 1).values())
        below_energy = math.fsum(cycle_energies(below, count, cycles, 1).values())
        if not (low < top_energy < high
                and top * below_energy / (below * top_energy) - 1.0 >= _GAIN_MARGIN):
            return list(firsts.values())
    return [firsts[top]]


# With one row tuple, of product r, the search prices one column pair per
# ox_u, (k*, ox_u) with k* the largest k_u that fits beside ox_u, and every
# k_u of that ox_u only where k* may not win exactly. As k_u divides k and
# ox_u divides ox, a candidate's MVMs are W / (k_u * ox_u), with W the same
# for every column pair, and the weight bits it writes into the macro,
# loads * r * cols * b_w = g * k * C * FX * FY * b_w * ox_u, depend on ox_u
# alone, and so do its weight-load energy and stall. Fix ox_u and let k_u
# grow: the cycles fall and the stall is the same float, so latency cannot
# rise, and utilization rises, so a latency search prices k* alone.
#
# In exact arithmetic, cell_array, dac, input_register and the input reads
# (MVMs * r * b_i bits, at the cache read energy, or at the DRAM rate when the
# inputs spill) fall with the MVMs, phi per MVM. adc, multiplier, adder_tree,
# combine_tree, accumulator and pipeline_register scale with cols * cycles,
# which is the same for every k_u, and the output, DRAM and weight-load terms
# and the spill notes do not depend on k_u. So a candidate's energy is
# phi * MVMs + F, with F the same for every k_u of ox_u, and k*'s relative gain
# is least over the next smaller k_u, k2:
#     gain = phi * (MVMs(k2) - MVMs(k*)) / E(k*)
# where E(k*) is MVMs(k*) times the macro energy of one MVM, affine in cols,
# plus the input reads, the layer's fixed cache and DRAM energy and the
# weight-write energy, omega * ox_u.
#
# The floats wobble, and here the constant terms do too: their cols and
# cycles operands differ between the k_u. Each of a candidate's twelve
# breakdown entries is at most five roundings from its exact value (the cache,
# DRAM and weight-load entries at most three: two products and their sum),
# and _total adds them with eleven roundings more, so a candidate's energy is
# within 16u / (1 - 16u) of its exact value, relative to the whole energy. k*'s
# energy, and with its latency its energy-delay product, is therefore at most
# every smaller k_u's once the exact gain exceeds 32u / (1 - 32u), below
# 4e-15. With E(k*) inside _MVM_ENERGY_RANGE, no term of a candidate of that
# ox_u overflows (its MVMs are at most d_o times k*'s, so each term is at most
# d_o * E(k*) in exact arithmetic), and subnormal rounding, scaled by at most
# 2**94 cycles, moves no energy and no computed gain above _GAIN_MARGIN by
# 1e-80 of its value. The gain below is computed within 22u of its exact value,
# relative, so a computed gain at or above _GAIN_MARGIN, 1e-12, proves k* wins.
# Any other gain, a NaN included, or an E(k*) outside the range, prices every
# k_u of that ox_u.
def _priced_cols(system: SystemConfig, layer: Layer, objective: str,
                 row: tuple[int, int, int],
                 cols: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The column pairs the search prices with the one row tuple: the pair of
    the largest k_u of each ox_u, or, where that pair may not win exactly,
    every pair of that ox_u, in the order of cols."""
    top: dict[int, int] = {}
    below: dict[int, int] = {}
    for k_u, ox_u in cols:  # k_u ascends
        if ox_u in top:
            below[ox_u] = top[ox_u]
        top[ox_u] = k_u
    full: set[int] = set()
    if objective != "latency" and below:
        _, _, cfg, _, cycle_energies = _layer_pricing(system, layer)
        r = row[0] * row[1] * row[2]
        b_i, b_w, b_o = cfg.b_i, cfg.b_w, cfg.b_o
        cache = system.cache
        dram_rate = system.dram_energy_per_bit
        input_bits = layer.input_elements * b_i
        output_bits = layer.output_elements * b_o
        input_spills = input_bits > cache.capacity_bits
        # one MVM's energy on no columns, and each column's: every entry is a
        # term that does not depend on cols, or cols times one
        no_cols = cycle_energies(r, 0, cfg.cycles_per_mvm, 1)
        one_col = cycle_energies(r, 1, cfg.cycles_per_mvm, 1)
        per_col = math.fsum(one_col[name] - no_cols[name] for name in one_col)
        phi = math.fsum(no_cols.values()) + r * b_i * (
            dram_rate if input_spills else cache.read_energy)
        fixed = math.fsum((
            output_bits * cache.write_energy,
            0.0 if input_spills else input_bits * dram_rate,
            output_bits * dram_rate if output_bits > cache.capacity_bits else 0.0,
            layer.weight_elements * b_w * dram_rate))
        omega = layer.weight_elements * b_w * system.params.sram_cell_write_energy
        work = layer.weight_elements // r * layer.ox * layer.b * layer.oy
        low, high = _MVM_ENERGY_RANGE
        for ox_u, k2 in below.items():
            k_top = top[ox_u]
            mvms = work // (k_top * ox_u)
            energy = mvms * (phi + per_col * (k_top * ox_u)) + fixed + omega * ox_u
            if not (low < energy < high and
                    phi * (work // (k2 * ox_u) - mvms) / energy >= _GAIN_MARGIN):
                full.add(ox_u)
    return [(k_u, ox_u) for k_u, ox_u in cols if k_u == top[ox_u] or ox_u in full]


def best_mapping(layer: Layer, system: SystemConfig,
                 objective: str = "energy") -> MappingResult:
    """The mapping minimizing the system-level objective.

    Ties break toward higher spatial utilization, then the lexicographically
    smallest factor tuple, so results do not depend on evaluation order. The
    search prices the largest row product only, and with it the largest k_u
    of each ox_u only, unless the energy that either saves is within float
    rounding: the MVMs depend on the rows and on k_u * ox_u alone, and the
    weight writes and their stall on ox_u alone, so the winner is the one an
    exhaustive search finds.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    best: tuple | None = None
    best_value = 0.0
    best_result: MappingResult | None = None
    cfg = system.macro
    rows, cols = mapper.mapping_space(layer, cfg)
    rows = _priced_rows(system, layer, objective, rows, cols)
    if len(rows) == 1:
        cols = _priced_cols(system, layer, objective, rows[0], cols)
    space = (rows, cols)
    for result in mapper._results(layer, cfg, mapper.enumerate_mappings(layer, cfg, space)):
        metrics = evaluate_layer_mapping(system, layer, result)
        if objective == "energy":
            value = metrics.energy
        elif objective == "latency":
            value = metrics.latency
        else:
            value = metrics.energy * metrics.latency
        # A key below best needs value <= best_value (a NaN on either side
        # compares false both ways), so the tuple is built only for contenders.
        if best is None or value <= best_value:
            key = (value, -result.spatial_utilization, result.mapping.factors())
            if best is None or key < best:
                best = key
                best_value = value
                best_result = result
    assert best_result is not None  # a space has a column pair and a row tuple
    return best_result


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

    summary = _in_range(_system_metrics(
        2.0 * macs, energy, latency, area, energy_breakdown, delay_breakdown,
        area_breakdown, tuple(notes)), "network")
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
        out[name] = math.exp(_total(math.log(v) for v in values) / len(values))
    return out
