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
from typing import Any, Callable, Iterable, NamedTuple

from .components import TechnologyParams, _check_amount, _check_count, _store_floats
from .macro import (
    BREAKDOWN_COMPONENTS,
    ImcMacroConfig,
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
    return SystemMetrics(ops / latency, ops / energy, ops / latency / (area * 1e-6),
                         energy, latency, area, energy_breakdown, delay_breakdown,
                         area_breakdown, warnings)


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


class _DesignPoint(NamedTuple):
    """What a layer's pricing takes from its design point, built once per run
    of layers on one system at the same resolved precisions: the layer macro's
    gated energies, clock and cycles per MVM, the area with the cache and its
    breakdown, and the closed form's coefficients A, C and D with B's macro
    part, cpm * dac + input_register, to which a layer adds b_i * rho."""

    precisions: tuple[int, int, int, int]
    cycle_energies: Callable[..., dict[str, float]]
    area: float
    area_breakdown: dict[str, float]
    clock: float
    cycles_per_mvm: int
    a: float
    b_macro: float
    c: float
    d: float


def _design_point(system: SystemConfig, precisions: tuple[int, int, int, int]) -> _DesignPoint:
    """The design point of one macro of the system at the resolved precisions."""
    macro = system.macro
    if macro.n_macros == 1 and (macro.b_i, macro.b_w, macro.b_o, macro.b_cycle) == precisions:
        cfg = macro
    else:
        # One replace per run of layers at the same precisions, so a b_cycle
        # that does not divide b_i warns once per run.
        b_i, b_w, b_o, b_cycle = precisions
        cfg = replace(macro, n_macros=1, b_i=b_i, b_w=b_w, b_o=b_o, b_cycle=b_cycle)
    params = system.params
    cache = system.cache
    mm = macro_metrics(params, cfg)
    area_breakdown = {name: mm.breakdown[name].area for name in BREAKDOWN_COMPONENTS}
    area_breakdown["cache"] = cache.area
    cycle_energies = _pricing(params, cfg)[0]  # a memo hit: macro_metrics priced cfg
    one = cycle_energies(1, 1, 1, 1)
    cpm = cfg.cycles_per_mvm
    return _DesignPoint(
        precisions, cycle_energies, mm.area + cache.area, area_breakdown, mm.clock_period,
        cpm, cpm * one["cell_array"], cpm * one["dac"] + one["input_register"],
        cpm * (one["adc"] + one["combine_tree"] + one["accumulator"]
               + one["pipeline_register"]),
        cpm * (one["multiplier"] + one["adder_tree"]))


# The last layer pricing built, as (system, layer, point, price, form): the
# layer's design point, the price of a mapping result on one macro of the
# system, and the closed form of a candidate's energy and latency that the
# search screens with. A search prices its few candidates and re-prices its
# winner from it, an exhaustive reference prices every candidate of one layer
# on one system in turn, and the next layer on the same system at the same
# precisions keeps the point. The entry holds both frozen objects, so neither
# can be freed and its id reused while the entry lives; equal but distinct
# objects rebuild. The tuple is read once and replaced whole, so a reader never
# sees a price paired with the wrong key.
_Form = Callable[[int, int, int], tuple[float, float]]
_PriceEntry = tuple[SystemConfig, Layer, _DesignPoint,
                    Callable[[MappingResult], SystemMetrics], _Form]
_price_entry: _PriceEntry | None = None


def _layer_pricing(system: SystemConfig, layer: Layer) -> _PriceEntry:
    """The pricing entry of the layer on one macro of the system, memoised."""
    entry = _price_entry
    if entry is not None and entry[0] is system and entry[1] is layer:
        return entry
    return _new_pricing(system, layer, entry)


def _new_pricing(system: SystemConfig, layer: Layer, last: _PriceEntry | None) -> _PriceEntry:
    """The layer's pricing entry, built to replace last, the memoised entry.

    What does not depend on the mapping is computed here, once per (system,
    layer), and what depends on neither the mapping nor the layer's sizes once
    per design point; evaluate_layer_mapping calls the entry's price per
    result, and the search screens candidates with its form. A memo hit does
    not enter this function, so it makes none of its closure cells.
    """
    global _price_entry
    precisions = layer_precisions(system.macro, layer.b_i, layer.b_w, layer.b_o)
    point = last[2] if last is not None and last[0] is system else None
    if point is None or point.precisions != precisions:
        point = _design_point(system, precisions)
    b_i, b_w, b_o, _ = precisions
    _, cycle_energies, area, area_breakdown, clock, cpm, a, b_macro, c, d = point
    cache = system.cache
    work = total_macs(layer)
    ops = 2.0 * work
    d_i, d_o = system.macro.d_i, system.macro.d_o
    cache_read_energy, cache_write_energy = cache.read_energy, cache.write_energy
    capacity = cache.capacity_bits
    bandwidth = cache.bandwidth_bits_per_cycle
    dram_rate = system.dram_energy_per_bit
    cell_write_energy = system.params.sram_cell_write_energy
    # the layer's own activation sizes, and whether each spills from the cache
    layer_input_bits = layer.input_elements * b_i
    layer_output_bits = layer.output_elements * b_o
    inputs_spill = layer_input_bits > capacity
    outputs_spill = layer_output_bits > capacity

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
                f"input activations ({input_bits_from_dram} bits) exceed the cache "
                f"capacity ({capacity} bits); inputs stream from DRAM per access",)
            dram_in = input_cache_reads * dram_rate
            cache_in = 0.0
        else:
            notes = ()
            dram_in = input_bits_from_dram * dram_rate
            cache_in = input_cache_reads * cache_read_energy

        cache_out = output_bits * cache_write_energy
        dram_out = 0.0
        if output_bits > capacity:
            notes += (f"output activations ({output_bits} bits) exceed the cache "
                      f"capacity ({capacity} bits); outputs spill to DRAM",)
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

    # The closed form of a candidate's energy and latency, from the same terms;
    # the comment above _GAIN_MARGIN derives it and what the search may drop.
    rho = dram_rate if inputs_spill else cache_read_energy
    b = b_macro + b_i * rho
    weight_bits = layer.weight_elements * b_w
    fixed = (layer_output_bits * cache_write_energy
             + (0.0 if inputs_spill else layer_input_bits * dram_rate)
             + (layer_output_bits * dram_rate if outputs_spill else 0.0)
             + weight_bits * dram_rate)
    omega = weight_bits * cell_write_energy
    sigma = weight_bits / bandwidth * clock

    def form(r: int, k_u: int, ox_u: int) -> tuple[float, float]:
        columns = k_u * ox_u
        return (work * (a / (r * columns) + b / columns + c / r + d) + fixed + omega * ox_u,
                work * cpm * clock / (r * columns) + sigma * ox_u)

    entry = _price_entry = (system, layer, point, price, form)
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
    return _layer_pricing(system, layer)[3](result)


# The search prices only the candidates that a closed form of the objective
# cannot rule out. A candidate is a row tuple of product r and a column pair
# (k_u, ox_u), with cols = k_u * ox_u. Each factor divides its loop bound, so
# the candidate makes W / (r * cols) MVMs, with W the layer's MACs, and writes
# w * ox_u weight bits into the macro, with w the layer's weight bits; nothing
# else it is priced from depends on the mapping. The tuples of one row product
# therefore price to the same floats, and the tie-break takes the first. In
# exact arithmetic its energy and latency are
#     E = W * (A / (r * cols) + B / cols + C / r + D) + F + omega * ox_u
#     L = W * cpm * clock / (r * cols) + sigma * ox_u
# with cpm the cycles per MVM and these coefficients, which _design_point builds
# once per design point, entry by entry from one cycle_energies call at one row,
# one column, one cycle and one MVM, and _layer_pricing completes beside price
# with B's term b_i * rho:
#     A = cpm * cell_array
#     B = cpm * dac + input_register + b_i * rho
#     C = cpm * (adc + combine_tree + accumulator + pipeline_register)
#     D = cpm * (multiplier + adder_tree)
# where rho is the rate of the input reads: the cache read energy, or the DRAM
# rate when the layer's inputs spill. F, the output, DRAM and weight-stream
# energy, is the same for every candidate, and omega * ox_u and sigma * ox_u
# are the weight writes into the macro and their stall. No coefficient is
# negative, so at one ox_u the objective f, which is E, L or E * L, does not
# rise with r or with k_u. Let r* be the largest row product, r2 the next
# smaller one, k* the largest k_u beside an ox_u and k2 the next smaller one.
# Every candidate of ox_u is then at least V(ox_u) = f(r*, k*, ox_u); those
# with a smaller row product are at least f(r2, k*, ox_u), and those with a
# smaller k_u at least f(r*, k2, ox_u). So the search prices r* with k* of each
# ox_u whose V is not proved above the least V; every row product as well where
# f(r2, k*, ox_u) is not proved above V(ox_u) for some kept ox_u; and every k_u
# of a kept ox_u where f(r*, k2, ox_u) is not.
#
# P is proved above Q when the computed P / Q - 1 exceeds _GAIN_MARGIN, m. The
# floats wobble, and the bound below covers them. Relative to exact values and
# to first order in u = 2**-53: each of a priced candidate's twelve energy
# entries is at most five roundings off (ints above 2**53 converted to float, a
# division, multiplies) and _total adds them with eleven more, its latency is
# three roundings off, and E * L one more than the two, so a priced objective
# is within 20u. The form takes each coefficient as a sum of entries, never a
# difference, so it stays within 17u: at most 6 in C / r and D, 2 adding the
# four terms, 2 for W's conversion and product and 2 adding F and omega * ox_u
# make 12 in E, L is within 4, and E * L adds 1. The subtraction is exact
# wherever the quotient lies in [1/2, 2] (Sterbenz), so a computed gain above m
# makes the exact P at least (1 + m)(1 - 35u) Q, and every candidate at least P
# then prices strictly above the priced candidate that is Q once m exceeds
# about 75u, below 1e-14; m is 1e-12. While the energy and latency forms at r*
# and k* lie inside _FORM_RANGE for every ox_u, every Q the proof uses lies in
# (1e-200, 1e200) and every P above 1e-200: no intermediate of a candidate
# priced at r* and k* overflows (none exceeds 2**16 times its energy or
# latency), an overflow elsewhere only raises a value, and subnormal rounding,
# scaled by at most 2**94 cycles, moves no value by 1e-80 of itself. A form
# outside the range, NaN included, prices the first tuple of every row product
# with every column pair, and a NaN gain proves nothing.
_GAIN_MARGIN = 1e-12
_FORM_RANGE = (1e-100, 1e100)  # J and s


def _objective(objective: str, energy: float, latency: float) -> float:
    """The objective's value: E, L or E * L."""
    return (energy if objective == "energy" else
            latency if objective == "latency" else energy * latency)


def _screen(form: _Form, objective: str, firsts: dict[int, tuple[int, int, int]],
            tops: dict[int, list[int]]
            ) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """The row tuples and column pairs that the layer's form leaves to price,
    from mapper._space_outline's first tuple of each row product and k_u of
    each ox_u: the first tuple of r*, or of every row product, and k* of each
    ox_u left in, or every k_u of it; the column pairs in lexicographic order."""
    products = sorted(firsts)
    r_top = products[-1]
    low, high = _FORM_RANGE
    value: dict[int, float] = {}
    for ox_u, k_us in tops.items():
        energy, latency = form(r_top, k_us[-1], ox_u)
        if not (low < energy < high and low < latency < high):
            return list(firsts.values()), sorted(
                (k_u, ox_u) for ox_u, k_us in tops.items() for k_u in k_us)
        value[ox_u] = _objective(objective, energy, latency)
    least = min(value.values())
    kept = [ox_u for ox_u in tops if not value[ox_u] / least - 1.0 > _GAIN_MARGIN]

    def proved(r: int, k_u: int, ox_u: int) -> bool:
        """Whether f(r, k_u, ox_u) is proved above V(ox_u)."""
        return _objective(objective, *form(r, k_u, ox_u)) / value[ox_u] - 1.0 > _GAIN_MARGIN

    priced_rows = [firsts[r_top]]
    if len(products) > 1:
        r2 = products[-2]
        if not all(proved(r2, tops[ox_u][-1], ox_u) for ox_u in kept):
            priced_rows = list(firsts.values())
    priced_cols = []
    for ox_u in kept:
        k_us = tops[ox_u]
        every_k = len(k_us) > 1 and not proved(r_top, k_us[-2], ox_u)
        priced_cols.extend((k_u, ox_u) for k_u in (k_us if every_k else k_us[-1:]))
    priced_cols.sort()
    return priced_rows, priced_cols


def best_mapping(layer: Layer, system: SystemConfig,
                 objective: str = "energy") -> MappingResult:
    """The mapping minimizing the system-level objective.

    Ties break toward higher spatial utilization, then the lexicographically
    smallest factor tuple, so results do not depend on evaluation order. The
    MVMs depend on the row product and on k_u * ox_u alone, and the weight
    writes and their stall on ox_u alone, so the objective has a closed form;
    the search prices only the candidates that this form cannot prove worse
    than another by more than float rounding, and the winner is the one an
    exhaustive search finds.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    best: tuple | None = None
    best_result: MappingResult | None = None
    cfg = system.macro
    firsts, tops = mapper._space_outline(layer, cfg)
    space = _screen(_layer_pricing(system, layer)[4], objective, firsts, tops)
    for mapping in mapper.enumerate_mappings(layer, cfg, space):
        result = mapper.evaluate_mapping(layer, cfg, mapping)
        metrics = evaluate_layer_mapping(system, layer, result)
        key = (_objective(objective, metrics.energy, metrics.latency),
               -result.spatial_utilization, mapping.factors())
        if best is None or key < best:
            best = key
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
