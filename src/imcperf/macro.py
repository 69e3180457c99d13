"""Macro-level composition: full AIMC/DIMC array metrics from component costs.

An analog macro converts per-cycle bitline sums through one ADC per weight-bit
column and recombines the weight bits in a digital shift-add tree per output.
A digital macro multiplies at every cell with NAND gates and reduces along the
input dimension with adder trees. Both accumulate bit-serial input slices over
ceil(b_i/b_cycle) cycles. Every component of a config is priced once; its
per-cycle energy then follows from the active rows and columns, and every macro
metric is read from those prices.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

from .components import (
    ComponentCost,
    TechnologyParams,
    _check_count,
    _check_fraction,
    accumulator_cost,
    adc_area,
    adc_delay,
    adc_energy,
    adc_resolution,
    adder_tree_cost,
    ceil_log2,
    cell_array_energy,
    dac_energy,
    multiplier_cost,
    register_cost,
    sram_array_area,
)

__all__ = [
    "ImcType",
    "ImcMacroConfig",
    "MacroMetrics",
    "BREAKDOWN_COMPONENTS",
    "macro_metrics",
    "per_cycle_energy",
    "per_mvm_register_energy",
    "layer_precisions",
    "resolve_layer_precisions",
]

# Fixed breakdown key set, identical for both macro types; absent components
# carry zero-valued entries so downstream serialization has a stable schema.
BREAKDOWN_COMPONENTS: tuple[str, ...] = (
    "cell_array",
    "dac",
    "adc",
    "multiplier",
    "adder_tree",
    "combine_tree",
    "accumulator",
    "input_register",
    "pipeline_register",
)


class ImcType(enum.Enum):
    AIMC = "aimc"
    DIMC = "dimc"


_DEFAULT_B_CYCLE = {ImcType.AIMC: 2, ImcType.DIMC: 1}

# Largest d_i and d_o. The mapper tries every unroll factor up to the array
# dimension, so an unbounded one lets a layer with a huge loop bound search for
# hours before the candidate budget can refuse it. 16x the CLI's largest size.
MAX_ARRAY_DIM = 1 << 16

# Largest b_i, b_w, b_o, m and n_macros. No design point comes near it, and it
# keeps every product the model forms from them far inside the float range, so
# a huge value is named here rather than failing a conversion to float later.
MAX_MACRO_INT = 1 << 32
_INT_BOUNDS = (("d_i", MAX_ARRAY_DIM), ("d_o", MAX_ARRAY_DIM), ("b_i", MAX_MACRO_INT),
               ("b_w", MAX_MACRO_INT), ("b_o", MAX_MACRO_INT), ("m", MAX_MACRO_INT),
               ("n_macros", MAX_MACRO_INT))


@dataclass(frozen=True)
class ImcMacroConfig:
    """One IMC design point.

    d_i rows share a bitline/adder tree, d_o output columns run in parallel,
    each storing b_w weight bits; b_cycle input bits enter per cycle (defaults:
    2 for AIMC, 1 for DIMC). m cells share one compute port and contribute
    storage only. input_toggle_rate and weight_sparsity form the activity
    factor for data-dependent switching.
    """

    imc_type: ImcType
    d_i: int
    d_o: int
    b_i: int = 8
    b_w: int = 8
    b_cycle: int | None = None
    m: int = 1
    n_macros: int = 1
    input_toggle_rate: float = 0.5
    weight_sparsity: float = 0.0
    pipelined: bool = False
    b_o: int = 8
    adc_resolution_from_full_precision: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.imc_type, ImcType):
            raise ValueError(f"imc_type must be an ImcType, got {self.imc_type!r}")
        if self.b_cycle is None:
            object.__setattr__(self, "b_cycle", _DEFAULT_B_CYCLE[self.imc_type])
        for name in ("d_i", "d_o", "b_i", "b_w", "b_cycle", "b_o", "m", "n_macros"):
            _check_count(name, getattr(self, name))
        for name, bound in _INT_BOUNDS:
            if getattr(self, name) > bound:
                raise ValueError(f"{name} must be at most {bound}, got {getattr(self, name)}")
        if self.b_cycle > self.b_i:
            raise ValueError(
                f"b_cycle ({self.b_cycle}) cannot exceed b_i ({self.b_i})")
        _check_fraction("input_toggle_rate", self.input_toggle_rate)
        _check_fraction("weight_sparsity", self.weight_sparsity)
        for name in ("pipelined", "adc_resolution_from_full_precision"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a boolean, got {value!r}")
        if self.b_i % self.b_cycle != 0:
            warnings.warn(
                f"b_cycle ({self.b_cycle}) does not divide b_i ({self.b_i}); "
                "cycle count rounds up and the last cycle is partially idle",
                stacklevel=2,
            )

    @property
    def activity(self) -> float:
        return self.input_toggle_rate * (1.0 - self.weight_sparsity)

    @property
    def cycles_per_mvm(self) -> int:
        return -(-self.b_i // self.b_cycle)


@dataclass(frozen=True)
class MacroMetrics:
    """Peak metrics of one design point; totals cover all n_macros.

    energy_per_mvm is the energy of one MVM wave across every macro, so
    tops_per_w and tops_per_mm2 are independent of n_macros. Breakdown maps
    component name to (energy per MVM, clock-path delay contribution, area).
    """

    energy_per_mvm: float
    clock_period: float
    cycles_per_mvm: int
    area: float
    tops: float
    tops_per_w: float
    tops_per_mm2: float
    breakdown: dict[str, ComponentCost] = field(repr=False)


def layer_precisions(cfg: ImcMacroConfig, b_i: int | None, b_w: int | None,
                     b_o: int | None) -> tuple[int, int, int, int]:
    """(b_i, b_w, b_o, b_cycle): a width the layer sets overrides the macro's, and
    b_cycle is clamped to b_i so low-precision layers stay valid."""
    b_i = cfg.b_i if b_i is None else b_i
    b_w = cfg.b_w if b_w is None else b_w
    b_o = cfg.b_o if b_o is None else b_o
    return b_i, b_w, b_o, min(cfg.b_cycle, b_i)


def resolve_layer_precisions(cfg: ImcMacroConfig, b_i: int, b_w: int,
                             b_o: int) -> ImcMacroConfig:
    """Macro config with per-layer precision overrides applied.

    b_cycle is clamped to the new b_i so low-precision layers stay valid.
    """
    b_i, b_w, b_o, b_cycle = layer_precisions(cfg, b_i, b_w, b_o)
    return replace(cfg, b_i=b_i, b_w=b_w, b_o=b_o, b_cycle=b_cycle)


def _check_range(cfg: ImcMacroConfig, quantities: tuple[tuple[str, float], ...]) -> None:
    """A ValueError for the first quantity that is not a finite positive float."""
    for quantity, value in quantities:
        if value == 0.0:
            raise ValueError(f"{quantity} of the {cfg.imc_type.name} macro is zero: "
                             "its technology constants are degenerate")
        if not value < math.inf:  # inf, or NaN
            raise ValueError(f"{quantity} of the {cfg.imc_type.name} macro is {value!r}: "
                             "its technology constants are out of range")


def _component(cfg: ImcMacroConfig, component: str,
               cost: Callable[..., ComponentCost], *args: object) -> ComponentCost:
    """cost(*args), with its ValueError re-raised to name the component and the macro:
    TechnologyParams keeps each unit cost finite, but a cost multiplies one by a count."""
    try:
        return cost(*args)
    except ValueError as exc:
        raise ValueError(f"{component} of the {cfg.imc_type.name} macro: {exc}: "
                         "its technology constants are out of range") from None


_CycleEnergies = Callable[..., dict[str, float]]

# The last pricing built, as (params, cfg, cycle_energies, metrics). Callers
# price one macro several times in a row: a peak row and its system metrics,
# a layer's macro metrics and its gated energies, the layers of a network that
# share their precisions. The entry holds both frozen objects, so neither can
# be freed and its id reused while the entry lives; equal but distinct objects
# price afresh. The tuple is read once and replaced whole, so a reader never
# sees a pricing paired with the wrong key.
_pricing_entry: tuple[TechnologyParams, ImcMacroConfig, _CycleEnergies,
                      MacroMetrics] | None = None


def _pricing(params: TechnologyParams,
             cfg: ImcMacroConfig) -> tuple[_CycleEnergies, MacroMetrics]:
    """Price every component of one config once, and the peak metrics from them.

    Returns the energy by component of `cycles` cycles (one by default) as a
    function of the active (rows, cols, cycles) and the MVMs that write the
    input register (none by default), and the macro's peak metrics. A component
    the macro type lacks has zero unit energy, delay and area, so both types
    share one set of energy expressions and one key set. Pipelining places one
    register boundary after the front end (the ADCs of an analog macro, the
    multipliers of a digital one), so the clock is the longer of the front end
    and everything after it.
    """
    global _pricing_entry
    entry = _pricing_entry
    if entry is not None and entry[0] is params and entry[1] is cfg:
        return entry[2], entry[3]
    alpha = cfg.activity
    d_i, d_o, b_i, b_w, b_cycle = cfg.d_i, cfg.d_o, cfg.b_i, cfg.b_w, cfg.b_cycle
    timing = dict.fromkeys(BREAKDOWN_COMPONENTS, (0.0, 0.0))
    timing["cell_array"] = (0.0, sram_array_area(params, d_i * d_o * b_w * cfg.m))
    timing["input_register"] = (
        0.0, _component(cfg, "input register", register_cost, params, d_i * b_i).area)
    register_e = params.dff_energy
    cell_e = dac_e = adc_e = mult_e = tree_e = dff_e = 0.0

    if cfg.imc_type is ImcType.AIMC:
        res_bits = b_i if cfg.adc_resolution_from_full_precision else b_cycle
        res = adc_resolution(params, res_bits, d_i)
        b_adds_out = res + ceil_log2(b_w)
        combine = _component(cfg, "combine tree", adder_tree_cost, params, b_w, res, alpha)
        cell_e = cell_array_energy(params, b_w, d_i, d_o, alpha)
        dac_e = dac_energy(params, b_cycle)
        adc_e = adc_energy(params, res)
        timing["adc"] = (adc_delay(params, res, d_i), d_o * b_w * adc_area(params, res))
        pipeline_bits = res * b_w
    else:
        tree_out = b_w + ceil_log2(d_i)
        b_adds_out = tree_out + ceil_log2(b_cycle)
        mult = _component(cfg, "multiplier", multiplier_cost, params)
        tree = _component(cfg, "adder tree", adder_tree_cost, params, d_i, b_w, alpha)
        # With b_cycle=1 the combine tree has fan-in 1 and costs nothing.
        combine = _component(cfg, "combine tree", adder_tree_cost,
                             params, b_cycle, tree_out, alpha)
        mult_e, tree_e = mult.energy, tree.energy
        timing["multiplier"] = (mult.delay, d_i * d_o * b_w * b_cycle * mult.area)
        timing["adder_tree"] = (tree.delay, d_o * b_cycle * tree.area)
        pipeline_bits = b_w * d_i

    timing["combine_tree"] = (combine.delay, d_o * combine.area)
    acc = _component(cfg, "accumulator", accumulator_cost,
                     params, b_adds_out + (b_i - b_cycle), b_adds_out)
    timing["accumulator"] = (acc.delay, d_o * acc.area)
    if cfg.pipelined:
        timing["pipeline_register"] = (0.0, _component(
            cfg, "pipeline register", register_cost, params, d_o * pipeline_bits).area)
        dff_e = register_e
    combine_e, acc_e = combine.energy, acc.energy

    # cycles is every clocked expression's last multiply: the floats equal
    # multiplying each one-cycle entry by cycles afterwards, bit for bit. The
    # input register is written once per MVM, whatever the cycle count.
    def cycle_energies(rows: int, cols: int, cycles: int = 1,
                       mvms: int = 0) -> dict[str, float]:
        return {
            "cell_array": cell_e * cycles,
            "dac": rows * dac_e * cycles,
            "adc": cols * b_w * adc_e * cycles,
            "multiplier": rows * cols * b_w * b_cycle * mult_e * alpha * cycles,
            # Idle rows feed constant zeros into the tree, so tree switching scales
            # with the populated row fraction even though the tree is full-depth.
            "adder_tree": cols * b_cycle * tree_e * (rows / d_i) * cycles,
            "combine_tree": cols * combine_e * cycles,
            "accumulator": cols * acc_e * cycles,
            "input_register": rows * b_i * register_e * mvms,
            "pipeline_register": cols * pipeline_bits * dff_e * cycles,
        }

    cycles = cfg.cycles_per_mvm
    n = cfg.n_macros
    per_mvm = cycle_energies(d_i, d_o, cycles, 1)
    # One pass scales each entry to n macros, adds it to the three sums left to
    # right from zero, as system._total does on every Python, and builds its
    # ComponentCost with its field dict, in field order, as its __dict__. The
    # entries skip ComponentCost's checks: each is a product of checked
    # non-negative unit costs and positive counts, so it is finite and
    # non-negative unless it overflowed to inf or NaN, and then so is its sum,
    # which _check_range below refuses, naming the macro, before anything is
    # returned.
    new = object.__new__
    set_dict = object.__setattr__
    breakdown: dict[str, ComponentCost] = {}
    energy_per_mvm = total = area = 0.0
    for name, (delay, unit_area) in timing.items():
        energy = per_mvm[name] * n
        component_area = unit_area * n
        energy_per_mvm += energy
        total += delay
        area += component_area
        cost = breakdown[name] = new(ComponentCost)
        set_dict(cost, "__dict__", {"energy": energy, "delay": delay, "area": component_area})
    # Each type has exactly one front end; the other type's entry reads zero.
    front = timing["adc"][0] + timing["multiplier"][0]
    clock = max(front, total - front) if cfg.pipelined else total
    area_mm2 = area * 1e-6
    _check_range(cfg, (("energy per MVM", energy_per_mvm), ("clock period", clock),
                       ("area", area_mm2)))
    ops = 2.0 * d_i * d_o * n
    tops = ops / (clock * cycles)
    tops_per_w = ops / energy_per_mvm
    tops_per_mm2 = tops / area_mm2
    _check_range(cfg, (("throughput", tops), ("energy efficiency", tops_per_w),
                       ("area efficiency", tops_per_mm2)))
    # MacroMetrics has no __post_init__, so its constructor would check nothing.
    metrics = new(MacroMetrics)
    set_dict(metrics, "__dict__", {
        "energy_per_mvm": energy_per_mvm,
        "clock_period": clock,
        "cycles_per_mvm": cycles,
        "area": area,
        "tops": tops,
        "tops_per_w": tops_per_w,
        "tops_per_mm2": tops_per_mm2,
        "breakdown": breakdown,
    })
    _pricing_entry = (params, cfg, cycle_energies, metrics)
    return cycle_energies, metrics


def _active(name: str, count: int | None, size: int, dim: str) -> int:
    """count, or the full size when it is None, checked to lie in [0, size]."""
    if count is None:
        return size
    _check_count(name, count, minimum=0)
    if count > size:
        raise ValueError(f"{name} must lie in [0, {dim}], got {count!r}")
    return count


def per_cycle_energy(params: TechnologyParams, cfg: ImcMacroConfig,
                     rows_used: int | None = None,
                     cols_used: int | None = None) -> dict[str, float]:
    """Per-cycle energy of one macro, by component, with row/column gating.

    rows_used/cols_used default to the full array. Gated components draw
    energy in proportion to active rows or columns; the analog cell array is
    not gated (every bitline spans the physical column and switches whenever
    the array computes), which is what makes oversized analog arrays costly
    for small workloads. The input register, written once per MVM, reads zero.
    """
    rows = _active("rows_used", rows_used, cfg.d_i, "d_i")
    cols = _active("cols_used", cols_used, cfg.d_o, "d_o")
    return _pricing(params, cfg)[0](rows, cols)


def per_mvm_register_energy(params: TechnologyParams, cfg: ImcMacroConfig,
                            rows_used: int | None = None) -> float:
    """Input-register write energy of one macro, paid once per MVM."""
    rows = _active("rows_used", rows_used, cfg.d_i, "d_i")
    return register_cost(params, rows * cfg.b_i).energy


def macro_metrics(params: TechnologyParams, cfg: ImcMacroConfig) -> MacroMetrics:
    """Peak metrics of either macro type, composed from its priced components.

    Calls on the same params and cfg objects in a row return the same metrics
    object, whose breakdown must not be changed.
    """
    return _pricing(params, cfg)[1]
