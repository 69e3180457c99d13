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
    "aimc_macro_metrics",
    "dimc_macro_metrics",
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


_Pricing = tuple[Callable[..., dict[str, float]], dict[str, tuple[float, float]]]

# The last pricing and the last metrics built, each as (params, cfg, value).
# Callers price one macro several times in a row: a peak row and its system
# metrics, a layer's pricing and its macro metrics, the layers of a network
# that share their precisions. Each entry holds both frozen objects, so neither
# can be freed and its id reused while the entry lives; equal but distinct
# objects price afresh. A tuple is read once and replaced whole, so a reader
# never sees a value paired with the wrong key.
_components_entry: tuple[TechnologyParams, ImcMacroConfig, _Pricing] | None = None
_metrics_entry: tuple[TechnologyParams, ImcMacroConfig, MacroMetrics] | None = None


def _price_components(params: TechnologyParams, cfg: ImcMacroConfig) -> _Pricing:
    """Price every component of one config once.

    Returns the energy by component of `cycles` cycles (one by default) as a
    function of the active (rows, cols, cycles) and the input-register energy
    the caller prices (none by default), and each component's
    (clock-path delay, area). A component the macro type lacks has zero unit
    energy, delay and area, so both types share one set of energy expressions
    and one key set. The timing dict is shared with later calls on the same
    objects: read it, never change it.
    """
    global _components_entry
    entry = _components_entry
    if entry is not None and entry[0] is params and entry[1] is cfg:
        return entry[2]
    alpha = cfg.activity
    d_i, d_o, b_w, b_cycle = cfg.d_i, cfg.d_o, cfg.b_w, cfg.b_cycle
    timing = dict.fromkeys(BREAKDOWN_COMPONENTS, (0.0, 0.0))
    timing["cell_array"] = (0.0, sram_array_area(params, d_i * d_o * b_w * cfg.m))
    timing["input_register"] = (0.0, register_cost(params, d_i * cfg.b_i).area)
    cell_e = dac_e = adc_e = mult_e = tree_e = dff_e = 0.0

    if cfg.imc_type is ImcType.AIMC:
        res_bits = cfg.b_i if cfg.adc_resolution_from_full_precision else b_cycle
        res = adc_resolution(params, res_bits, d_i)
        b_adds_out = res + ceil_log2(b_w)
        combine = adder_tree_cost(params, b_w, res, alpha)
        cell_e = cell_array_energy(params, b_w, d_i, d_o, alpha)
        dac_e = dac_energy(params, b_cycle)
        adc_e = adc_energy(params, res)
        timing["adc"] = (adc_delay(params, res, d_i), d_o * b_w * adc_area(params, res))
        pipeline_bits = res * b_w
    else:
        tree_out = b_w + ceil_log2(d_i)
        b_adds_out = tree_out + ceil_log2(b_cycle)
        mult = multiplier_cost(params)
        tree = adder_tree_cost(params, d_i, b_w, alpha)
        # With b_cycle=1 the combine tree has fan-in 1 and costs nothing.
        combine = adder_tree_cost(params, b_cycle, tree_out, alpha)
        mult_e, tree_e = mult.energy, tree.energy
        timing["multiplier"] = (mult.delay, d_i * d_o * b_w * b_cycle * mult.area)
        timing["adder_tree"] = (tree.delay, d_o * b_cycle * tree.area)
        pipeline_bits = b_w * d_i

    timing["combine_tree"] = (combine.delay, d_o * combine.area)
    acc = accumulator_cost(params, b_adds_out + (cfg.b_i - b_cycle), b_adds_out)
    timing["accumulator"] = (acc.delay, d_o * acc.area)
    if cfg.pipelined:
        timing["pipeline_register"] = (0.0, register_cost(params, d_o * pipeline_bits).area)
        dff_e = params.dff_energy
    combine_e, acc_e = combine.energy, acc.energy

    # cycles is every expression's last multiply: the floats equal multiplying
    # each one-cycle entry by cycles afterwards, bit for bit. input_register is
    # the register energy the caller prices per MVM; 0.0 + it equals adding it
    # to a zero entry afterwards.
    def cycle_energies(rows: int, cols: int, cycles: int = 1,
                       input_register: float = 0.0) -> dict[str, float]:
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
            "input_register": 0.0 + input_register,
            "pipeline_register": cols * pipeline_bits * dff_e * cycles,
        }

    _components_entry = (params, cfg, (cycle_energies, timing))
    return cycle_energies, timing


def per_cycle_energy(params: TechnologyParams, cfg: ImcMacroConfig,
                     rows_used: int | None = None,
                     cols_used: int | None = None) -> dict[str, float]:
    """Per-cycle energy of one macro, by component, with row/column gating.

    rows_used/cols_used default to the full array. Gated components draw
    energy in proportion to active rows or columns; the analog cell array is
    not gated (every bitline spans the physical column and switches whenever
    the array computes), which is what makes oversized analog arrays costly
    for small workloads.
    """
    rows = cfg.d_i if rows_used is None else rows_used
    cols = cfg.d_o if cols_used is None else cols_used
    if not 0 <= rows <= cfg.d_i:
        raise ValueError(f"rows_used must lie in [0, d_i], got {rows!r}")
    if not 0 <= cols <= cfg.d_o:
        raise ValueError(f"cols_used must lie in [0, d_o], got {cols!r}")
    cycle_energies, _ = _price_components(params, cfg)
    return cycle_energies(rows, cols)


def per_mvm_register_energy(params: TechnologyParams, cfg: ImcMacroConfig,
                            rows_used: int | None = None) -> float:
    """Input-register write energy of one macro, paid once per MVM."""
    rows = cfg.d_i if rows_used is None else rows_used
    if not 0 <= rows <= cfg.d_i:
        raise ValueError(f"rows_used must lie in [0, d_i], got {rows!r}")
    return register_cost(params, rows * cfg.b_i).energy


def _check_range(cfg: ImcMacroConfig, quantities: tuple[tuple[str, float], ...]) -> None:
    """A ValueError for the first quantity that is not a finite positive float."""
    for quantity, value in quantities:
        if value == 0.0:
            raise ValueError(f"{quantity} of the {cfg.imc_type.name} macro is zero: "
                             "its technology constants are degenerate")
        if not value < math.inf:  # inf, or NaN
            raise ValueError(f"{quantity} of the {cfg.imc_type.name} macro is {value!r}: "
                             "its technology constants are out of range")


def macro_metrics(params: TechnologyParams, cfg: ImcMacroConfig) -> MacroMetrics:
    """Peak metrics of either macro type, composed from its priced components.

    Pipelining places one register boundary after the front end (the ADCs of
    an analog macro, the multipliers of a digital one), so the clock is the
    longer of the front end and everything after it. Calls on the same params
    and cfg objects in a row return the same metrics object, whose breakdown
    must not be changed.
    """
    global _metrics_entry
    entry = _metrics_entry
    if entry is not None and entry[0] is params and entry[1] is cfg:
        return entry[2]
    cycle_energies, timing = _price_components(params, cfg)
    cycles = cfg.cycles_per_mvm
    n = cfg.n_macros
    per_mvm = cycle_energies(cfg.d_i, cfg.d_o, cycles, per_mvm_register_energy(params, cfg))
    breakdown = {name: ComponentCost(energy=per_mvm[name] * n, delay=delay, area=area * n)
                 for name, (delay, area) in timing.items()}

    total = sum(c.delay for c in breakdown.values())
    # Each type has exactly one front end; the other type's entry reads zero.
    front = timing["adc"][0] + timing["multiplier"][0]
    clock = max(front, total - front) if cfg.pipelined else total
    energy_per_mvm = sum(c.energy for c in breakdown.values())
    area = sum(c.area for c in breakdown.values())
    area_mm2 = area * 1e-6
    _check_range(cfg, (("energy per MVM", energy_per_mvm), ("clock period", clock),
                       ("area", area_mm2)))
    ops = 2.0 * cfg.d_i * cfg.d_o * n
    tops = ops / (clock * cycles)
    tops_per_w = ops / energy_per_mvm
    tops_per_mm2 = tops / area_mm2
    _check_range(cfg, (("throughput", tops), ("energy efficiency", tops_per_w),
                       ("area efficiency", tops_per_mm2)))
    metrics = MacroMetrics(
        energy_per_mvm=energy_per_mvm,
        clock_period=clock,
        cycles_per_mvm=cycles,
        area=area,
        tops=tops,
        tops_per_w=tops_per_w,
        tops_per_mm2=tops_per_mm2,
        breakdown=breakdown,
    )
    _metrics_entry = (params, cfg, metrics)
    return metrics


def aimc_macro_metrics(params: TechnologyParams, cfg: ImcMacroConfig) -> MacroMetrics:
    """Peak metrics of an analog macro: DAC, cell array, ADCs, shift-add trees."""
    if cfg.imc_type is not ImcType.AIMC:
        raise ValueError(f"expected an AIMC config, got {cfg.imc_type!r}")
    return macro_metrics(params, cfg)


def dimc_macro_metrics(params: TechnologyParams, cfg: ImcMacroConfig) -> MacroMetrics:
    """Peak metrics of a digital macro: NAND multipliers, adder trees, accumulators."""
    if cfg.imc_type is not ImcType.DIMC:
        raise ValueError(f"expected a DIMC config, got {cfg.imc_type!r}")
    return macro_metrics(params, cfg)
