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
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

from .components import (
    ComponentCost,
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
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.b_cycle > self.b_i:
            raise ValueError(
                f"b_cycle ({self.b_cycle}) cannot exceed b_i ({self.b_i})")
        for name in ("input_toggle_rate", "weight_sparsity"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
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


def _price_components(params: TechnologyParams, cfg: ImcMacroConfig
                      ) -> tuple[Callable[[int, int], dict[str, float]],
                                 dict[str, tuple[float, float]]]:
    """Price every component of one config once.

    Returns the per-cycle energy by component as a function of the active
    (rows, cols), and each component's (clock-path delay, area). A component
    the macro type lacks has zero unit energy, delay and area, so both types
    share one set of energy expressions and one key set.
    """
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

    def cycle_energies(rows: int, cols: int) -> dict[str, float]:
        return {
            "cell_array": cell_e,
            "dac": rows * dac_e,
            "adc": cols * b_w * adc_e,
            "multiplier": rows * cols * b_w * b_cycle * mult_e * alpha,
            # Idle rows feed constant zeros into the tree, so tree switching scales
            # with the populated row fraction even though the tree is full-depth.
            "adder_tree": cols * b_cycle * tree_e * (rows / d_i),
            "combine_tree": cols * combine_e,
            "accumulator": cols * acc_e,
            "input_register": 0.0,
            "pipeline_register": cols * pipeline_bits * dff_e,
        }

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


def macro_metrics(params: TechnologyParams, cfg: ImcMacroConfig) -> MacroMetrics:
    """Peak metrics of either macro type, composed from its priced components.

    Pipelining places one register boundary after the front end (the ADCs of
    an analog macro, the multipliers of a digital one), so the clock is the
    longer of the front end and everything after it.
    """
    cycle_energies, timing = _price_components(params, cfg)
    cycles = cfg.cycles_per_mvm
    n = cfg.n_macros
    per_mvm = {name: energy * cycles
               for name, energy in cycle_energies(cfg.d_i, cfg.d_o).items()}
    per_mvm["input_register"] += per_mvm_register_energy(params, cfg)
    breakdown = {name: ComponentCost(energy=per_mvm[name] * n, delay=delay, area=area * n)
                 for name, (delay, area) in timing.items()}

    total = sum(c.delay for c in breakdown.values())
    # Each type has exactly one front end; the other type's entry reads zero.
    front = timing["adc"][0] + timing["multiplier"][0]
    clock = max(front, total - front) if cfg.pipelined else total
    energy_per_mvm = sum(c.energy for c in breakdown.values())
    area = sum(c.area for c in breakdown.values())
    checks = (("energy per MVM", energy_per_mvm), ("clock period", clock), ("area", area))
    for quantity, value in checks:
        if value == 0.0:
            raise ValueError(f"{quantity} of the {cfg.imc_type.name} macro is zero: "
                             "its technology constants are degenerate")
    ops = 2.0 * cfg.d_i * cfg.d_o * n
    tops = ops / (clock * cycles)
    return MacroMetrics(
        energy_per_mvm=energy_per_mvm,
        clock_period=clock,
        cycles_per_mvm=cycles,
        area=area,
        tops=tops,
        tops_per_w=ops / energy_per_mvm,
        tops_per_mm2=tops / (area * 1e-6),
        breakdown=breakdown,
    )


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
