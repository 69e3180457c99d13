"""Analytical energy, delay, and area model for SRAM-based in-memory computing.

The package models analog (charge-based) and digital SRAM macros from
per-component cost equations upward: peak macro metrics, spatial mapping of
neural-network layers, and system-level benchmarking with an activation cache
and DRAM. A CLI (`imcperf`) exposes design-point evaluation, array-size
sweeps, workload benchmarking, and a reference-configuration report.
"""

from .components import (
    ComponentCost,
    TechnologyParams,
    adc_area,
    adc_delay,
    adc_energy,
    adc_resolution,
    adder_tree_cost,
    adder_tree_fa_count,
    accumulator_cost,
    cell_array_energy,
    ceil_log2,
    dac_energy,
    multiplier_cost,
    register_cost,
    sram_array_area,
)
from .macro import (
    BREAKDOWN_COMPONENTS,
    ImcMacroConfig,
    ImcType,
    MacroMetrics,
    aimc_macro_metrics,
    dimc_macro_metrics,
    macro_metrics,
    per_cycle_energy,
    per_mvm_register_energy,
    resolve_layer_precisions,
)
from .mapper import (
    OBJECTIVES,
    MappingResult,
    SpatialMapping,
    best_mapping,
    enumerate_mappings,
    evaluate_mapping,
    mapping_space,
)
from .system import (
    LayerReport,
    MemoryLevel,
    SystemConfig,
    SystemMetrics,
    default_cache,
    default_system_config,
    evaluate_layer_mapping,
    geomean_efficiency,
    layer_system_metrics,
    network_system_metrics,
    peak_system_metrics,
)
from .workload import (
    Layer,
    LayerKind,
    Network,
    WorkloadError,
    bundled_network,
    bundled_network_names,
    classify,
    load_network,
    total_macs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # components
    "TechnologyParams", "ComponentCost", "ceil_log2", "cell_array_energy",
    "adc_resolution", "adc_energy", "adc_delay", "adc_area", "dac_energy",
    "multiplier_cost", "adder_tree_fa_count", "adder_tree_cost",
    "accumulator_cost", "register_cost", "sram_array_area",
    # macro
    "ImcType", "ImcMacroConfig", "MacroMetrics", "BREAKDOWN_COMPONENTS",
    "macro_metrics", "aimc_macro_metrics", "dimc_macro_metrics",
    "per_cycle_energy", "per_mvm_register_energy", "resolve_layer_precisions",
    # workload
    "Layer", "Network", "LayerKind", "WorkloadError", "classify", "total_macs",
    "load_network", "bundled_network", "bundled_network_names",
    # mapper
    "SpatialMapping", "MappingResult", "OBJECTIVES",
    "mapping_space", "enumerate_mappings", "evaluate_mapping", "best_mapping",
    # system
    "MemoryLevel", "SystemConfig", "SystemMetrics", "LayerReport",
    "default_cache", "default_system_config", "peak_system_metrics",
    "evaluate_layer_mapping", "layer_system_metrics", "network_system_metrics",
    "geomean_efficiency",
]
