"""Spatial mapping of a layer onto one weight-stationary IMC macro.

K and OX unroll across the output columns, C/FX/FY across the input rows;
G stays temporal on a single macro. The temporal schedule is fixed: weight-tile
loops outermost (weight stationary), OY and B in the middle, reduction tiles
innermost so partial sums never leave the accumulators. Only divisors of the
loop bounds are admitted as unroll factors, which keeps tile arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .macro import ImcMacroConfig, layer_precisions
from .workload import Layer

__all__ = [
    "SpatialMapping",
    "MappingResult",
    "TRAFFIC_KEYS",
    "enumerate_mappings",
    "evaluate_mapping",
    "best_mapping",
    "OBJECTIVES",
]

OBJECTIVES = ("energy", "latency", "edp")

# (operand, level) -> bits moved. Fixed key set so serialized rows share a schema.
TRAFFIC_KEYS: tuple[tuple[str, str], ...] = (
    ("W", "dram"), ("W", "cache"), ("W", "macro"),
    ("I", "dram"), ("I", "cache"), ("I", "macro"),
    ("O", "dram"), ("O", "cache"), ("O", "macro"),
)


@dataclass(frozen=True)
class SpatialMapping:
    """Unroll factors: k_u and ox_u span columns, c_u/fx_u/fy_u span rows."""

    k_u: int = 1
    ox_u: int = 1
    c_u: int = 1
    fx_u: int = 1
    fy_u: int = 1

    def __post_init__(self) -> None:
        for name in ("k_u", "ox_u", "c_u", "fx_u", "fy_u"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    @property
    def rows(self) -> int:
        return self.c_u * self.fx_u * self.fy_u

    @property
    def cols(self) -> int:
        return self.k_u * self.ox_u

    def factors(self) -> tuple[int, int, int, int, int]:
        return (self.k_u, self.ox_u, self.c_u, self.fx_u, self.fy_u)


@dataclass(frozen=True)
class MappingResult:
    """A mapping plus everything the system model needs to price it."""

    mapping: SpatialMapping
    spatial_utilization: float
    mvm_invocations: int
    total_cycles: int
    weight_tile_loads: int
    traffic: dict[tuple[str, str], int] = field(repr=False)
    in_unroll_ratio: float = 1.0
    out_unroll_ratio: float = 1.0


def _divisors(n: int, limit: int) -> list[int]:
    # factors beyond the array dimension can never fit, so don't enumerate them
    return [d for d in range(1, min(n, limit) + 1) if n % d == 0]


def enumerate_mappings(layer: Layer, cfg: ImcMacroConfig) -> list[SpatialMapping]:
    """All divisor-only unroll factor tuples fitting the array capacity.

    The all-ones mapping always qualifies, so the list is never empty. Order is
    lexicographic in (k_u, ox_u, c_u, fx_u, fy_u) for deterministic iteration.
    """
    out: list[SpatialMapping] = []
    row_candidates = [
        (c_u, fx_u, fy_u)
        for c_u in _divisors(layer.c, cfg.d_i)
        for fx_u in _divisors(layer.fx, cfg.d_i)
        for fy_u in _divisors(layer.fy, cfg.d_i)
        if c_u * fx_u * fy_u <= cfg.d_i
    ]
    for k_u in _divisors(layer.k, cfg.d_o):
        for ox_u in _divisors(layer.ox, cfg.d_o):
            if k_u * ox_u > cfg.d_o:
                continue
            for c_u, fx_u, fy_u in row_candidates:
                out.append(SpatialMapping(k_u, ox_u, c_u, fx_u, fy_u))
    return out


def _check_feasible(layer: Layer, cfg: ImcMacroConfig, mapping: SpatialMapping) -> None:
    for factor, bound, name in (
        (mapping.k_u, layer.k, "k_u"),
        (mapping.ox_u, layer.ox, "ox_u"),
        (mapping.c_u, layer.c, "c_u"),
        (mapping.fx_u, layer.fx, "fx_u"),
        (mapping.fy_u, layer.fy, "fy_u"),
    ):
        if bound % factor != 0:
            raise ValueError(
                f"infeasible mapping: {name}={factor} does not divide the loop bound {bound}")
    if mapping.rows > cfg.d_i:
        raise ValueError(
            f"infeasible mapping: {mapping.rows} rows exceed d_i={cfg.d_i}")
    if mapping.cols > cfg.d_o:
        raise ValueError(
            f"infeasible mapping: {mapping.cols} columns exceed d_o={cfg.d_o}")


def evaluate_mapping(layer: Layer, cfg: ImcMacroConfig,
                     mapping: SpatialMapping) -> MappingResult:
    """Cycle counts, weight-reload events, and per-operand traffic of one mapping.

    Weights stream from DRAM once (tiles are disjoint) but are written into the
    macro per physical column copy, so OX unrolling pays duplicate cell writes.
    Inputs reach the cache once per layer and are read per MVM for the active
    rows; the column multicast is free. Outputs stay in the accumulators until
    their reduction finishes and are then written to the cache once.
    """
    _check_feasible(layer, cfg, mapping)
    b_i, b_w, b_o, b_cycle = layer_precisions(cfg, layer.b_i, layer.b_w, layer.b_o)

    k_tiles = layer.k // mapping.k_u
    c_tiles = layer.c // mapping.c_u
    ox_tiles = layer.ox // mapping.ox_u
    fx_tiles = layer.fx // mapping.fx_u
    fy_tiles = layer.fy // mapping.fy_u

    mvms = layer.b * layer.g * k_tiles * c_tiles * ox_tiles * layer.oy * fx_tiles * fy_tiles
    loads = layer.g * k_tiles * c_tiles * fx_tiles * fy_tiles
    cycles_per_mvm = -(-b_i // b_cycle)

    traffic = dict.fromkeys(TRAFFIC_KEYS, 0)
    traffic[("W", "dram")] = layer.weight_elements * b_w
    traffic[("W", "macro")] = loads * mapping.rows * mapping.cols * b_w
    traffic[("I", "dram")] = layer.input_elements * b_i
    traffic[("I", "cache")] = mvms * mapping.rows * b_i
    traffic[("O", "cache")] = layer.output_elements * b_o

    return MappingResult(
        mapping=mapping,
        spatial_utilization=(mapping.rows * mapping.cols) / (cfg.d_i * cfg.d_o),
        mvm_invocations=mvms,
        total_cycles=mvms * cycles_per_mvm,
        weight_tile_loads=loads,
        traffic=traffic,
        in_unroll_ratio=mapping.rows / (layer.c * layer.fx * layer.fy),
        out_unroll_ratio=mapping.cols / min(cfg.d_o, layer.k * layer.ox),
    )


def best_mapping(layer: Layer, system: "SystemConfig",  # noqa: F821
                 objective: str = "energy") -> MappingResult:
    """Exhaustive search for the mapping minimizing the system-level objective.

    Ties break toward higher spatial utilization, then the lexicographically
    smallest factor tuple, so results do not depend on evaluation order.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    # System-model import deferred: system imports this module at load time.
    from .system import evaluate_layer_mapping

    best: tuple | None = None
    best_result: MappingResult | None = None
    for mapping in enumerate_mappings(layer, system.macro):
        result = evaluate_mapping(layer, system.macro, mapping)
        metrics = evaluate_layer_mapping(system, layer, result)
        if objective == "energy":
            value = metrics.energy
        elif objective == "latency":
            value = metrics.latency
        else:
            value = metrics.energy * metrics.latency
        key = (value, -result.spatial_utilization, mapping.factors())
        if best is None or key < best:
            best = key
            best_result = result
    assert best_result is not None  # all-ones mapping always enumerates
    return best_result
