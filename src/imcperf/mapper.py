"""Spatial mapping of a layer onto one weight-stationary IMC macro.

K and OX unroll across the output columns, C/FX/FY across the input rows;
G stays temporal on a single macro. The temporal schedule is fixed: weight-tile
loops outermost (weight stationary), OY and B in the middle, reduction tiles
innermost so partial sums never leave the accumulators. Only divisors of the
loop bounds are admitted as unroll factors, which keeps tile arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Iterable, Iterator

from .macro import ImcMacroConfig, layer_precisions
from .workload import Layer, WorkloadError

__all__ = [
    "SpatialMapping",
    "MappingResult",
    "TRAFFIC_KEYS",
    "mapping_space",
    "enumerate_mappings",
    "evaluate_mapping",
    "best_mapping",
    "OBJECTIVES",
    "MAX_CANDIDATES",
]

OBJECTIVES = ("energy", "latency", "edp")

# Largest mapping space one layer may search. The bundled and benchmark layers
# need at most a few thousand candidates; a space this large would take minutes.
MAX_CANDIDATES = 200_000

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
    """The divisors of n that are at most limit, ascending.

    Factors beyond the array dimension can never fit, so they are not
    enumerated. Trial division stops at min(isqrt(n), limit): each divisor d
    found there pairs with n // d, and every divisor above isqrt(n) is such a
    partner.
    """
    low: list[int] = []
    high: list[int] = []
    for d in range(1, min(isqrt(n), limit) + 1):
        if n % d == 0:
            low.append(d)
            partner = n // d
            if partner != d and partner <= limit:
                high.append(partner)
    return low + high[::-1]


def mapping_space(layer: Layer, cfg: ImcMacroConfig
                  ) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """The (c_u, fx_u, fy_u) row tuples and (k_u, ox_u) column pairs that fit.

    Every row tuple combines with every column pair, so the layer has
    len(rows) * len(cols) candidates; both lists are in lexicographic order.
    Raises WorkloadError when that product exceeds MAX_CANDIDATES.
    """
    d_i, d_o = cfg.d_i, cfg.d_o
    fx_divisors = _divisors(layer.fx, d_i)
    fy_divisors = _divisors(layer.fy, d_i)
    row_candidates = [
        (c_u, fx_u, fy_u)
        for c_u in _divisors(layer.c, d_i)
        for fx_u in fx_divisors
        for fy_u in fy_divisors
        if c_u * fx_u * fy_u <= d_i
    ]
    ox_divisors = _divisors(layer.ox, d_o)
    col_candidates = [
        (k_u, ox_u)
        for k_u in _divisors(layer.k, d_o)
        for ox_u in ox_divisors
        if k_u * ox_u <= d_o
    ]
    count = len(row_candidates) * len(col_candidates)
    if count > MAX_CANDIDATES:
        name = repr(layer.name) if layer.name else repr(layer)
        raise WorkloadError(
            f"layer {name} has {count} mapping candidates on a {cfg.d_i} x {cfg.d_o} "
            f"macro, more than the search budget of {MAX_CANDIDATES}")
    return row_candidates, col_candidates


def enumerate_mappings(layer: Layer, cfg: ImcMacroConfig) -> list[SpatialMapping]:
    """All divisor-only unroll factor tuples fitting the array capacity.

    The all-ones mapping always qualifies, so the list is never empty. Order is
    lexicographic in (k_u, ox_u, c_u, fx_u, fy_u) for deterministic iteration.
    Raises WorkloadError, before building any mapping, when the layer has more
    than MAX_CANDIDATES of them.
    """
    row_candidates, col_candidates = mapping_space(layer, cfg)
    # The factors are _divisors output, so ints >= 1 that __post_init__ accepts.
    # Each mapping takes its field dict, in field order, as its __dict__: the
    # generated __init__ would set each field through object.__setattr__, which
    # is most of what building a mapping costs. Equality, hashing, repr,
    # frozenness, replace() and pickling read the fields, so they are the same
    # as for a constructor-built instance.
    new = object.__new__
    set_dict = object.__setattr__
    mappings = []
    append = mappings.append
    for k_u, ox_u in col_candidates:
        for c_u, fx_u, fy_u in row_candidates:
            mapping = new(SpatialMapping)
            set_dict(mapping, "__dict__",
                     {"k_u": k_u, "ox_u": ox_u, "c_u": c_u, "fx_u": fx_u, "fy_u": fy_u})
            append(mapping)
    return mappings


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


def _mapping_terms(layer: Layer, cfg: ImcMacroConfig
                   ) -> tuple[Callable, Callable, Callable]:
    """The row terms, column terms and results of the layer's mappings on cfg.

    A mapping's counts factor into terms of its row tuple and terms of its
    column pair. A search computes each tuple's and each pair's terms once and
    combines them per candidate; evaluate_mapping combines the terms of one
    mapping, so both price a mapping through the same equations in results.
    """
    b_i, b_w, b_o, b_cycle = layer_precisions(cfg, layer.b_i, layer.b_w, layer.b_o)
    k, ox, c, fx, fy, g = layer.k, layer.ox, layer.c, layer.fx, layer.fy, layer.g
    b_oy = layer.b * layer.oy  # batch x output rows: temporal loops no unrolling touches
    reduction = c * fx * fy
    col_bound = min(cfg.d_o, k * ox)
    array_cells = cfg.d_i * cfg.d_o
    cycles_per_mvm = -(-b_i // b_cycle)
    # every traffic entry but the two that depend on the mapping, in key order
    base_traffic = dict.fromkeys(TRAFFIC_KEYS, 0)
    base_traffic[("W", "dram")] = layer.weight_elements * b_w
    base_traffic[("I", "dram")] = layer.input_elements * b_i
    base_traffic[("O", "cache")] = layer.output_elements * b_o

    def row_terms(c_u: int, fx_u: int, fy_u: int) -> tuple[int, int, float]:
        """rows, the C x FX x FY reduction tiles, rows/reduction."""
        rows = c_u * fx_u * fy_u
        return rows, (c // c_u) * (fx // fx_u) * (fy // fy_u), rows / reduction

    def col_terms(k_u: int, ox_u: int) -> tuple[int, int, int, float]:
        """cols, the G x K weight tiles, the OX x B x OY MVMs per tile, cols/col_bound."""
        cols = k_u * ox_u
        return cols, g * (k // k_u), (ox // ox_u) * b_oy, cols / col_bound

    def results(mappings: Iterable[SpatialMapping], row_terms: list[tuple[int, int, float]],
                col_terms: list[tuple[int, int, int, float]]) -> Iterator[MappingResult]:
        """The result of each mapping, from the terms of its row tuple and column pair.

        mappings lists every column pair outer and every row tuple inner, in
        the order of col_terms and row_terms. Each result is built like the
        mappings of enumerate_mappings: its field dict becomes its __dict__.
        """
        new = object.__new__
        set_dict = object.__setattr__
        mapping_iter = iter(mappings)
        for cols, weight_tiles, mvms_per_load, out_ratio in col_terms:
            # row_terms comes first, so zip stops without taking the next mapping
            for (rows, reduction_tiles, in_ratio), mapping in zip(row_terms, mapping_iter):
                loads = weight_tiles * reduction_tiles
                mvms = loads * mvms_per_load
                traffic = base_traffic.copy()
                traffic[("W", "macro")] = loads * rows * cols * b_w
                traffic[("I", "cache")] = mvms * rows * b_i
                result = new(MappingResult)
                set_dict(result, "__dict__", {
                    "mapping": mapping,
                    "spatial_utilization": (rows * cols) / array_cells,
                    "mvm_invocations": mvms,
                    "total_cycles": mvms * cycles_per_mvm,
                    "weight_tile_loads": loads,
                    "traffic": traffic,
                    "in_unroll_ratio": in_ratio,
                    "out_unroll_ratio": out_ratio,
                })
                yield result

    return row_terms, col_terms, results


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
    row_terms, col_terms, results = _mapping_terms(layer, cfg)
    return next(results((mapping,), [row_terms(mapping.c_u, mapping.fx_u, mapping.fy_u)],
                        [col_terms(mapping.k_u, mapping.ox_u)]))


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
    best_value = 0.0
    best_result: MappingResult | None = None
    cfg = system.macro
    mappings = enumerate_mappings(layer, cfg)
    row_terms, col_terms, results = _mapping_terms(layer, cfg)
    # The list holds every column pair outer and every row tuple inner, so its
    # first run of one column pair lists the row tuples and every run-th entry
    # starts the next column pair.
    first = mappings[0]
    run = next((i for i, m in enumerate(mappings)
                if m.k_u != first.k_u or m.ox_u != first.ox_u), len(mappings))
    for result in results(mappings, [row_terms(m.c_u, m.fx_u, m.fy_u) for m in mappings[:run]],
                          [col_terms(m.k_u, m.ox_u) for m in mappings[::run]]):
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
    assert best_result is not None  # all-ones mapping always enumerates
    return best_result
