"""Spatial mapping of a layer onto one weight-stationary IMC macro.

K and OX unroll across the output columns, C/FX/FY across the input rows;
G stays temporal on a single macro. The temporal schedule is fixed: weight-tile
loops outermost (weight stationary), OY and B in the middle, reduction tiles
innermost so partial sums never leave the accumulators. Only divisors of the
loop bounds are admitted as unroll factors, which keeps tile arithmetic exact.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

from .components import _check_count
from .macro import ImcMacroConfig, layer_precisions
from .workload import Layer, WorkloadError

__all__ = [
    "SpatialMapping",
    "MappingResult",
    "TRAFFIC_KEYS",
    "mapping_space",
    "enumerate_mappings",
    "evaluate_mapping",
    "MAX_CANDIDATES",
]

# Largest mapping space one layer may search. The search counts the space from
# its divisor lists and prices a few candidates, so this bounds what
# mapping_space lists and an exhaustive enumerate_mappings builds.
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
            _check_count(name, getattr(self, name))

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


@lru_cache(maxsize=1024)
def _kept_divisors(n: int, limit: int) -> list[int]:
    """_divisors(n, limit), worked out once per process: a network's layers
    and design points share few loop bounds and array sizes. Read it only."""
    return _divisors(n, limit)


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
        raise _over_budget(layer, cfg, count)
    return row_candidates, col_candidates


def _over_budget(layer: Layer, cfg: ImcMacroConfig, count: int) -> WorkloadError:
    """The error that refuses a layer of count candidates on the macro."""
    name = repr(layer.name) if layer.name else repr(layer)
    return WorkloadError(
        f"layer {name} has {count} mapping candidates on a {cfg.d_i} x {cfg.d_o} "
        f"macro, more than the search budget of {MAX_CANDIDATES}")


def _space_outline(layer: Layer, cfg: ImcMacroConfig
                   ) -> tuple[dict[int, tuple[int, int, int]], dict[int, list[int]]]:
    """What the search reads of the layer's mapping_space, without listing it:
    the first (c_u, fx_u, fy_u) row tuple of each row product, keyed by the
    product, in lexicographic order, and the k_u that fit beside each ox_u,
    both ascending.

    Raises mapping_space's WorkloadError, before building the row tuples'
    firsts, when the layer has more than MAX_CANDIDATES candidates. Unless the
    divisor lists' lengths rule that out, the row tuples are counted with one
    bisection of the fy_u divisors per (c_u, fx_u), and the column pairs are
    the k_u beside each ox_u.
    """
    d_i, d_o = cfg.d_i, cfg.d_o
    c_divisors = _kept_divisors(layer.c, d_i)
    fx_divisors = _kept_divisors(layer.fx, d_i)
    fy_divisors = _kept_divisors(layer.fy, d_i)
    k_divisors = _kept_divisors(layer.k, d_o)
    ox_divisors = _kept_divisors(layer.ox, d_o)
    tops = {ox_u: k_divisors[:bisect_right(k_divisors, d_o // ox_u)]
            for ox_u in ox_divisors}
    if (len(c_divisors) * len(fx_divisors) * len(fy_divisors)
            * len(k_divisors) * len(ox_divisors) > MAX_CANDIDATES):
        cols = sum(map(len, tops.values()))
        rows = 0
        for c_u in c_divisors:
            room = d_i // c_u
            for fx_u in fx_divisors:
                if fx_u > room:
                    break
                rows += bisect_right(fy_divisors, room // fx_u)
        if rows * cols > MAX_CANDIDATES:
            raise _over_budget(layer, cfg, rows * cols)
    # The first tuple of a row product takes the least c_u it can, and then
    # the first (fx_u, fy_u) pair of the rest of the product.
    pairs: dict[int, tuple[int, int]] = {}
    for fx_u in fx_divisors:
        for fy_u in fy_divisors[:bisect_right(fy_divisors, d_i // fx_u)]:
            pairs.setdefault(fx_u * fy_u, (fx_u, fy_u))
    firsts: dict[int, tuple[int, int, int]] = {}
    for c_u in c_divisors:
        room = d_i // c_u
        for product, (fx_u, fy_u) in pairs.items():
            if product <= room:
                firsts.setdefault(c_u * product, (c_u, fx_u, fy_u))
    return firsts, tops


def enumerate_mappings(
        layer: Layer, cfg: ImcMacroConfig,
        space: tuple[list[tuple[int, int, int]], list[tuple[int, int]]] | None = None,
) -> list[SpatialMapping]:
    """The mappings of space: each (k_u, ox_u) column pair with each (c_u, fx_u, fy_u)
    row tuple, column pairs outer.

    Without a space, the layer's whole mapping_space: every divisor-only unroll
    factor tuple fitting the array capacity. The all-ones mapping always
    qualifies, so that list is never empty, and its order is lexicographic in
    (k_u, ox_u, c_u, fx_u, fy_u). Raises WorkloadError, before building any
    mapping, when the layer has more than MAX_CANDIDATES of them. A given space
    is not checked: its tuples come from the layer's mapping_space.
    """
    row_candidates, col_candidates = mapping_space(layer, cfg) if space is None else space
    return [SpatialMapping(k_u, ox_u, c_u, fx_u, fy_u)
            for k_u, ox_u in col_candidates for c_u, fx_u, fy_u in row_candidates]


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
    k_u, ox_u, c_u, fx_u, fy_u = mapping.factors()
    rows = c_u * fx_u * fy_u
    cols = k_u * ox_u
    # G x K weight tiles times the C x FX x FY reduction tiles
    loads = layer.g * (layer.k // k_u) * (
        (layer.c // c_u) * (layer.fx // fx_u) * (layer.fy // fy_u))
    # OX x B x OY MVMs per tile; batch and output rows are never unrolled
    mvms = loads * ((layer.ox // ox_u) * (layer.b * layer.oy))
    traffic = dict.fromkeys(TRAFFIC_KEYS, 0)
    traffic[("W", "dram")] = layer.weight_elements * b_w
    traffic[("W", "macro")] = loads * rows * cols * b_w
    traffic[("I", "dram")] = layer.input_elements * b_i
    traffic[("I", "cache")] = mvms * rows * b_i
    traffic[("O", "cache")] = layer.output_elements * b_o
    return MappingResult(
        mapping=mapping,
        spatial_utilization=(rows * cols) / (cfg.d_i * cfg.d_o),
        mvm_invocations=mvms,
        total_cycles=mvms * -(-b_i // b_cycle),
        weight_tile_loads=loads,
        traffic=traffic,
        in_unroll_ratio=rows / (layer.c * layer.fx * layer.fy),
        out_unroll_ratio=cols / min(cfg.d_o, layer.k * layer.ox),
    )
