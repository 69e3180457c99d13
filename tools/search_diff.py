"""Hold the mapper search to the exhaustive reference on seeded random draws.

    python3 tools/search_diff.py [--seconds N] [--seed S]

Each draw is one search: a layer with at most CANDIDATE_CAP candidates, with
or without its own b_i and b_w; a square aimc or dimc macro of 8 to 128 rows;
the objective energy, latency or edp; a technology in which each of
RESCALED's constants is kept, zeroed or rescaled by a factor between 1e-3 and
1e3; and a cache whose read and write energies are drawn the same way and
whose capacity is 64 bits, 4,096 bits or the default, so that activations
spill. Zeroed constants tie candidates, which is where a search that prices
fewer candidates than every one can go wrong. ``best_mapping``'s winner is
compared with ``exhaustive_best_mapping`` from ``tests/_oracles.py``: its five
unroll factors, and the ``repr`` of its energy and latency. A draw whose
pricing raises ValueError is skipped and counted.

Each draw also checks the premise of the search's screen: every candidate that
the exhaustive reference prices, and whose closed form (the form of the layer's
pricing entry) lies inside ``_FORM_RANGE``, must get from the form the energy
and latency it is priced at, within FORM_TOLERANCE of the priced value.

Draws run until N seconds (default: 10) have passed. On the first form
disagreement or mismatch the script prints one pytest function that reproduces
it and exits 1; otherwise it prints the number of searches, the candidates whose
form it checked and their largest deviation in units of 2**-53, how many
searches priced more than one row tuple and how many more than one column
pair, the mean and the largest number of candidates a search priced, and the
draws skipped, and exits 0. The same seed draws the same sequence. Needs numpy,
which the oracle imports.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "tests"))
                if path not in sys.path]

import _oracles  # noqa: E402
from _oracles import exhaustive_best_mapping  # noqa: E402
from imcperf import (  # noqa: E402
    OBJECTIVES,
    ImcMacroConfig,
    ImcType,
    Layer,
    MappingResult,
    SpatialMapping,
    SystemConfig,
    SystemMetrics,
    TechnologyParams,
    best_mapping,
    default_cache,
    evaluate_layer_mapping,
)
from imcperf import mapper  # noqa: E402
from imcperf.mapper import mapping_space  # noqa: E402
from imcperf.system import _FORM_RANGE, _layer_pricing  # noqa: E402

# above the 1,484 candidates of the largest dse-network layer, so draws reach
# spaces with many distinct row products
CANDIDATE_CAP = 2048
SIZES = (8, 16, 32, 64, 128)
# the energy constants a draw keeps, zeroes or rescales; dram_energy_per_bit
# belongs to SystemConfig, the rest to TechnologyParams
RESCALED = ("c_gate", "k1", "k2", "k3", "k7", "fa_energy_ratio", "dff_energy_ratio",
            "sram_cell_write_energy", "dram_energy_per_bit")
_DIVISOR_RICH = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)
_OUTPUTS = (1, 2, 3, 4, 5, 7, 8, 14, 16)
_KERNELS = (1, 2, 3, 5, 7)
# the cache energies a draw keeps, zeroes or rescales, and the capacities it
# draws from, in bits: spills nearly every layer, some, the default
_CACHE_ENERGIES = ("read_energy", "write_energy")
_CAPACITIES = (64, 4096, None)
_DEFAULT_CACHE = default_cache(ImcMacroConfig(imc_type=ImcType.AIMC, d_i=1, d_o=1))
_DEFAULTS = {**vars(TechnologyParams()), "dram_energy_per_bit": SystemConfig.dram_energy_per_bit,
             "read_energy": _DEFAULT_CACHE.read_energy,
             "write_energy": _DEFAULT_CACHE.write_energy}

# The most a candidate's closed form may differ from its priced energy or
# latency, relative to the priced value: the proof above
# imcperf.system._GAIN_MARGIN puts a priced value within 20u of the exact one
# and the form within 17u, u = 2**-53.
FORM_TOLERANCE = 40 * 2.0 ** -53

Search = Callable[[Layer, SystemConfig, str], MappingResult]
Pricing = Callable[[SystemConfig, Layer], tuple]  # as _layer_pricing


class Draw(NamedTuple):
    """One search: where it came from, and what it prices."""

    seed: int
    index: int
    imc_type: ImcType
    size: int
    objective: str
    layer: dict[str, Any]  # Layer arguments
    constants: dict[str, float]  # RESCALED values that differ from the defaults
    cache: dict[str, Any]  # default_cache fields that differ from the defaults

    def system(self) -> SystemConfig:
        macro = ImcMacroConfig(imc_type=self.imc_type, d_i=self.size, d_o=self.size)
        params = {name: value for name, value in self.constants.items()
                  if name != "dram_energy_per_bit"}
        return SystemConfig(macro=macro, params=TechnologyParams(**params),
                            cache=default_cache(macro, **self.cache),
                            dram_energy_per_bit=self.dram_energy_per_bit)

    @property
    def dram_energy_per_bit(self) -> float:
        return self.constants.get("dram_energy_per_bit", _DEFAULTS["dram_energy_per_bit"])


def draw(rng: random.Random, seed: int, index: int) -> Draw:
    """The next search of the seeded sequence."""
    imc_type = rng.choice(list(ImcType))
    size = rng.choice(SIZES)
    macro = ImcMacroConfig(imc_type=imc_type, d_i=size, d_o=size)
    while True:
        layer = {"b": rng.choice((1, 2)), "g": rng.choice((1, 1, 1, 2, 3)),
                 "k": rng.choice(_DIVISOR_RICH), "c": rng.choice(_DIVISOR_RICH),
                 "ox": rng.choice(_OUTPUTS), "oy": rng.choice(_OUTPUTS),
                 "fx": rng.choice(_KERNELS), "fy": rng.choice(_KERNELS),
                 "sx": rng.choice((1, 2)), "sy": rng.choice((1, 2)),
                 "b_i": rng.choice((None, rng.randint(1, 8))),
                 "b_w": rng.choice((None, rng.randint(1, 8)))}
        layer = {name: value for name, value in layer.items()
                 if value != getattr(Layer, name)}  # defaults left out
        rows, cols = mapping_space(Layer(**layer), macro)
        if len(rows) * len(cols) <= CANDIDATE_CAP:
            break
    constants = _rescaled(rng, RESCALED)
    cache = _rescaled(rng, _CACHE_ENERGIES)
    capacity = rng.choice(_CAPACITIES)
    if capacity is not None:
        cache["capacity_bits"] = capacity
    return Draw(seed, index, imc_type, size, rng.choice(OBJECTIVES), layer, constants, cache)


def _rescaled(rng: random.Random, names: tuple[str, ...]) -> dict[str, float]:
    """Each named default kept (left out), zeroed or rescaled by 1e-3 to 1e3."""
    values = {}
    for name in names:
        choice = rng.randrange(3)
        if choice == 1:
            values[name] = 0.0
        elif choice == 2:
            values[name] = float(f"{_DEFAULTS[name] * 10 ** rng.uniform(-3, 3):.3g}")
    return values


def _setup(case: Draw) -> str:
    """The lines of a pytest function that build the draw's layer and system."""
    layer = ", ".join(f"{name}={value!r}" for name, value in case.layer.items())
    params = "".join(f"\n        {name}={value!r}," for name, value in case.constants.items()
                     if name != "dram_energy_per_bit")
    macro = f"imc_type=ImcType.{case.imc_type.name}, d_i={case.size}, d_o={case.size}"
    cache = "".join(f"\n        {name}={value!r}," for name, value in case.cache.items())
    return f"""\
    layer = Layer({layer})
    macro = ImcMacroConfig({macro})
    params = TechnologyParams({params}
    )
    cache = default_cache(
        macro,{cache}
    )
    system = SystemConfig(macro=macro, params=params, cache=cache,
                          dram_energy_per_bit={case.dram_energy_per_bit!r})
"""


def reproducer(case: Draw, found: tuple, expected: tuple) -> str:
    """A pytest function, with its imports, that fails while the search disagrees."""
    objective = repr(case.objective)
    return f"""\
from imcperf import (ImcMacroConfig, ImcType, Layer, SystemConfig, TechnologyParams,
                     best_mapping, default_cache, evaluate_layer_mapping)
from _oracles import exhaustive_best_mapping


def test_search_diff_seed_{case.seed}_draw_{case.index}():
    # search {found}
    # exhaustive {expected}
{_setup(case)}\
    expected, expected_metrics = exhaustive_best_mapping(layer, system, {objective})
    result = best_mapping(layer, system, {objective})
    metrics = evaluate_layer_mapping(system, layer, result)
    assert result.mapping.factors() == expected.mapping.factors() == {expected[0]}
    assert repr(metrics.energy) == repr(expected_metrics.energy)
    assert repr(metrics.latency) == repr(expected_metrics.latency)
"""


def form_reproducer(case: Draw, mapping: SpatialMapping, form: tuple, priced: tuple) -> str:
    """A pytest function, with its imports, that fails while the candidate's
    closed form and its price disagree."""
    factors = ", ".join(f"{name}={value}" for name, value in vars(mapping).items())
    return f"""\
from imcperf import (ImcMacroConfig, ImcType, Layer, SpatialMapping, SystemConfig,
                     TechnologyParams, default_cache, evaluate_layer_mapping,
                     evaluate_mapping)
from imcperf.system import _layer_pricing


def test_search_diff_form_seed_{case.seed}_draw_{case.index}():
    # form (energy, latency) {form}
    # priced (energy, latency) {priced}
{_setup(case)}\
    mapping = SpatialMapping({factors})
    metrics = evaluate_layer_mapping(system, layer, evaluate_mapping(layer, macro, mapping))
    energy, latency = _layer_pricing(system, layer)[4](mapping.rows, mapping.k_u, mapping.ox_u)
    assert abs(energy - metrics.energy) <= {FORM_TOLERANCE!r} * metrics.energy
    assert abs(latency - metrics.latency) <= {FORM_TOLERANCE!r} * metrics.latency
"""


def check_form(case: Draw, form: Callable[[int, int, int], tuple[float, float]],
               priced: list[tuple[SpatialMapping, SystemMetrics]]
               ) -> tuple[str | None, int, float]:
    """A reproducer for the first priced candidate whose form lies inside
    _FORM_RANGE and disagrees with its price, or None; the candidates checked;
    and their largest relative deviation."""
    low, high = _FORM_RANGE
    checked = 0
    worst = 0.0
    for mapping, metrics in priced:
        energy, latency = form(mapping.rows, mapping.k_u, mapping.ox_u)
        if not (low < energy < high and low < latency < high):
            continue
        checked += 1
        energy_off = abs(energy - metrics.energy)
        latency_off = abs(latency - metrics.latency)
        if not (energy_off <= FORM_TOLERANCE * metrics.energy
                and latency_off <= FORM_TOLERANCE * metrics.latency):
            return (form_reproducer(case, mapping, (energy, latency),
                                    (metrics.energy, metrics.latency)), checked, worst)
        worst = max(worst, energy_off / metrics.energy, latency_off / metrics.latency)
    return None, checked, worst


def compare(case: Draw, search: Search = best_mapping,
            pricing: Pricing = _layer_pricing) -> tuple[str | None, int, float]:
    """None when every candidate's form agrees with its price and the search's
    winner is the exhaustive one, else a reproducer; and check_form's count and
    largest deviation.

    Raises ValueError when the exhaustive reference cannot price the draw. A
    search that raises ValueError where the reference did not is a mismatch.
    """
    layer, system = Layer(**case.layer), case.system()
    priced: list[tuple[SpatialMapping, SystemMetrics]] = []

    def recording(system, layer, result):
        metrics = evaluate_layer_mapping(system, layer, result)
        priced.append((result.mapping, metrics))
        return metrics

    _oracles.evaluate_layer_mapping = recording
    try:
        winner, metrics = exhaustive_best_mapping(layer, system, case.objective)
    finally:
        _oracles.evaluate_layer_mapping = evaluate_layer_mapping
    text, checked, worst = check_form(case, pricing(system, layer)[4], priced)
    if text is not None:
        return text, checked, worst
    expected = (winner.mapping.factors(), repr(metrics.energy), repr(metrics.latency))
    try:
        result = search(layer, system, case.objective)
        metrics = evaluate_layer_mapping(system, layer, result)
    except ValueError as exc:
        return reproducer(case, (repr(exc),), expected), checked, worst
    found = (result.mapping.factors(), repr(metrics.energy), repr(metrics.latency))
    return None if found == expected else reproducer(case, found, expected), checked, worst


def run(seconds: float, seed: int, search: Search = best_mapping,
        pricing: Pricing = _layer_pricing) -> int:
    """Draw and compare searches for the given time; print the outcome, return the exit code."""
    rng = random.Random(seed)
    deadline = time.monotonic() + seconds
    searches = skipped = many_rows = many_cols = priced = most = checked = 0
    worst = 0.0
    enumerate_mappings = mapper.enumerate_mappings

    def counting(layer, cfg, space=None):
        # the search's one call lists the row tuples and column pairs it prices;
        # the exhaustive reference passes no space
        nonlocal many_rows, many_cols, priced, most
        if space is not None:
            rows, cols = space
            many_rows += len(rows) > 1
            many_cols += len(cols) > 1
            priced += len(rows) * len(cols)
            most = max(most, len(rows) * len(cols))
        return enumerate_mappings(layer, cfg, space)

    mapper.enumerate_mappings = counting
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # b_cycle rounding is drawn on purpose
            while time.monotonic() < deadline:
                case = draw(rng, seed, searches + skipped)
                try:
                    text, candidates, deviation = compare(case, search, pricing)
                except ValueError:
                    skipped += 1
                    continue
                searches += 1
                checked += candidates
                worst = max(worst, deviation)
                if text is not None:
                    print(text, end="")
                    return 1
    finally:
        mapper.enumerate_mappings = enumerate_mappings
    print(f"seed {seed}: {searches} searches, 0 mismatches, 0 form disagreements over "
          f"{checked} candidates (worst {worst / 2 ** -53:.1f}u), {many_rows} priced more than "
          f"one row tuple, {many_cols} more than one column pair, "
          f"{priced / max(searches, 1):.2f} candidates priced per search (at most {most}), "
          f"{skipped} draws skipped")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to draw searches (default: 10)")
    parser.add_argument("--seed", type=int, default=1, help="random seed (default: 1)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return run(args.seconds, args.seed)


if __name__ == "__main__":
    sys.exit(main())
