import copy
import pickle
import random
import sys
import threading
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imcperf import (
    OBJECTIVES,
    ImcMacroConfig,
    ImcType,
    Layer,
    SpatialMapping,
    SystemConfig,
    TechnologyParams,
    WorkloadError,
    best_mapping,
    default_cache,
    default_system_config,
    enumerate_mappings,
    evaluate_layer_mapping,
    evaluate_mapping,
    layer_system_metrics,
    total_macs,
)
from imcperf import mapper
from imcperf import system as system_module
from _oracles import (
    exhaustive_best_mapping,
    layer_metrics_oracle,
    mapping_result_oracle,
    random_oracle_cases,
    simulate_mapping,
)

FC = Layer(k=128, c=640)
PW = Layer(k=64, c=64, ox=12, oy=12)
DW = Layer(g=64, ox=25, oy=5, fx=3, fy=3)
CONV = Layer(k=16, c=16, ox=32, oy=32, fx=3, fy=3)
FIXTURES = (FC, PW, DW, CONV)

SIZES = (32, 64, 128, 256, 512, 1024)


def dimc(d):
    return ImcMacroConfig(imc_type=ImcType.DIMC, d_i=d, d_o=d)


def aimc(d):
    return ImcMacroConfig(imc_type=ImcType.AIMC, d_i=d, d_o=d)


class TestEnumerate:
    def test_depthwise_candidates(self):
        mappings = enumerate_mappings(DW, dimc(32))
        assert len(mappings) == 12
        assert {m.ox_u for m in mappings} == {1, 5, 25}
        assert {m.fx_u for m in mappings} == {1, 3}
        assert all(m.k_u == 1 and m.c_u == 1 for m in mappings)
        assert mappings == sorted(mappings, key=lambda m: m.factors())

    def test_all_ones_always_present(self):
        for layer in FIXTURES:
            cfg = dimc(32)
            mappings = enumerate_mappings(layer, cfg)
            assert SpatialMapping() in mappings
            result = evaluate_mapping(layer, cfg, SpatialMapping())
            assert result.spatial_utilization == pytest.approx(1 / (32 * 32))

    def test_capacity_respected(self):
        for layer in FIXTURES:
            for cfg in (dimc(32), aimc(64)):
                for m in enumerate_mappings(layer, cfg):
                    assert m.rows <= cfg.d_i
                    assert m.cols <= cfg.d_o

    def test_oversized_bounds_prune_cleanly(self):
        # divisor enumeration is capped by the array dimension
        wide = Layer(k=1 << 20, c=1 << 20)
        mappings = enumerate_mappings(wide, dimc(32))
        assert max(m.k_u for m in mappings) == 32
        assert max(m.c_u for m in mappings) == 32


class TestDivisors:
    """_divisors trial-divides up to min(isqrt(n), limit) and pairs each divisor
    with its cofactor; the list must be the one a scan up to min(n, limit) gives."""

    @staticmethod
    def brute_force(n, limit):
        return [d for d in range(1, min(n, limit) + 1) if n % d == 0]

    @settings(max_examples=200)
    @given(n=st.integers(1, 5000) | st.integers(1, 2**40)
           | st.sampled_from((2**40, 720720, 2**32, 65536 * 65535, 65521 * 65537, 4096**2)),
           limit=st.integers(1, 300) | st.sampled_from((4096, 65536)))
    @example(n=2**40, limit=65536)
    @example(n=36, limit=6)
    def test_matches_the_brute_force_list(self, n, limit):
        stops = []

        def counting_range(start, stop):
            stops.append(stop)
            return range(start, stop)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mapper, "range", counting_range, raising=False)
            divisors = mapper._divisors(n, limit)
        assert divisors == self.brute_force(n, limit)
        # one loop, and never longer than the scan it replaces
        assert len(stops) == 1 and stops[0] - 1 <= min(n, limit)

    def test_mapping_space_divides_each_loop_bound_once(self, monkeypatch):
        calls = []
        divisors = mapper._divisors

        def counted(n, limit):
            calls.append((n, limit))
            return divisors(n, limit)

        monkeypatch.setattr(mapper, "_divisors", counted)
        rows, cols = mapper.mapping_space(CONV, dimc(64))
        assert len(rows) * len(cols) > 100
        assert sorted(calls) == sorted([(16, 64), (3, 64), (3, 64), (16, 64), (32, 64)])


_LAYERS_FOR_SPACE = st.builds(
    Layer, g=st.integers(1, 3), k=st.integers(1, 48), c=st.integers(1, 48),
    ox=st.integers(1, 24), oy=st.integers(1, 4), fx=st.integers(1, 5), fy=st.integers(1, 5))


class TestCandidateBudget:
    # 2,852,721 candidates on a 4096 x 4096 macro: minutes of search without the budget
    HUGE = Layer(k=5040, c=5040, ox=5040, fx=5040, name="huge")

    def test_oversized_search_space_is_refused_before_enumeration(self):
        with pytest.raises(WorkloadError, match="'huge' has 2852721 mapping candidates"):
            enumerate_mappings(self.HUGE, dimc(4096))
        system = default_system_config(dimc(4096))
        with pytest.raises(WorkloadError, match="search budget of 200000"):
            layer_system_metrics(system, self.HUGE)

    def test_budget_is_inclusive(self, monkeypatch):
        count = len(enumerate_mappings(CONV, dimc(64)))
        monkeypatch.setattr(mapper, "MAX_CANDIDATES", count)
        assert len(enumerate_mappings(CONV, dimc(64))) == count
        monkeypatch.setattr(mapper, "MAX_CANDIDATES", count - 1)
        with pytest.raises(WorkloadError, match=f"has {count} mapping candidates"):
            enumerate_mappings(CONV, dimc(64))


class TestEvaluate:
    def test_conv_tile_metrics(self):
        result = evaluate_mapping(CONV, dimc(256), SpatialMapping(16, 16, 16, 3, 3))
        assert result.mapping.rows == 144
        assert result.mapping.cols == 256
        assert result.spatial_utilization == pytest.approx(0.5625)
        assert result.in_unroll_ratio == pytest.approx(1.0)
        assert result.out_unroll_ratio == pytest.approx(1.0)
        assert result.mvm_invocations == 2 * CONV.oy
        assert result.weight_tile_loads == 1

    def test_mac_conservation(self):
        for layer in FIXTURES:
            cfg = dimc(64)
            for m in enumerate_mappings(layer, cfg):
                r = evaluate_mapping(layer, cfg, m)
                assert r.mvm_invocations * m.rows * m.cols == total_macs(layer)

    def test_utilization_bounds(self):
        for layer in FIXTURES:
            cfg = dimc(32)
            for m in enumerate_mappings(layer, cfg):
                r = evaluate_mapping(layer, cfg, m)
                assert 0 < r.spatial_utilization <= 1
                full = m.rows == cfg.d_i and m.cols == cfg.d_o
                assert (r.spatial_utilization == 1) == full

    def test_serial_input_stretches_cycles(self):
        m = SpatialMapping(16, 1, 16, 1, 1)
        fast = evaluate_mapping(FC, aimc(32), m)  # 2 bits per cycle
        slow = evaluate_mapping(FC, dimc(32), m)  # 1 bit per cycle
        assert fast.mvm_invocations == slow.mvm_invocations
        assert slow.total_cycles == 2 * fast.total_cycles

    def test_infeasible_mappings_raise(self):
        with pytest.raises(ValueError, match="does not divide"):
            evaluate_mapping(DW, dimc(32), SpatialMapping(ox_u=2))
        with pytest.raises(ValueError, match="rows exceed"):
            evaluate_mapping(FC, dimc(32), SpatialMapping(c_u=64))
        with pytest.raises(ValueError, match="columns exceed"):
            evaluate_mapping(FC, dimc(32), SpatialMapping(k_u=64))

    def test_traffic_against_loop_nest_simulation(self):
        hits = 0
        for layer, d_i, d_o, mapping in random_oracle_cases(60, seed=20260816):
            cfg = ImcMacroConfig(imc_type=ImcType.DIMC, d_i=d_i, d_o=d_o)
            result = evaluate_mapping(layer, cfg, mapping)
            sim = simulate_mapping(layer, mapping, cfg.b_i, cfg.b_w, cfg.b_o)
            assert result.mvm_invocations == sim.mvms
            assert result.weight_tile_loads == sim.loads
            assert result.total_cycles == sim.mvms * cfg.cycles_per_mvm
            assert result.traffic[("W", "macro")] == sim.weight_macro_bits
            assert result.traffic[("W", "dram")] == sim.weight_dram_bits
            assert result.traffic[("I", "cache")] == sim.input_cache_bits
            assert result.traffic[("O", "cache")] == sim.output_cache_bits
            assert sim.macs == total_macs(layer)
            hits += 1
        assert hits >= 50


class TestBestMapping:
    def test_fully_resident_fc(self):
        system = default_system_config(aimc(1024))
        result = best_mapping(FC, system, "energy")
        assert result.mvm_invocations == 1
        assert result.weight_tile_loads == 1
        assert result.mapping.rows == 640
        assert result.mapping.cols == 128

    def test_depthwise_prefers_full_kernel_rows(self):
        system = default_system_config(dimc(1024))
        result = best_mapping(DW, system, "energy")
        assert result.mapping.fx_u == 3 and result.mapping.fy_u == 3
        assert result.in_unroll_ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_objectives_accepted(self, objective):
        system = default_system_config(dimc(64))
        result = best_mapping(PW, system, objective)
        assert result.mvm_invocations >= 1

    def test_unknown_objective_rejected(self):
        system = default_system_config(dimc(64))
        with pytest.raises(ValueError, match="objective"):
            best_mapping(PW, system, "throughput")

    def test_utilization_breaks_an_objective_tie(self):
        # (16, 1, 36, 1, 1) takes 16 compute + 8 weight-stall cycles and
        # (16, 2, 36, 1, 1) takes 8 + 16: the same latency, bit for bit. The
        # first in enumeration order fills half as much of the array, so only
        # the utilization tie-break picks the second.
        layer = Layer(k=16, c=36, ox=2)
        system = default_system_config(dimc(64))
        latency = {}
        for mapping in enumerate_mappings(layer, system.macro):
            result = evaluate_mapping(layer, system.macro, mapping)
            latency[mapping.factors()] = evaluate_layer_mapping(system, layer, result).latency
        fastest = [factors for factors, value in latency.items()
                   if value == min(latency.values())]
        assert fastest == [(16, 1, 36, 1, 1), (16, 2, 36, 1, 1)]
        result, metrics = layer_system_metrics(system, layer, "latency")
        assert result.mapping.factors() == (16, 2, 36, 1, 1)
        assert result.spatial_utilization == 2 * evaluate_mapping(
            layer, system.macro, SpatialMapping(16, 1, 36)).spatial_utilization
        assert (result, metrics) == exhaustive_best_mapping(layer, system, "latency")

    @pytest.mark.parametrize("objective", ["energy", "latency"])
    def test_array_growth_never_adds_invocations(self, objective):
        for make in (aimc, dimc):
            for layer in FIXTURES:
                best = [
                    best_mapping(layer, default_system_config(make(d)), objective)
                    for d in SIZES
                ]
                counts = [r.mvm_invocations for r in best]
                assert all(a >= b for a, b in zip(counts, counts[1:])), (
                    make.__name__, layer, counts)


class TestMappingSpace:
    """mapping_space lists the row tuples and column pairs that
    enumerate_mappings combines; the two must never disagree."""

    @settings(max_examples=80)
    @given(layer=_LAYERS_FOR_SPACE, d_i=st.sampled_from((1, 2, 4, 8, 16, 32, 64)),
           d_o=st.sampled_from((1, 2, 4, 8, 16, 32, 64)))
    def test_rows_times_columns_is_the_candidate_count(self, layer, d_i, d_o):
        macro = ImcMacroConfig(imc_type=ImcType.DIMC, d_i=d_i, d_o=d_o)
        rows, cols = mapper.mapping_space(layer, macro)
        mappings = enumerate_mappings(layer, macro)
        assert len(rows) * len(cols) == len(mappings)
        assert mappings == [SpatialMapping(k_u, ox_u, c_u, fx_u, fy_u)
                            for k_u, ox_u in cols for c_u, fx_u, fy_u in rows]

    @settings(max_examples=80)
    @given(layer=_LAYERS_FOR_SPACE, d_i=st.sampled_from((1, 3, 4, 12, 16, 64)),
           d_o=st.sampled_from((1, 3, 4, 12, 16, 64)))
    def test_list_is_column_pairs_outer_row_tuples_inner(self, layer, d_i, d_o):
        # best_mapping reads the row tuples off the list's first run of one
        # column pair, and the column pairs off every run-th entry
        macro = ImcMacroConfig(imc_type=ImcType.DIMC, d_i=d_i, d_o=d_o)
        rows, cols = mapper.mapping_space(layer, macro)
        mappings = enumerate_mappings(layer, macro)
        first = (mappings[0].k_u, mappings[0].ox_u)
        run = [(m.k_u, m.ox_u) for m in mappings].count(first)
        assert run == len(rows)
        assert all((m.k_u, m.ox_u) == first for m in mappings[:run])
        assert [(m.c_u, m.fx_u, m.fy_u) for m in mappings[:run]] == rows
        assert [(m.k_u, m.ox_u) for m in mappings[::run]] == cols

    def test_budget_error_is_the_same(self):
        huge = TestCandidateBudget.HUGE
        with pytest.raises(WorkloadError) as space:
            mapper.mapping_space(huge, dimc(4096))
        with pytest.raises(WorkloadError) as listed:
            enumerate_mappings(huge, dimc(4096))
        assert str(space.value) == str(listed.value)
        assert "'huge' has 2852721 mapping candidates" in str(space.value)


class TestMappingContext:
    """Whatever evaluate_mapping evaluated before, on this thread or another,
    every result must equal one derived from the loop bounds alone."""

    @staticmethod
    def _interleaved_pool():
        """(layer, macro, mapping, expected) whose contexts differ in one input at a
        time, plus equal but distinct copies of a layer and of a macro."""
        base = ImcMacroConfig(imc_type=ImcType.AIMC, d_i=32, d_o=32)
        macros = [
            base,
            ImcMacroConfig(imc_type=ImcType.AIMC, d_i=32, d_o=32),
            replace(base, d_o=16),
            replace(base, b_w=4, b_cycle=1),
            replace(base, imc_type=ImcType.DIMC, b_o=16),
        ]
        layers = [
            Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3),
            Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3),
            Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3, b_i=4, b_w=2, b_o=4),
            Layer(k=16, c=8, ox=4, oy=2, fx=3, fy=3, sx=2),
        ]
        assert macros[0] == macros[1] and macros[0] is not macros[1]
        assert layers[0] == layers[1] and layers[0] is not layers[1]
        return [(layer, macro, mapping, mapping_result_oracle(layer, macro, mapping))
                for macro in macros for layer in layers
                for mapping in enumerate_mappings(layer, macro)[::5]]

    def test_context_is_never_stale_across_interleaved_layers_and_macros(self):
        pool = self._interleaved_pool()
        rng = random.Random(11)
        for _ in range(4):
            rng.shuffle(pool)
            for layer, macro, mapping, expected in pool:
                assert evaluate_mapping(layer, macro, mapping) == expected

    def test_context_is_never_stale_across_threads(self):
        pool = self._interleaved_pool()
        failures = []

        def worker(seed):
            order = list(pool)
            random.Random(seed).shuffle(order)
            for _ in range(3):
                for layer, macro, mapping, expected in order:
                    if evaluate_mapping(layer, macro, mapping) != expected:
                        failures.append((seed, layer, macro, mapping))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestErrorText:
    """The fast paths fall back to the checks that word every error."""

    LAYER = Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3)

    @pytest.mark.parametrize("mapping, message", [
        (SpatialMapping(k_u=3), "k_u=3 does not divide the loop bound 16"),
        (SpatialMapping(ox_u=3), "ox_u=3 does not divide the loop bound 4"),
        (SpatialMapping(c_u=3), "c_u=3 does not divide the loop bound 8"),
        (SpatialMapping(fx_u=2), "fx_u=2 does not divide the loop bound 3"),
        (SpatialMapping(fy_u=2), "fy_u=2 does not divide the loop bound 3"),
        (SpatialMapping(c_u=8, fx_u=3, fy_u=3), "72 rows exceed d_i=32"),
        (SpatialMapping(k_u=16, ox_u=4), "64 columns exceed d_o=32"),
        # the first failing check names the error
        (SpatialMapping(k_u=16, ox_u=4, c_u=8, fx_u=3, fy_u=2),
         "fy_u=2 does not divide the loop bound 3"),
        (SpatialMapping(k_u=16, ox_u=4, c_u=8, fx_u=3, fy_u=3), "72 rows exceed d_i=32"),
    ])
    def test_infeasible_mapping_messages(self, mapping, message):
        with pytest.raises(ValueError) as info:
            evaluate_mapping(self.LAYER, dimc(32), mapping)
        assert str(info.value) == f"infeasible mapping: {message}"

    @pytest.mark.parametrize("field, value, shown", [
        ("k_u", 0, "0"),
        ("ox_u", -1, "-1"),
        ("c_u", 1.0, "1.0"),
        ("fy_u", "2", "'2'"),
    ])
    def test_spatial_mapping_messages(self, field, value, shown):
        with pytest.raises(ValueError) as info:
            SpatialMapping(**{field: value})
        assert str(info.value) == f"{field} must be an integer >= 1, got {shown}"

    def test_first_bad_factor_is_named(self):
        with pytest.raises(ValueError, match="^k_u must be"):
            SpatialMapping(k_u=0, fy_u="2")

    def test_bool_factor_is_still_accepted(self):
        mapping = SpatialMapping(k_u=True)
        assert mapping.k_u is True and mapping.cols == 1

    def test_oversized_mapping_message(self):
        system = default_system_config(dimc(32))
        result = evaluate_mapping(self.LAYER, dimc(64), SpatialMapping(k_u=16, ox_u=4, c_u=8))
        with pytest.raises(ValueError) as info:
            evaluate_layer_mapping(system, self.LAYER, result)
        assert str(info.value) == "a 8 x 64 mapping does not fit the 32 x 32 macro"


_LAYERS = st.builds(
    Layer,
    b=st.integers(1, 2), g=st.integers(1, 3), k=st.integers(1, 24), c=st.integers(1, 24),
    ox=st.integers(1, 12), oy=st.integers(1, 6), fx=st.integers(1, 3), fy=st.integers(1, 3),
    sx=st.integers(1, 2), sy=st.integers(1, 2),
    b_i=st.none() | st.integers(1, 8), b_w=st.none() | st.integers(1, 8),
    b_o=st.none() | st.integers(1, 16),
)
_MACRO_OPTIONS = st.fixed_dictionaries({
    "d_i": st.sampled_from((4, 8, 16, 32, 64)),
    "d_o": st.sampled_from((4, 8, 16, 32, 64)),
    "b_cycle": st.integers(1, 4),
    "pipelined": st.booleans(),
    "weight_sparsity": st.sampled_from((0.0, 0.3, 0.75)),
    "adc_resolution_from_full_precision": st.booleans(),
})
# bits: spills nearly every layer's inputs and outputs, some, none
_CAPACITIES = st.sampled_from((64, 4096, 256 * 1024 * 8))
_DEFAULT_DRAM = SystemConfig.dram_energy_per_bit  # the field default


@st.composite
def _technologies(draw):
    """(params, dram_energy_per_bit), with constants zeroed that tie candidates.

    Free cell writes tie every column split of one column count, free DRAM
    prices weights and spilled activations at nothing, and free full adders
    and flip-flops zero the digital trees, accumulators and registers.
    """
    params = TechnologyParams()
    if draw(st.booleans()):
        params = replace(params, sram_cell_write_energy=0.0)
    if draw(st.booleans()):
        params = replace(params, fa_energy_ratio=0.0, dff_energy_ratio=0.0)
    return params, draw(st.sampled_from((_DEFAULT_DRAM, 0.0)))


_BOTH_SPILL = dict(layer=Layer(k=8, c=8, ox=6, oy=6, fx=3, fy=3, b_i=7),
                   options=dict(d_i=16, d_o=16, b_cycle=3, pipelined=True,
                                weight_sparsity=0.3, adc_resolution_from_full_precision=True),
                   capacity=64, technology=(TechnologyParams(), _DEFAULT_DRAM))


class TestSearchProperty:
    """best_mapping must pick what an exhaustive search with the same tie-break
    picks, with equal metrics, on random layers, macros, caches and
    technologies, degenerate ones included."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("imc_type", list(ImcType), ids=lambda t: t.value)
    @settings(max_examples=40)
    @example(**_BOTH_SPILL)
    @given(layer=_LAYERS, options=_MACRO_OPTIONS, capacity=_CAPACITIES,
           technology=_technologies())
    def test_search_matches_the_exhaustive_reference(self, imc_type, objective,
                                                     layer, options, capacity, technology):
        params, dram_energy_per_bit = technology
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # b_cycle rounding is drawn on purpose
            macro = ImcMacroConfig(imc_type=imc_type, **options)
            cache = replace(default_cache(macro), capacity_bits=capacity)
            system = SystemConfig(macro=macro, params=params, cache=cache,
                                  dram_energy_per_bit=dram_energy_per_bit)
            expected = exhaustive_best_mapping(layer, system, objective)
            result, metrics = layer_system_metrics(system, layer, objective)
        assert result.mapping == expected[0].mapping
        assert (result, metrics) == expected

    def test_pinned_example_spills_both_activations(self):
        options, capacity = _BOTH_SPILL["options"], _BOTH_SPILL["capacity"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            macro = ImcMacroConfig(imc_type=ImcType.AIMC, **options)
            system = SystemConfig(macro=macro, params=TechnologyParams(),
                                  cache=replace(default_cache(macro), capacity_bits=capacity))
            _, metrics = layer_system_metrics(system, _BOTH_SPILL["layer"])
        assert [note.split(" ")[0] for note in metrics.warnings] == ["input", "output"]


class TestBuiltObjects:
    """The search builds its SpatialMapping, MappingResult and SystemMetrics
    objects without the generated __init__. Each must be indistinguishable from
    the one the public constructor builds from values derived independently."""

    @staticmethod
    def _systems():
        rng = random.Random(8)
        for _ in range(3):
            layer = Layer(b=rng.randint(1, 2), g=rng.randint(1, 2), k=rng.randint(1, 12),
                          c=rng.randint(1, 12), ox=rng.randint(1, 6), oy=rng.randint(1, 4),
                          fx=rng.randint(1, 3), fy=rng.randint(1, 3), b_i=rng.choice((None, 4)))
            for make in (aimc, dimc):
                macro = make(16)
                # a 64-bit cache spills both activations, so warnings are not empty
                for capacity in (64, 256 * 1024 * 8):
                    cache = replace(default_cache(macro), capacity_bits=capacity)
                    yield layer, SystemConfig(macro=macro, params=TechnologyParams(), cache=cache)

    @staticmethod
    def _assert_indistinguishable(built, expected):
        assert type(built) is type(expected)
        assert built == expected and not built != expected
        assert repr(built) == repr(expected)
        assert list(vars(built)) == [f.name for f in fields(expected)]
        assert vars(built) == vars(expected)
        for f in fields(built):
            with pytest.raises(FrozenInstanceError):
                setattr(built, f.name, getattr(expected, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(built, f.name)
        assert replace(built) == expected
        assert copy.copy(built) == expected
        assert copy.deepcopy(built) == expected
        assert pickle.loads(pickle.dumps(built)) == expected

    def test_every_candidate_matches_the_constructors(self):
        checked = 0
        for layer, system in self._systems():
            macro = system.macro
            rows, cols = mapper.mapping_space(layer, macro)
            expected_mappings = [SpatialMapping(k_u, ox_u, c_u, fx_u, fy_u)
                                 for k_u, ox_u in cols for c_u, fx_u, fy_u in rows]
            mappings = enumerate_mappings(layer, macro)
            assert len(mappings) == len(expected_mappings)
            for mapping, expected_mapping in zip(mappings, expected_mappings):
                self._assert_indistinguishable(mapping, expected_mapping)
                assert hash(mapping) == hash(expected_mapping)
                assert {mapping: True}[expected_mapping]

                result = evaluate_mapping(layer, macro, mapping)
                expected_result = mapping_result_oracle(layer, macro, expected_mapping)
                self._assert_indistinguishable(result, expected_result)

                metrics = evaluate_layer_mapping(system, layer, result)
                self._assert_indistinguishable(
                    metrics, layer_metrics_oracle(system, layer, expected_result))
                checked += 1
        assert checked > 100


# primes and awkward composites, so divisors are few, many or uneven
_AWKWARD = st.sampled_from((1, 2, 3, 5, 7, 11, 13, 17, 31, 6, 12, 30, 36, 60))
_AWKWARD_LAYERS = st.builds(
    Layer, b=st.integers(1, 2), g=st.sampled_from((1, 2, 3)), k=_AWKWARD, c=_AWKWARD,
    ox=_AWKWARD, oy=st.sampled_from((1, 2, 3, 7)), fx=st.sampled_from((1, 2, 3, 5, 7)),
    fy=st.sampled_from((1, 3, 5)), sx=st.integers(1, 2), sy=st.integers(1, 2),
    b_i=st.none() | st.integers(1, 8), b_w=st.none() | st.integers(1, 8),
    b_o=st.none() | st.integers(1, 16),
)


class TestSearchCandidates:
    """best_mapping combines per-row-tuple and per-column-pair terms instead of
    calling evaluate_mapping, and evaluate_layer_mapping prices each result from
    the scalars its layer pricing holds. Every result the search hands over must
    be indistinguishable from the oracle's result for the same mapping, in
    enumerate_mappings order, and every metrics object it gets back must equal
    the oracle's metrics for that result."""

    @staticmethod
    def _priced(layer, system, objective):
        seen = []
        price = system_module.evaluate_layer_mapping

        def record(system_, layer_, result):
            metrics = price(system_, layer_, result)
            seen.append((result, metrics))
            return metrics

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(system_module, "evaluate_layer_mapping", record)
            best_mapping(layer, system, objective)
        return seen

    def _check(self, layer, system, objective="energy"):
        macro = system.macro
        rows, cols = mapper.mapping_space(layer, macro)
        expected = [mapping_result_oracle(layer, macro, SpatialMapping(k_u, ox_u, c_u, fx_u, fy_u))
                    for k_u, ox_u in cols for c_u, fx_u, fy_u in rows]
        priced = self._priced(layer, system, objective)
        assert len(priced) == len(expected)
        for (result, metrics), expected_result in zip(priced, expected):
            TestBuiltObjects._assert_indistinguishable(result, expected_result)
            expected_metrics = layer_metrics_oracle(system, layer, expected_result)
            assert metrics == expected_metrics
            # key order feeds the energy sum
            assert list(metrics.energy_breakdown.items()) \
                == list(expected_metrics.energy_breakdown.items())
            assert metrics.warnings == expected_metrics.warnings
        return len(priced)

    def test_built_objects_systems(self):
        checked = sum(self._check(layer, system) for layer, system in TestBuiltObjects._systems())
        assert checked > 100

    @pytest.mark.parametrize("imc_type", list(ImcType), ids=lambda t: t.value)
    @settings(max_examples=25)
    @given(layer=_AWKWARD_LAYERS, options=_MACRO_OPTIONS.map(
               lambda options: {**options, "d_i": options["d_i"] - 1 or 1}),
           objective=st.sampled_from(OBJECTIVES))
    def test_awkward_layers(self, imc_type, layer, options, objective):
        # d_i one below a power of two: 3, 7, 15, 31 or 63 rows
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # b_cycle rounding is drawn on purpose
            macro = ImcMacroConfig(imc_type=imc_type, **options)
            self._check(layer, default_system_config(macro), objective)

    @pytest.mark.parametrize("imc_type", list(ImcType), ids=lambda t: t.value)
    @settings(max_examples=25)
    @example(layer=_BOTH_SPILL["layer"], options=_BOTH_SPILL["options"],
             capacities=[_BOTH_SPILL["capacity"], 256 * 1024 * 8], objective="energy")
    @given(layer=_AWKWARD_LAYERS, options=_MACRO_OPTIONS,
           capacities=st.lists(_CAPACITIES, min_size=2, max_size=2),
           objective=st.sampled_from(OBJECTIVES))
    def test_one_layer_on_systems_in_turn(self, imc_type, layer, options, capacities,
                                          objective):
        # Back-to-back searches of one layer object on systems that share the
        # macro but differ in every cache and DRAM scalar the pricing holds;
        # the cache reads and writes cost different energies.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # b_cycle rounding is drawn on purpose
            macro = ImcMacroConfig(imc_type=imc_type, **options)
            cache = default_cache(macro)
            for turn, capacity in enumerate(capacities):
                system = SystemConfig(
                    macro=macro, params=TechnologyParams(),
                    cache=replace(cache, capacity_bits=capacity,
                                  read_energy=(0.02e-12, 0.05e-12)[turn],
                                  write_energy=(0.07e-12, 0.01e-12)[turn],
                                  bandwidth_bits_per_cycle=cache.bandwidth_bits_per_cycle
                                  + 64 * turn),
                    dram_energy_per_bit=(3.7e-12, 2.1e-12)[turn])
                self._check(layer, system, objective)

    def test_spills_are_covered(self):
        # the drawn capacities spill inputs, outputs, both and neither
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            macro = ImcMacroConfig(imc_type=ImcType.AIMC, **_BOTH_SPILL["options"])
            notes = set()
            for layer, capacity in ((_BOTH_SPILL["layer"], 64), (Layer(k=2, c=64), 64),
                                    (Layer(k=64, c=2), 64), (FC, 256 * 1024 * 8)):
                system = SystemConfig(macro=macro, params=TechnologyParams(),
                                      cache=replace(default_cache(macro), capacity_bits=capacity))
                priced = self._priced(layer, system, "energy")
                notes.add(tuple(note.split(" ")[0] for note in priced[0][1].warnings))
                self._check(layer, system)
        assert notes == {("input", "output"), ("input",), ("output",), ()}
