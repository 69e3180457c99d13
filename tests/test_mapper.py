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
        # the list's first run of one column pair holds the row tuples, and
        # every run-th entry holds the next column pair
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

    def test_search_never_lists_the_space(self, monkeypatch):
        system = default_system_config(dimc(64))
        winners = {(layer, objective): exhaustive_best_mapping(layer, system, objective)[0]
                   for layer in FIXTURES for objective in OBJECTIVES}

        def refuse(layer, macro):
            raise AssertionError("the search listed the mapping space")

        monkeypatch.setattr(mapper, "mapping_space", refuse)
        for (layer, objective), winner in winners.items():
            assert best_mapping(layer, system, objective) == winner


# prime, awkward and highly composite loop bounds
_BOUNDS = (st.sampled_from((2, 3, 5, 7, 11, 13, 97, 251, 65521))
           | st.sampled_from((6, 15, 35, 49, 96, 100, 210, 486, 1000))
           | st.sampled_from((12, 60, 360, 720, 2520, 5040, 720720))
           | st.integers(1, 64))
_DIMENSIONS = st.sampled_from((1, 3, 8, 12, 64, 100, 256, 1024))


class TestSpaceOutline:
    """mapper._space_outline derives from the divisor lists what the search
    reads of mapping_space: the candidate count, the first row tuple of each
    row product and the k_u beside each ox_u, and it refuses an over-budget
    layer with mapping_space's own error, without listing the space."""

    @staticmethod
    def from_the_lists(layer, macro):
        rows, cols = mapper.mapping_space(layer, macro)
        tops = {}
        for k_u, ox_u in cols:
            tops.setdefault(ox_u, []).append(k_u)
        return _firsts(rows), dict(sorted(tops.items()))

    @settings(max_examples=300, deadline=None)
    @given(k=_BOUNDS, c=_BOUNDS, ox=_BOUNDS, fx=_BOUNDS, fy=_BOUNDS,
           d_i=_DIMENSIONS, d_o=_DIMENSIONS)
    @example(k=5040, c=720, ox=60, fx=12, fy=7, d_i=1024, d_o=256)
    @example(k=97, c=2520, ox=49, fx=3, fy=5, d_i=100, d_o=12)
    @example(k=65521, c=720720, ox=1, fx=360, fy=720720, d_i=256, d_o=3)
    def test_matches_the_listed_space(self, k, c, ox, fx, fy, d_i, d_o):
        layer = Layer(k=k, c=c, ox=ox, fx=fx, fy=fy)
        macro = ImcMacroConfig(imc_type=ImcType.DIMC, d_i=d_i, d_o=d_o)
        try:
            expected = self.from_the_lists(layer, macro)
        except WorkloadError as listed:
            with pytest.raises(WorkloadError) as outlined:
                mapper._space_outline(layer, macro)
            assert str(outlined.value) == str(listed)
            return
        firsts, tops = mapper._space_outline(layer, macro)
        # the dicts' orders too: the screen keeps it
        assert list(firsts.items()) == list(expected[0].items())
        assert list(tops.items()) == list(expected[1].items())

    @pytest.mark.parametrize("at_budget", (True, False))
    def test_count_is_the_candidate_count(self, monkeypatch, at_budget):
        # the budget is inclusive: a space of exactly MAX_CANDIDATES passes
        count = len(enumerate_mappings(CONV, dimc(64)))
        monkeypatch.setattr(mapper, "MAX_CANDIDATES", count - (not at_budget))
        if at_budget:
            mapper._space_outline(CONV, dimc(64))
        else:
            with pytest.raises(WorkloadError, match=f"has {count} mapping candidates"):
                mapper._space_outline(CONV, dimc(64))

    @pytest.mark.parametrize("layer, macro", [
        (TestCandidateBudget.HUGE, dimc(1024)),
        (TestCandidateBudget.HUGE, dimc(4096)),
        (Layer(c=720720, fx=720720, fy=720720, name="triple"),
         ImcMacroConfig(imc_type=ImcType.DIMC, d_i=65536, d_o=64)),
    ])
    def test_over_budget_layers_are_refused_without_listing(self, monkeypatch, layer, macro):
        with pytest.raises(WorkloadError) as listed:
            mapper.mapping_space(layer, macro)

        def refuse(layer, macro):
            raise AssertionError("the space was listed")

        monkeypatch.setattr(mapper, "mapping_space", refuse)
        with pytest.raises(WorkloadError) as outlined:
            mapper._space_outline(layer, macro)
        assert str(outlined.value) == str(listed.value)
        with pytest.raises(WorkloadError) as searched:
            layer_system_metrics(default_system_config(macro), layer)
        assert str(searched.value) == str(listed.value)


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

    def test_bool_factor_is_refused(self):
        # components._check_count: True is an int subclass, but no count
        with pytest.raises(ValueError) as info:
            SpatialMapping(k_u=True)
        assert str(info.value) == "k_u must be an integer >= 1, got True"

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


class TestOneUlpTies:
    """Row products whose energies differ by one ulp, in the dac or multiplier
    term, because every energy term that falls with the row product is zero.
    A seeded differential against the exhaustive reference reached these;
    TestSearchProperty's draws do not. A search that prices only the largest
    row product picks a different mapping on each."""

    @pytest.mark.parametrize("imc_type, size, overrides, layer, winner", [
        pytest.param(ImcType.AIMC, 8,
                     {"k1": 0.0, "k2": 0.0, "k3": 4.7669e-11, "k7": 5e-11,
                      "fa_energy_ratio": 6000.0, "c_gate": 0.0},
                     Layer(k=8, c=96, ox=8, oy=7, fy=3), (8, 1, 2, 1, 3), id="aimc-8"),
        pytest.param(ImcType.DIMC, 128,
                     {"k1": 0.0, "k2": 7.3e-18, "k3": 0.0, "k7": 0.0, "fa_energy_ratio": 0.0,
                      "dff_energy_ratio": 0.0, "sram_cell_write_energy": 7.3e-14,
                      "c_gate": 7e-13},
                     Layer(k=6, c=12, ox=4, oy=7, fx=3), (6, 1, 4, 3, 1), id="dimc-128"),
        pytest.param(ImcType.AIMC, 128,
                     {"k1": 0.0, "k2": 0.0, "k3": 0.0, "k7": 5e-11, "dff_energy_ratio": 0.0,
                      "c_gate": 0.0},
                     Layer(k=6, c=64, ox=2, oy=7, fx=5, fy=3), (6, 2, 32, 1, 3),
                     id="aimc-128"),
    ])
    def test_search_returns_the_exhaustive_winner(self, imc_type, size, overrides, layer,
                                                  winner):
        macro = ImcMacroConfig(imc_type=imc_type, d_i=size, d_o=size)
        system = default_system_config(macro, TechnologyParams(**overrides))
        expected, expected_metrics = exhaustive_best_mapping(layer, system, "energy")
        result = best_mapping(layer, system, "energy")
        metrics = evaluate_layer_mapping(system, layer, result)
        assert result.mapping.factors() == expected.mapping.factors() == winner
        assert repr(metrics.energy) == repr(expected_metrics.energy)
        assert repr(metrics.latency) == repr(expected_metrics.latency)


class TestColumnTies:
    """Column pairs of one ox_u whose energies differ by rounding alone,
    because the energy that falls with k_u is zero or nearly so: free DRAM and
    a free or spilled cache read. tools/search_diff.py reached these once it
    drew the cache; TestSearchProperty's draws do not. A search that prices
    only the largest k_u of each ox_u picks a different mapping on each."""

    @pytest.mark.parametrize("size, overrides, cache, layer, winner", [
        pytest.param(16, {"k2": 0.0, "k3": 1.87e-9, "fa_energy_ratio": 0.277,
                          "dff_energy_ratio": 0.0},
                     {"read_energy": 9.60870114662074e-13, "write_energy": 0.0,
                      "capacity_bits": 64},
                     Layer(b=2, k=96, c=64, ox=3, fx=5, sx=2, sy=2), (12, 1, 16, 1, 1),
                     id="dimc-16"),
        pytest.param(8, {"k1": 8.27e-13, "k2": 1.15e-16, "k3": 2.14e-10, "k7": 0.0,
                         "fa_energy_ratio": 1.33, "dff_energy_ratio": 0.0},
                     {"read_energy": 0.0, "capacity_bits": 64},
                     Layer(b=2, k=48, c=4, ox=8, oy=4, fx=7, fy=3, sy=2), (6, 1, 1, 7, 1),
                     id="dimc-8"),
        pytest.param(32, {"c_gate": 3.23e-18, "k1": 1.14e-13, "k2": 0.0, "k7": 2.43e-16,
                          "fa_energy_ratio": 244.0, "dff_energy_ratio": 0.0,
                          "sram_cell_write_energy": 5e-14},
                     {"read_energy": 0.0, "capacity_bits": 4096},
                     Layer(k=96, c=8, ox=14, oy=5, fx=2, fy=7, sx=2, b_i=3, b_w=3),
                     (24, 1, 2, 2, 7), id="dimc-32"),
    ])
    def test_search_returns_the_exhaustive_winner(self, size, overrides, cache, layer, winner):
        macro = dimc(size)
        system = SystemConfig(macro=macro, params=TechnologyParams(**overrides),
                              cache=default_cache(macro, **cache), dram_energy_per_bit=0.0)
        expected, expected_metrics = exhaustive_best_mapping(layer, system, "energy")
        result = best_mapping(layer, system, "energy")
        metrics = evaluate_layer_mapping(system, layer, result)
        assert result.mapping.factors() == expected.mapping.factors() == winner
        assert repr(metrics.energy) == repr(expected_metrics.energy)
        assert repr(metrics.latency) == repr(expected_metrics.latency)


class TestBuiltObjects:
    """Each SpatialMapping that enumerate_mappings builds, each MappingResult of
    evaluate_mapping and each SystemMetrics of evaluate_layer_mapping must be
    indistinguishable from the one the public constructor builds from values
    derived independently."""

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
    """best_mapping builds each candidate's result with evaluate_mapping, and
    evaluate_layer_mapping prices each result from the scalars its layer
    pricing holds. Every result the search hands over must be
    indistinguishable from the oracle's result for the same mapping, in
    enumerate_mappings order with some candidates left out, every metrics
    object it gets back must equal the oracle's metrics for that result, and
    its winner must be the exhaustive search's."""

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
        priced = self._priced(layer, system, objective)
        # each priced mapping is found after the one before it in the full list
        remaining = iter(enumerate_mappings(layer, macro))
        assert all(result.mapping in remaining for result, _ in priced)
        for result, metrics in priced:
            expected_result = mapping_result_oracle(layer, macro,
                                                    SpatialMapping(*result.mapping.factors()))
            TestBuiltObjects._assert_indistinguishable(result, expected_result)
            expected_metrics = layer_metrics_oracle(system, layer, expected_result)
            assert metrics == expected_metrics
            # key order feeds the energy sum
            assert list(metrics.energy_breakdown.items()) \
                == list(expected_metrics.energy_breakdown.items())
            assert metrics.warnings == expected_metrics.warnings
        assert layer_system_metrics(system, layer, objective) \
            == exhaustive_best_mapping(layer, system, objective)
        return len(priced)

    def test_every_priced_result_comes_from_evaluate_mapping(self):
        # one public function builds every result, so the search cannot drift
        # from what evaluate_mapping, the references and the oracles compute
        built = []
        evaluate = mapper.evaluate_mapping

        def record(layer_, cfg, mapping):
            built.append(evaluate(layer_, cfg, mapping))
            return built[-1]

        for layer, system in TestBuiltObjects._systems():
            for objective in OBJECTIVES:
                built.clear()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(mapper, "evaluate_mapping", record)
                    priced = self._priced(layer, system, objective)
                assert len(built) == len(priced) >= 1
                assert all(result is made for (result, _), made in zip(priced, built))

    def test_built_objects_systems(self):
        # each system's flat-column variant takes the column fallback, and its
        # free-write variant prices every ox_u of a tied column count
        checked = sum(self._check(layer, variant, objective)
                      for layer, system in TestBuiltObjects._systems()
                      for variant in (system, _flat_columns(system), _free_cell_writes(system))
                      for objective in OBJECTIVES)
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


def _product(row):
    c_u, fx_u, fy_u = row
    return c_u * fx_u * fy_u


def _firsts(rows):
    """The first row tuple of each row product, by product, in the order of rows."""
    firsts = {}
    for row in rows:
        firsts.setdefault(_product(row), row)
    return firsts


def _first_of_largest(rows):
    """The first row tuple of the largest row product."""
    firsts = _firsts(rows)
    return firsts[max(firsts)]


def _one_pair_per_ox(cols):
    """The column pair of the largest k_u of each ox_u, in the order of cols."""
    largest = {}
    for k_u, ox_u in cols:
        largest[ox_u] = k_u
    return [(k_u, ox_u) for k_u, ox_u in cols if k_u == largest[ox_u]]


def _flat_columns(system):
    """system, with every energy that falls with k_u at one row product zero:
    an analog macro's cell array and DACs (c_gate and k7), the input register
    (its flip-flops), and the input reads from the cache or, spilled, from
    DRAM."""
    params = system.params
    if system.macro.imc_type is ImcType.AIMC:
        params = replace(params, c_gate=0.0, k7=0.0)
    else:  # a digital macro has no cell-array or DAC energy
        params = replace(params, dff_energy_ratio=0.0)
    return replace(system, params=params, cache=replace(system.cache, read_energy=0.0),
                   dram_energy_per_bit=0.0)


def _free_cell_writes(system):
    """system, with free cell writes: the column splits of one column count tie."""
    return replace(system, params=replace(system.params, sram_cell_write_energy=0.0))


# TestOneUlpTies' aimc-8 case: every energy term that falls with the row
# product is zero, and the row products 3 and 6 each have two tuples
_FLAT = dict(macro=aimc(8), layer=Layer(k=8, c=96, ox=8, oy=7, fy=3),
             params=TechnologyParams(k1=0.0, k2=0.0, k3=4.7669e-11, k7=5e-11,
                                     fa_energy_ratio=6000.0, c_gate=0.0))


def _value(metrics, objective):
    return {"energy": metrics.energy, "latency": metrics.latency,
            "edp": metrics.energy * metrics.latency}[objective]


def _assert_prices_the_contenders(layer, system, objective):
    """The factor tuples the search prices, in order, checked to hold the
    exhaustive winner and the first row tuple of every row product and column
    pair whose objective lies less than _GAIN_MARGIN above the winner's."""
    priced = [result.mapping.factors()
              for result, _ in TestSearchCandidates._priced(layer, system, objective)]
    winner, metrics = exhaustive_best_mapping(layer, system, objective)
    assert winner.mapping.factors() in priced
    least = _value(metrics, objective)
    rows, cols = mapper.mapping_space(layer, system.macro)
    for k_u, ox_u in cols:
        for row in _firsts(rows).values():
            result = evaluate_mapping(layer, system.macro, SpatialMapping(k_u, ox_u, *row))
            value = _value(evaluate_layer_mapping(system, layer, result), objective)
            if value / least - 1.0 < system_module._GAIN_MARGIN:
                assert (k_u, ox_u, *row) in priced
    return priced


class TestPrunedSearch:
    """best_mapping prices, through one enumerate_mappings call whose every
    mapping it prices, the first tuple of the largest row product with the
    largest k_u of each ox_u whose closed-form objective lies within
    _GAIN_MARGIN of the least; the first tuple of every row product as well
    only where the largest one's gain is within the margin, and every k_u of
    an ox_u only where the largest one's is."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("make", (aimc, dimc))
    def test_default_technology_prices_the_largest_row_product(self, make, objective):
        for layer in FIXTURES:
            system = default_system_config(make(64))
            rows, cols = mapper.mapping_space(layer, system.macro)
            first = _first_of_largest(rows)
            priced = _assert_prices_the_contenders(layer, system, objective)
            remaining = iter([(k_u, ox_u, *first) for k_u, ox_u in _one_pair_per_ox(cols)])
            assert all(factors in remaining for factors in priced)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("make", (aimc, dimc))
    def test_default_technology_prices_the_winners_ox_u_alone(self, make, objective):
        for layer in FIXTURES:
            system = default_system_config(make(64))
            winner, _ = exhaustive_best_mapping(layer, system, objective)
            priced = TestSearchCandidates._priced(layer, system, objective)
            assert [result.mapping for result, _ in priced] == [winner.mapping]

    def test_flat_energy_takes_the_fallback(self):
        system = default_system_config(_FLAT["macro"], _FLAT["params"])
        layer = _FLAT["layer"]
        rows, cols = mapper.mapping_space(layer, system.macro)
        firsts = _firsts(rows)
        assert len(firsts) < len(rows)  # some products have two tuples
        priced = _assert_prices_the_contenders(layer, system, "energy")
        pairs = [pair for pair in cols if pair in {factors[:2] for factors in priced}]
        assert priced == [(k_u, ox_u, *row) for k_u, ox_u in pairs for row in firsts.values()]
        # latency falls with the cycles, whatever the energies
        priced = _assert_prices_the_contenders(layer, system, "latency")
        assert {factors[2:] for factors in priced} == {_first_of_largest(rows)}

    # c_gate scales the energy terms that fall with the row product: r*'s
    # relative gain over the next smaller product is about 5.5e-14 at 1e-28
    # and about 5.5e-11 at 1e-25, either side of the 1e-12 margin
    @pytest.mark.parametrize("c_gate, fallback", [(1e-28, True), (1e-25, False)])
    def test_the_margin_decides_the_fallback(self, c_gate, fallback):
        system = default_system_config(_FLAT["macro"], replace(_FLAT["params"], c_gate=c_gate))
        layer = _FLAT["layer"]
        priced = _assert_prices_the_contenders(layer, system, "energy")
        assert (len({factors[2:] for factors in priced}) > 1) == fallback
        assert layer_system_metrics(system, layer) \
            == exhaustive_best_mapping(layer, system, "energy")

    def test_one_enumeration_per_search_and_every_mapping_priced(self, monkeypatch):
        calls = []
        enumerate_ = mapper.enumerate_mappings

        def recording(layer, cfg, space=None):
            mappings = enumerate_(layer, cfg, space)
            calls.append((space, mappings))
            return mappings

        monkeypatch.setattr(mapper, "enumerate_mappings", recording)
        systems = (default_system_config(dimc(64)), default_system_config(aimc(128)),
                   default_system_config(_FLAT["macro"], _FLAT["params"]))
        for system in systems:
            for layer in FIXTURES + (_FLAT["layer"],):
                for objective in OBJECTIVES:
                    del calls[:]
                    priced = _assert_prices_the_contenders(layer, system, objective)
                    (space, mappings), = calls
                    full = mapper.mapping_space(layer, system.macro)[1]
                    remaining = iter(full)
                    assert all(pair in remaining for pair in space[1])
                    assert priced == [mapping.factors() for mapping in mappings]

    @pytest.mark.parametrize("make", (aimc, dimc))
    def test_flat_columns_take_the_column_fallback_for_energy_only(self, make):
        system = _flat_columns(default_system_config(make(64)))
        for layer in (PW, CONV):
            rows, cols = mapper.mapping_space(layer, system.macro)
            first = _first_of_largest(rows)
            assert len(_one_pair_per_ox(cols)) < len(cols)
            for objective, pairs in (("energy", cols), ("edp", _one_pair_per_ox(cols)),
                                     ("latency", _one_pair_per_ox(cols))):
                priced = _assert_prices_the_contenders(layer, system, objective)
                kept = {factors[1] for factors in priced}
                assert priced == [(k_u, ox_u, *first) for k_u, ox_u in pairs if ox_u in kept]
                assert (len(priced) > len(kept)) == (objective == "energy")
                assert layer_system_metrics(system, layer, objective) \
                    == exhaustive_best_mapping(layer, system, objective)

    # the c_gate values of test_the_margin_decides_the_fallback: the row
    # fallback at 1e-28 prices every row product, and r* alone at 1e-25, each
    # with the column pairs the closed form keeps
    @pytest.mark.parametrize("c_gate, row_fallback", [(1e-28, True), (1e-25, False)])
    def test_a_row_fallback_prices_every_row_product_with_the_kept_pairs(self, c_gate,
                                                                          row_fallback):
        system = default_system_config(_FLAT["macro"], replace(_FLAT["params"], c_gate=c_gate))
        layer = _FLAT["layer"]
        rows, cols = mapper.mapping_space(layer, system.macro)
        priced = _assert_prices_the_contenders(layer, system, "energy")
        pairs = [pair for pair in cols if pair in {factors[:2] for factors in priced}]
        assert len(pairs) < len(_one_pair_per_ox(cols))
        expected_rows = list(_firsts(rows).values()) if row_fallback \
            else [_first_of_largest(rows)]
        assert priced == [(k_u, ox_u, *row) for k_u, ox_u in pairs for row in expected_rows]

    # With free cell writes the energy depends on the column count, not on how
    # it splits into k_u and ox_u: 64 columns are 64 x 1, 32 x 2 and 16 x 4 on
    # PW, and 16 x 4, 8 x 8, 4 x 16 and 2 x 32 on CONV
    @pytest.mark.parametrize("make", (aimc, dimc))
    def test_free_cell_writes_price_every_tied_ox_u(self, make):
        system = _free_cell_writes(default_system_config(make(64)))
        for layer, tied in ((PW, {1, 2, 4}), (CONV, {4, 8, 16, 32})):
            priced = _assert_prices_the_contenders(layer, system, "energy")
            assert {factors[1] for factors in priced} == tied
            assert layer_system_metrics(system, layer) \
                == exhaustive_best_mapping(layer, system, "energy")

    # With free flip-flops, the input reads are all the energy of a digital
    # macro that falls with k_u: on FC, whose one ox_u has seven k_u, the
    # largest k_u's relative gain over the next is about 4e-13 at a cache read
    # energy of 1e-22 J/bit and about 4e-12 at 1e-21, either side of the margin
    @pytest.mark.parametrize("read_energy, fallback", [(1e-22, True), (1e-21, False)])
    def test_the_margin_decides_the_column_fallback(self, read_energy, fallback):
        macro = dimc(64)
        system = SystemConfig(macro=macro, params=TechnologyParams(dff_energy_ratio=0.0),
                              cache=default_cache(macro, read_energy=read_energy))
        _, cols = mapper.mapping_space(FC, macro)
        assert len(cols) == 7
        priced = TestSearchCandidates._priced(FC, system, "energy")
        assert len(priced) == (len(cols) if fallback else 1)
        assert layer_system_metrics(system, FC) \
            == exhaustive_best_mapping(FC, system, "energy")

    # The cell writes alone part PW's 64 x 1, 32 x 2 and 16 x 4 columns: ox_u
    # 2's relative gain over ox_u 1 is about 6.8e-14 at 1e-24 J per written
    # bit, 6.8e-13 at 1e-23 and 6.8e-12 at 1e-22, and ox_u 4's three times as
    # much, so the 1e-12 margin keeps three, two or one of them
    @pytest.mark.parametrize("cell_write, kept", [(1e-24, {1, 2, 4}), (1e-23, {1, 2}),
                                                  (1e-22, {1})])
    def test_the_margin_decides_which_ox_u_are_priced(self, cell_write, kept):
        system = default_system_config(dimc(64),
                                       TechnologyParams(sram_cell_write_energy=cell_write))
        priced = _assert_prices_the_contenders(PW, system, "energy")
        assert {factors[1] for factors in priced} == kept
        assert layer_system_metrics(system, PW) == exhaustive_best_mapping(PW, system, "energy")

    def test_enumeration_without_a_space_lists_the_whole_space(self):
        for layer in FIXTURES:
            cfg = dimc(64)
            rows, cols = mapper.mapping_space(layer, cfg)
            full = [SpatialMapping(k_u, ox_u, c_u, fx_u, fy_u)
                    for k_u, ox_u in cols for c_u, fx_u, fy_u in rows]
            assert enumerate_mappings(layer, cfg) == full
            assert enumerate_mappings(layer, cfg, (rows, cols)) == full
            assert enumerate_mappings(layer, cfg, (rows[-1:], cols)) \
                == [SpatialMapping(k_u, ox_u, *rows[-1]) for k_u, ox_u in cols]
