import functools
import math
import operator
import random
import sys
import threading
import warnings
from dataclasses import fields as dataclass_fields
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imcperf import (
    OBJECTIVES,
    ImcMacroConfig,
    ImcType,
    Layer,
    MemoryLevel,
    Network,
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
    geomean_efficiency,
    layer_system_metrics,
    macro_metrics,
    network_system_metrics,
    peak_system_metrics,
    per_cycle_energy,
    per_mvm_register_energy,
    resolve_layer_precisions,
    total_macs,
)
from imcperf import macro as macro_module
from imcperf import system as system_module
from imcperf.system import ENERGY_BREAKDOWN_KEYS
from _oracles import layer_metrics_oracle

FC = Layer(k=128, c=640)
PW = Layer(k=64, c=64, ox=12, oy=12)
DW = Layer(g=64, ox=25, oy=5, fx=3, fy=3)
CONV = Layer(k=16, c=16, ox=32, oy=32, fx=3, fy=3)
FIXTURES = (FC, PW, DW, CONV)


def make_macro(kind, d):
    return ImcMacroConfig(imc_type=kind, d_i=d, d_o=d)


def system_for(kind, d):
    return default_system_config(make_macro(kind, d))


def free_memory_system(kind, d):
    """System whose memories and cell writes cost nothing, isolating compute."""
    macro = make_macro(kind, d)
    params = replace(default_system_config(macro).params, sram_cell_write_energy=0.0)
    cache = replace(default_cache(macro), read_energy=0.0, write_energy=0.0, area=0.0)
    return SystemConfig(macro=macro, params=params, cache=cache,
                        dram_energy_per_bit=0.0)


class TestConfiguration:
    def test_default_cache_shape(self):
        macro = make_macro(ImcType.AIMC, 64)
        cache = default_cache(macro)
        assert cache.capacity_bits == 2_097_152
        assert cache.bandwidth_bits_per_cycle == 64 * 2 + 64 * 8

    def test_insufficient_bandwidth_rejected(self):
        macro = make_macro(ImcType.AIMC, 64)
        thin = replace(default_cache(macro), bandwidth_bits_per_cycle=16)
        with pytest.raises(ValueError, match="bandwidth"):
            SystemConfig(macro=macro, params=default_system_config(macro).params,
                         cache=thin)

    def test_negative_dram_energy_rejected(self):
        macro = make_macro(ImcType.DIMC, 32)
        with pytest.raises(ValueError, match="dram"):
            SystemConfig(macro=macro, params=default_system_config(macro).params,
                         cache=default_cache(macro), dram_energy_per_bit=-1.0)

    def test_boolean_dram_energy_rejected(self):
        system = default_system_config(make_macro(ImcType.AIMC, 32))
        with pytest.raises(ValueError) as info:
            replace(system, dram_energy_per_bit=True)
        assert str(info.value) == \
            "dram_energy_per_bit must be a number, not a boolean, got True"

    @pytest.mark.parametrize("name", [[1, 2], 7, None], ids=["list", "number", "none"])
    def test_memory_level_rejects_a_non_string_name(self, name):
        with pytest.raises(ValueError) as info:
            MemoryLevel(name, 8, 0.0, 0.0, 0.0, 1)
        assert str(info.value) == f"name must be a string, got {name!r}"

    def test_memory_level_validation(self):
        with pytest.raises(ValueError):
            MemoryLevel("m", 0, 0.0, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            MemoryLevel("m", 8, -1e-12, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            MemoryLevel("m", 8, 0.0, 0.0, 0.0, 0)

    @pytest.mark.parametrize("index, message", [
        (1, "capacity_bits must be an integer >= 1, got True"),
        (2, "read_energy must be a number, not a boolean, got True"),
        (3, "write_energy must be a number, not a boolean, got True"),
        (4, "area must be a number, not a boolean, got True"),
        (5, "bandwidth_bits_per_cycle must be an integer >= 1, got True"),
    ])
    def test_memory_level_rejects_booleans(self, index, message):
        values = ["m", 8, 0.0, 0.0, 0.0, 1]
        values[index] = True
        with pytest.raises(ValueError) as info:
            MemoryLevel(*values)
        assert str(info.value) == message


class TestPeak:
    @pytest.mark.parametrize("pipelined", [False, True], ids=["plain", "pipelined"])
    @pytest.mark.parametrize("n_macros", [1, 8])
    @pytest.mark.parametrize("d", [8, 32, 1024, 4096])
    @pytest.mark.parametrize("kind", list(ImcType), ids=lambda kind: kind.name)
    def test_breakdown_sums_and_composition(self, kind, d, n_macros, pipelined):
        system = default_system_config(ImcMacroConfig(
            imc_type=kind, d_i=d, d_o=d, n_macros=n_macros, pipelined=pipelined))
        peak = peak_system_metrics(system)
        assert peak.energy == sum(peak.energy_breakdown.values())
        assert peak.energy_breakdown["weight_load"] == 0.0
        assert set(peak.energy_breakdown) == set(ENERGY_BREAKDOWN_KEYS)
        mm = macro_metrics(system.params, system.macro)
        assert peak.latency == mm.clock_period * mm.cycles_per_mvm
        assert peak.area == mm.area + system.cache.area
        # peak derives its throughput from ops / latency, which must equal the macro's
        assert peak.tops == mm.tops
        assert peak.tops_per_mm2 == mm.tops / (peak.area * 1e-6)
        # streaming both operand sets per MVM is what peak pays the memories for
        macro_e = sum(peak.energy_breakdown[k] for k in mm.breakdown)
        assert peak.energy > macro_e
        assert peak.tops_per_w < mm.tops_per_w

    def test_replication_scaling(self):
        base = peak_system_metrics(system_for(ImcType.DIMC, 64))
        macro4 = make_macro(ImcType.DIMC, 64)
        macro4 = replace(macro4, n_macros=4)
        quad = peak_system_metrics(default_system_config(macro4))
        assert quad.energy == pytest.approx(4 * base.energy, rel=1e-12)
        assert quad.tops == pytest.approx(4 * base.tops, rel=1e-12)
        assert quad.tops_per_w == pytest.approx(base.tops_per_w, rel=1e-12)


class TestLayerEvaluation:
    def test_free_memories_reduce_to_macro_energy(self):
        for kind in ImcType:
            system = free_memory_system(kind, 64)
            result = best_mapping(CONV, system, "energy")
            metrics = evaluate_layer_mapping(system, CONV, result)
            cfg = replace(system.macro, n_macros=1)
            rows, cols = result.mapping.rows, result.mapping.cols
            cycle = sum(per_cycle_energy(system.params, cfg, rows, cols).values())
            expected = (cycle * result.total_cycles
                        + per_mvm_register_energy(system.params, cfg, rows)
                        * result.mvm_invocations)
            assert metrics.energy_breakdown["weight_load"] == 0.0
            assert metrics.energy == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", list(ImcType), ids=lambda kind: kind.name)
    def test_input_register_is_the_register_energy_per_mvm(self, kind):
        # one write of the active rows' input bits per MVM, bit for bit
        system = system_for(kind, 64)
        for layer in (*FIXTURES, replace(PW, b_i=4), replace(CONV, b_i=6)):
            result = best_mapping(layer, system, "energy")
            metrics = evaluate_layer_mapping(system, layer, result)
            cfg = resolve_layer_precisions(system.macro, layer.b_i, layer.b_w, layer.b_o)
            assert metrics.energy_breakdown["input_register"] == (
                per_mvm_register_energy(system.params, cfg, result.mapping.rows)
                * result.mvm_invocations)

    def test_input_register_is_a_float_for_integer_constants(self):
        # an int entry would print as 61440 in the JSON output, not 61440.0;
        # the record stores integer constants as floats
        params = TechnologyParams(v_dd=1, c_gate=1, dff_energy_ratio=3)
        assert type(params.dff_energy) is float
        for kind in ImcType:
            macro = make_macro(kind, 32)
            system = SystemConfig(macro=macro, params=params, cache=default_cache(macro))
            _, metrics = layer_system_metrics(system, PW)
            assert type(metrics.energy_breakdown["input_register"]) is float
            peak = peak_system_metrics(system)
            assert type(peak.energy_breakdown["input_register"]) is float

    def test_real_valued_fields_are_stored_as_floats(self):
        params = TechnologyParams(**{f.name: 1 for f in dataclass_fields(TechnologyParams)})
        assert all(type(value) is float for value in vars(params).values())
        macro = make_macro(ImcType.DIMC, 32)
        cache = replace(default_cache(macro), read_energy=0, write_energy=0, area=1)
        assert [type(cache.read_energy), type(cache.write_energy), type(cache.area)] \
            == [float] * 3
        assert type(cache.capacity_bits) is int
        system = SystemConfig(macro=macro, params=params, cache=cache, dram_energy_per_bit=4)
        assert type(system.dram_energy_per_bit) is float

    def test_energy_breakdown_sums_exactly(self):
        system = system_for(ImcType.AIMC, 128)
        for layer in FIXTURES:
            _, metrics = layer_system_metrics(system, layer)
            assert metrics.energy == sum(metrics.energy_breakdown.values())
            assert all(v >= 0 for v in metrics.energy_breakdown.values())

    def test_delay_breakdown_sums_to_latency(self):
        system = system_for(ImcType.DIMC, 128)
        _, metrics = layer_system_metrics(system, FC)
        assert metrics.delay_breakdown["weight_load_stall"] > 0
        assert metrics.latency == pytest.approx(
            sum(metrics.delay_breakdown.values()), rel=1e-12)

    def test_full_array_gating_matches_ungated(self):
        # a mapping that fills the array must cost exactly the peak cycle energy
        for kind in ImcType:
            cfg = make_macro(kind, 32)
            params = default_system_config(cfg).params
            assert per_cycle_energy(params, cfg, 32, 32) == per_cycle_energy(params, cfg)

    def test_layer_never_beats_peak_throughput(self):
        for kind in ImcType:
            for d in (32, 64, 256, 1024):
                system = system_for(kind, d)
                peak = peak_system_metrics(system)
                mm = macro_metrics(system.params, system.macro)
                for layer in FIXTURES:
                    _, metrics = layer_system_metrics(system, layer)
                    assert metrics.tops <= peak.tops * (1 + 1e-12)
                    assert metrics.tops_per_w <= mm.tops_per_w * (1 + 1e-12)

    def test_infinite_reuse_approaches_peak_energy(self):
        # one resident weight tile, huge activation stream: per-MVM energy
        # converges on the peak MVM energy (memory pricing differs slightly
        # once the input stream overflows the cache)
        layer = Layer(k=32, c=32, oy=16384)
        for kind in ImcType:
            system = system_for(kind, 32)
            peak = peak_system_metrics(system)
            result = best_mapping(layer, system, "energy")
            metrics = evaluate_layer_mapping(system, layer, result)
            per_mvm = metrics.energy / result.mvm_invocations
            assert per_mvm == pytest.approx(peak.energy, rel=0.05)
            assert len(metrics.warnings) == 2

    def test_input_overflow_warns_once(self):
        layer = Layer(k=1, c=32, oy=16384)
        system = system_for(ImcType.DIMC, 32)
        result = best_mapping(layer, system, "energy")
        metrics = evaluate_layer_mapping(system, layer, result)
        assert len(metrics.warnings) == 1
        assert metrics.warnings[0].startswith("input activations")

    def test_layer_precision_overrides(self):
        system = system_for(ImcType.AIMC, 64)
        full = layer_system_metrics(system, PW)[1]
        lean = layer_system_metrics(system, replace(PW, b_i=4, b_w=4, b_o=4))[1]
        assert lean.energy < full.energy
        binary = layer_system_metrics(system, replace(PW, b_i=1))[1]
        assert binary.latency < full.latency

    def test_single_macro_scope(self):
        # workload evaluation prices one macro regardless of replication
        one = system_for(ImcType.DIMC, 64)
        many = default_system_config(replace(make_macro(ImcType.DIMC, 64), n_macros=8))
        assert layer_system_metrics(one, CONV)[1].energy == pytest.approx(
            layer_system_metrics(many, CONV)[1].energy, rel=1e-12)


def random_pricing_case(rng):
    """A (system, layer) pair drawing every option that changes how a layer is priced."""
    imc_type = rng.choice((ImcType.AIMC, ImcType.DIMC))
    b_i = rng.choice((4, 6, 8))
    macro = ImcMacroConfig(
        imc_type=imc_type, d_i=rng.choice((4, 8, 16, 32)), d_o=rng.choice((4, 8, 16, 32)),
        b_i=b_i, b_w=rng.choice((1, 2, 4, 8)), b_cycle=rng.choice((1, 2, 4)),
        b_o=rng.choice((4, 8, 16)), m=rng.choice((1, 2)), n_macros=rng.choice((1, 4)),
        input_toggle_rate=rng.choice((0.25, 0.5, 1.0)),
        weight_sparsity=rng.choice((0.0, 0.0, 0.3, 0.75)),
        pipelined=rng.random() < 0.5,
        adc_resolution_from_full_precision=rng.random() < 0.5)
    params = TechnologyParams(v_dd=rng.choice((0.8, 0.9)), k1=rng.choice((80e-15, 100e-15)))
    # capacities below, between and above typical input and output footprints
    cache = replace(default_cache(macro), capacity_bits=rng.choice((512, 4096, 32768, 2**21)))
    system = SystemConfig(macro=macro, params=params, cache=cache,
                          dram_energy_per_bit=rng.choice((3.7e-12, 1e-11)))
    layer = Layer(
        b=rng.randint(1, 2), g=rng.randint(1, 2), k=rng.randint(1, 24), c=rng.randint(1, 24),
        ox=rng.randint(1, 12), oy=rng.randint(1, 12), fx=rng.choice((1, 2, 3)),
        fy=rng.choice((1, 3)), b_i=rng.choice((None, None, 1, 3, 5, 7)),
        b_w=rng.choice((None, None, 2, 3)), b_o=rng.choice((None, 4, 12)))
    return system, layer


class TestLayerPricing:
    """evaluate_layer_mapping prices a layer's fixed costs once; it must still
    equal a from-scratch derivation for every candidate, whatever it priced before."""

    def test_every_candidate_matches_the_component_oracle(self):
        rng = random.Random(20240611)
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # b_cycle rounding is exercised on purpose
            for _ in range(320):
                system, layer = random_pricing_case(rng)
                macro = system.macro
                b_i = macro.b_i if layer.b_i is None else layer.b_i
                seen.add(macro.imc_type)
                seen.add(("b_cycle", min(macro.b_cycle, b_i)))
                seen.update(name for name in ("pipelined", "adc_resolution_from_full_precision")
                            if getattr(macro, name))
                seen.update(name for name in ("b_i", "b_w", "b_o")
                            if getattr(layer, name) is not None)
                if macro.weight_sparsity > 0:
                    seen.add("weight_sparsity")
                for mapping in enumerate_mappings(layer, macro):
                    result = evaluate_mapping(layer, macro, mapping)
                    metrics = evaluate_layer_mapping(system, layer, result)
                    expected = layer_metrics_oracle(system, layer, result)
                    assert metrics.energy_breakdown == expected.energy_breakdown
                    assert metrics.delay_breakdown == expected.delay_breakdown
                    assert metrics.area_breakdown == expected.area_breakdown
                    assert metrics == expected
                    seen.update(note.split(" ")[0] for note in metrics.warnings)
        assert seen >= {
            ImcType.AIMC, ImcType.DIMC, ("b_cycle", 1), ("b_cycle", 2), ("b_cycle", 4),
            "pipelined", "adc_resolution_from_full_precision", "weight_sparsity",
            "b_i", "b_w", "b_o", "input", "output"}

    @staticmethod
    def _interleaved_pool():
        """(system, layer, result) triples whose pricing differs in one input at a time,
        plus equal but distinct copies of a system and of a layer."""
        base = ImcMacroConfig(imc_type=ImcType.AIMC, d_i=32, d_o=32)
        systems = [
            default_system_config(base),
            default_system_config(ImcMacroConfig(imc_type=ImcType.AIMC, d_i=32, d_o=32)),
            default_system_config(base, TechnologyParams(v_dd=0.8)),
            default_system_config(replace(base, imc_type=ImcType.DIMC, b_cycle=1,
                                          pipelined=True)),
        ]
        layers = [
            Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3),
            Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3),
            Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3, b_i=4, b_w=2),
        ]
        assert systems[0] == systems[1] and systems[0] is not systems[1]
        assert layers[0] == layers[1] and layers[0] is not layers[1]
        pool = []
        for system in systems:
            for layer in layers:
                for mapping in enumerate_mappings(layer, system.macro)[::7]:
                    result = evaluate_mapping(layer, system.macro, mapping)
                    pool.append((system, layer, result,
                                 layer_metrics_oracle(system, layer, result)))
        return pool

    def test_pricing_is_never_stale_across_interleaved_systems_and_layers(self):
        pool = self._interleaved_pool()
        rng = random.Random(7)
        for _ in range(4):
            rng.shuffle(pool)
            for system, layer, result, expected in pool:
                assert evaluate_layer_mapping(system, layer, result) == expected

    def test_pricing_is_never_stale_across_threads(self):
        pool = self._interleaved_pool()
        failures = []

        def worker(seed):
            order = list(pool)
            random.Random(seed).shuffle(order)
            for _ in range(3):
                for system, layer, result, expected in order:
                    if evaluate_layer_mapping(system, layer, result) != expected:
                        failures.append((seed, system, layer, result.mapping))

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

    def test_spill_text_follows_the_result_traffic(self):
        # a result evaluated at other precisions carries other activation sizes;
        # the warnings must quote those, not the layer's own
        macro = ImcMacroConfig(imc_type=ImcType.AIMC, d_i=32, d_o=32)
        system = SystemConfig(macro=macro, params=TechnologyParams(),
                              cache=replace(default_cache(macro), capacity_bits=256))
        layer = Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3)
        own = evaluate_mapping(layer, macro, SpatialMapping(k_u=4))
        other = evaluate_mapping(layer, replace(macro, b_i=4, b_o=4), SpatialMapping(k_u=4))
        assert own.traffic[("I", "dram")] != other.traffic[("I", "dram")]
        for result in (own, other, own):
            metrics = evaluate_layer_mapping(system, layer, result)
            assert metrics == layer_metrics_oracle(system, layer, result)
            assert f"({result.traffic[('I', 'dram')]} bits)" in metrics.warnings[0]
            assert f"({result.traffic[('O', 'cache')]} bits)" in metrics.warnings[1]

    def test_b_cycle_warning_once_per_layer(self):
        # b_i=7 is not a multiple of the AIMC default b_cycle of 2
        system = system_for(ImcType.AIMC, 64)
        layer = Layer(k=64, c=64, ox=16, oy=16, fx=3, fy=3, b_i=7)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            layer_system_metrics(system, layer)
        assert len(enumerate_mappings(layer, system.macro)) == 500
        assert sum("does not divide b_i" in str(w.message) for w in caught) == 1

    def test_oversized_mapping_is_rejected(self):
        system = system_for(ImcType.DIMC, 32)
        result = evaluate_mapping(CONV, make_macro(ImcType.DIMC, 64),
                                  SpatialMapping(k_u=16, ox_u=4, c_u=16))
        with pytest.raises(ValueError, match="does not fit"):
            evaluate_layer_mapping(system, CONV, result)


class TestPricingAcrossLayers:
    """Consecutive layers that resolve to the same precisions share one priced
    macro; every layer must still price exactly as the component oracle does."""

    # precisions A A B A: B differs in b_i and b_w, and a run of A follows it
    A, B = dict(), dict(b_i=4, b_w=2)
    NET = Network(name="aaba", layers=(
        Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3, name="a-conv", **A),
        Layer(k=32, c=16, name="a-fc", **A),
        Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3, name="b-conv", **B),
        Layer(g=8, ox=4, oy=4, fx=3, fy=3, name="a-dw", **A),
    ), repeats=(1, 1, 1, 1))

    @staticmethod
    def _systems():
        """Both types, two systems sharing one macro under different technologies, and
        a macro of another size whose layers resolve to the same precisions."""
        shared = ImcMacroConfig(imc_type=ImcType.AIMC, d_i=32, d_o=32, pipelined=True)
        return [default_system_config(shared),
                default_system_config(shared, TechnologyParams(v_dd=0.8, k1=80e-15)),
                default_system_config(ImcMacroConfig(imc_type=ImcType.AIMC, d_i=16, d_o=16,
                                                     adc_resolution_from_full_precision=True)),
                system_for(ImcType.DIMC, 16)]

    def test_every_layer_matches_the_component_oracle(self):
        systems = self._systems()
        for system in systems + systems[::-1]:
            _, reports = network_system_metrics(system, self.NET, "edp")
            for report in reports:
                assert report.metrics == layer_metrics_oracle(system, report.layer,
                                                              report.mapping)

    def test_each_run_of_equal_precisions_prices_one_macro(self, monkeypatch):
        # sram_array_area is called once per pricing of a macro's components
        calls = []
        original = macro_module.sram_array_area
        monkeypatch.setattr(macro_module, "sram_array_area",
                            lambda *args: calls.append(args) or original(*args))
        network_system_metrics(system_for(ImcType.AIMC, 32), self.NET)
        assert len(calls) == 3  # A, B, A

    def test_b_cycle_warning_once_per_run_of_equal_precisions(self):
        # b_i=7 is not a multiple of the AIMC default b_cycle of 2
        odd = Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3, b_i=7)
        even = Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3, b_i=4)
        net = Network(name="n", layers=(odd, odd, even, odd), repeats=(1, 1, 1, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            network_system_metrics(system_for(ImcType.AIMC, 32), net)
        assert sum("does not divide b_i" in str(w.message) for w in caught) == 2

    def test_shared_precisions_price_the_system_macro_once_per_design_point(
            self, monkeypatch):
        # every layer takes the macro's own precisions, and the macro is a single one
        replaced, priced = [], []
        original_replace, original_metrics = system_module.replace, system_module.macro_metrics
        monkeypatch.setattr(system_module, "replace", lambda *args, **kwargs: (
            replaced.append(args) or original_replace(*args, **kwargs)))
        monkeypatch.setattr(system_module, "macro_metrics",
                            lambda *args: priced.append(args) or original_metrics(*args))
        net = Network(name="a", layers=tuple(layer for layer in self.NET.layers
                                             if layer.b_i is None), repeats=(1, 1, 1))
        systems = [system_for(kind, size) for kind in ImcType for size in (16, 32)]
        for system in systems:
            network_system_metrics(system, net, "edp")
        assert replaced == []
        assert priced == [(system.params, system.macro) for system in systems]

    def test_a_b_a_on_several_macros_matches_the_oracle(self):
        # b_i=7 is not a multiple of the AIMC default b_cycle of 2; b_i=4 is
        odd = Layer(k=16, c=8, ox=4, oy=4, fx=3, fy=3, b_i=7)
        even = Layer(k=32, c=16, b_i=4)
        net = Network(name="aba", layers=(odd, even, odd), repeats=(1, 1, 1))
        system = default_system_config(replace(make_macro(ImcType.AIMC, 32), n_macros=4))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, reports = network_system_metrics(system, net, "energy")
        assert sum("does not divide b_i" in str(w.message) for w in caught) == 2
        for report in reports:
            assert report.metrics == layer_metrics_oracle(system, report.layer, report.mapping)


class TestClosedForm:
    """The closed form a layer pricing holds, which the search screens with, gives
    every candidate the energy and latency its price does, up to the rounding
    bounded above system._GAIN_MARGIN: 20u for a priced value and 17u for the
    form, u = 2**-53."""

    TOLERANCE = 40 * 2.0 ** -53
    SPILLS = Layer(k=16, c=16, ox=32, oy=32, fx=3, fy=3)  # 147,968 input bits
    GROWS = Layer(k=64, c=16, ox=12, oy=12)  # 73,728 output bits, 18,432 input bits
    OWN_PRECISIONS = Layer(k=16, c=16, ox=8, oy=8, fx=3, fy=3, b_i=7, b_w=3, b_o=12)

    @classmethod
    def _cases(cls):
        """(system, layer, the spill warnings every candidate carries), on each
        macro type and size, plain and pipelined."""
        for kind in ImcType:
            for d in (16, 64, 256):
                for pipelined in (False, True):
                    macro = ImcMacroConfig(imc_type=kind, d_i=d, d_o=d, pipelined=pipelined)
                    system = default_system_config(macro)
                    for layer in FIXTURES:
                        yield system, layer, ()
                    yield (replace(system, cache=default_cache(macro, capacity_bits=140_000)),
                           cls.SPILLS, ("input",))
                    yield (replace(system, cache=default_cache(macro, capacity_bits=32_768)),
                           cls.GROWS, ("output",))
                    yield (default_system_config(replace(macro, b_cycle=2)),
                           cls.OWN_PRECISIONS, ())

    def test_the_form_prices_every_candidate_as_price_does(self):
        tolerance = self.TOLERANCE
        candidates = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # b_i = 7 is not a multiple of b_cycle = 2
            for system, layer, spills in self._cases():
                form = system_module._layer_pricing(system, layer)[4]
                for mapping in enumerate_mappings(layer, system.macro):
                    result = evaluate_mapping(layer, system.macro, mapping)
                    metrics = evaluate_layer_mapping(system, layer, result)
                    assert tuple(note.split(" ")[0] for note in metrics.warnings) == spills
                    energy, latency = form(mapping.rows, mapping.k_u, mapping.ox_u)
                    assert abs(energy - metrics.energy) <= tolerance * metrics.energy
                    assert abs(latency - metrics.latency) <= tolerance * metrics.latency
                    candidates += 1
        assert candidates > 18_000


class TestNetwork:
    def net(self, repeats=(1, 1, 1, 1)):
        return Network(name="fixtures", layers=FIXTURES, repeats=repeats)

    def test_repeat_weighting(self):
        system = system_for(ImcType.DIMC, 64)
        base, base_reports = network_system_metrics(system, self.net())
        tripled, _ = network_system_metrics(system, self.net((3, 3, 3, 3)))
        assert tripled.energy == pytest.approx(3 * base.energy, rel=1e-12)
        assert tripled.latency == pytest.approx(3 * base.latency, rel=1e-12)
        assert tripled.tops == pytest.approx(base.tops, rel=1e-12)
        assert len(base_reports) == 4
        assert [r.kind.value for r in base_reports] == ["fc", "pw", "dw", "conv"]

    def test_summary_is_sum_of_layers(self):
        system = system_for(ImcType.AIMC, 256)
        summary, reports = network_system_metrics(system, self.net((1, 2, 1, 1)))
        assert summary.energy == pytest.approx(
            sum(r.repeat * r.metrics.energy for r in reports), rel=1e-12)
        assert summary.latency == pytest.approx(
            sum(r.repeat * r.metrics.latency for r in reports), rel=1e-12)
        for key in ENERGY_BREAKDOWN_KEYS:
            assert summary.energy_breakdown[key] == pytest.approx(
                sum(r.repeat * r.metrics.energy_breakdown[key] for r in reports),
                rel=1e-12, abs=1e-30)
        ops = 2 * sum(r.repeat * total_macs(r.layer) for r in reports)
        assert summary.tops == pytest.approx(ops / summary.latency, rel=1e-12)

    def test_warning_deduplication(self):
        big = Layer(k=32, c=32, oy=16384)
        net = Network(name="n", layers=(big, big), repeats=(1, 2))
        system = system_for(ImcType.DIMC, 32)
        summary, _ = network_system_metrics(system, net)
        assert len(summary.warnings) == 2


def _technology_value(default):
    """A constant's default, an extreme float, or a value near the default."""
    return (st.just(default) | st.sampled_from((0.0, 5e-324, 1e-300, 1e300, 1.7e308))
            | st.floats(0.0, 10.0 * default))


_TECHNOLOGIES = st.fixed_dictionaries({}, optional={
    f.name: _technology_value(f.default) for f in dataclass_fields(TechnologyParams)})
_MACROS = st.fixed_dictionaries({
    "imc_type": st.sampled_from(list(ImcType)),
    "d_i": st.integers(1, 4096) | st.sampled_from((1, 32, 4096)),
    "d_o": st.integers(1, 4096) | st.sampled_from((1, 32, 4096)),
    "b_i": st.integers(1, 32), "b_w": st.integers(1, 32), "b_o": st.integers(1, 32),
    "b_cycle": st.none() | st.integers(1, 32),
    "m": st.integers(1, 4), "n_macros": st.integers(1, 8),
    "input_toggle_rate": st.floats(0.0, 1.0), "weight_sparsity": st.floats(0.0, 1.0),
    "pipelined": st.booleans(), "adc_resolution_from_full_precision": st.booleans(),
})
_MODEL_LAYERS = st.builds(
    Layer, b=st.integers(1, 2), g=st.integers(1, 3), k=st.integers(1, 32),
    c=st.integers(1, 32), ox=st.integers(1, 16), oy=st.integers(1, 16),
    fx=st.integers(1, 3), fy=st.integers(1, 3), sx=st.integers(1, 2),
    b_i=st.none() | st.integers(1, 32), b_w=st.none() | st.integers(1, 32),
    b_o=st.none() | st.integers(1, 32))


class TestModelProperty:
    """Any technology, macro, layer and objective either prices to finite positive
    metrics or fails with a ValueError (WorkloadError is one); never with an
    arithmetic error, and with at most one warning per configuration built."""

    @settings(max_examples=200)
    @given(technology=_TECHNOLOGIES, options=_MACROS, layer=_MODEL_LAYERS,
           objective=st.sampled_from(OBJECTIVES))
    def test_metrics_are_finite_and_positive_or_a_value_error(self, technology, options,
                                                                 layer, objective):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                system = default_system_config(ImcMacroConfig(**options),
                                               TechnologyParams(**technology))
                _, metrics = layer_system_metrics(system, layer, objective)
            except ValueError:
                return
        assert len(caught) <= 2  # the macro's b_cycle, and the layer's
        for name in ("energy", "latency", "tops", "tops_per_w", "tops_per_mm2", "area"):
            value = getattr(metrics, name)
            assert math.isfinite(value) and value > 0, (name, value)

    def test_overflowing_layer_is_a_value_error(self):
        system = default_system_config(make_macro(ImcType.DIMC, 32),
                                       TechnologyParams(sram_cell_write_energy=1e308))
        with pytest.raises(ValueError, match="energy of the layer is inf"):
            layer_system_metrics(system, Layer(k=64, c=64, ox=8, oy=8))

    @pytest.mark.parametrize("capacity", [256 * 1024 * 8, 10**500],
                             ids=["default-cache", "huge-cache"])
    def test_overflowing_input_is_a_workload_error(self, capacity):
        # A 10**400 stride made the input reads too large for a float under a
        # cache that holds them, and a 400-digit spill warning under one that
        # does not.
        macro = make_macro(ImcType.DIMC, 32)
        system = SystemConfig(macro=macro, params=TechnologyParams(),
                              cache=default_cache(macro, capacity_bits=capacity))
        with pytest.raises(WorkloadError, match="stride sx or sy is too large"):
            layer_system_metrics(system, Layer(ox=2, sx=10**400))

    def test_overflowing_network_is_a_value_error(self):
        # each layer prices to about 3e304 J; ten thousand repeats overflow the sum
        system = default_system_config(make_macro(ImcType.DIMC, 32),
                                       TechnologyParams(sram_cell_write_energy=1e300))
        layer = Layer(k=64, c=64, ox=8, oy=8)
        assert math.isfinite(layer_system_metrics(system, layer)[1].energy)
        net = Network(name="n", layers=(layer,), repeats=(10**4,))
        with pytest.raises(ValueError, match="energy of the network is inf"):
            network_system_metrics(system, net)


class TestGeomean:
    def test_requires_entries(self):
        with pytest.raises(ValueError):
            geomean_efficiency([])

    def test_identity_and_pairs(self):
        system = system_for(ImcType.DIMC, 64)
        a, _ = network_system_metrics(system, Network("a", (PW,), (1,)))
        b, _ = network_system_metrics(system, Network("b", (CONV,), (1,)))
        same = geomean_efficiency([a, a])
        assert same["tops_per_w"] == pytest.approx(a.tops_per_w, rel=1e-12)
        mixed = geomean_efficiency([a, b])
        assert mixed["tops"] == pytest.approx(math.sqrt(a.tops * b.tops), rel=1e-12)
        assert set(mixed) == {"tops", "tops_per_w", "tops_per_mm2"}


class TestLeftToRightTotal:
    """Every float total of the system model adds left to right from 0, as
    sum() does up to Python 3.11, so each Python prints the same digits."""

    def test_adds_left_to_right(self):
        # 1e16 + 1 rounds back to 1e16 twice; a compensated sum keeps the 2
        values = [1e16, 1.0, 1.0]
        assert math.fsum(values) == 1e16 + 2
        assert system_module._total(values) == 1e16
        assert system_module._total(iter(values)) == 1e16
        assert system_module._total([]) == 0

    def test_every_float_total_goes_through_it(self, monkeypatch):
        totals = []

        def recording(values):
            values = list(values)
            totals.append(len(values))
            return functools.reduce(operator.add, values, 0)

        monkeypatch.setattr(system_module, "_total", recording)
        system = system_for(ImcType.AIMC, 32)
        peak = peak_system_metrics(system)
        assert totals == [len(ENERGY_BREAKDOWN_KEYS)]
        network, _ = network_system_metrics(system, Network("n", (PW,), (1,)))
        assert len(totals) > 2 and set(totals) == {len(ENERGY_BREAKDOWN_KEYS)}
        del totals[:]
        geomean_efficiency([peak, network])
        assert totals == [2, 2, 2]
