import pytest

from imcperf import (
    OBJECTIVES,
    ImcMacroConfig,
    ImcType,
    Layer,
    SpatialMapping,
    WorkloadError,
    best_mapping,
    default_system_config,
    enumerate_mappings,
    evaluate_mapping,
    layer_system_metrics,
    total_macs,
)
from imcperf import mapper
from _oracles import random_oracle_cases, simulate_mapping

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
