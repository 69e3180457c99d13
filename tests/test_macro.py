import copy
import math
import pickle
import random
import sys
import threading
from dataclasses import FrozenInstanceError, fields, replace
from functools import reduce
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from imcperf import (
    BREAKDOWN_COMPONENTS,
    ComponentCost,
    ImcMacroConfig,
    ImcType,
    MacroMetrics,
    TechnologyParams,
    accumulator_cost,
    adc_delay,
    adder_tree_cost,
    macro_metrics,
    per_cycle_energy,
    per_mvm_register_energy,
    resolve_layer_precisions,
)
from imcperf import macro

REL = 1e-12

SIZES = (32, 64, 128, 256, 512, 1024)


def aimc(d, **kw):
    return ImcMacroConfig(imc_type=ImcType.AIMC, d_i=d, d_o=d, **kw)


def dimc(d, **kw):
    return ImcMacroConfig(imc_type=ImcType.DIMC, d_i=d, d_o=d, **kw)


class TestConfigValidation:
    def test_default_bits_per_cycle(self):
        assert aimc(32).b_cycle == 2
        assert dimc(32).b_cycle == 1

    def test_rejects_bits_per_cycle_above_input_width(self):
        with pytest.raises(ValueError):
            dimc(32, b_i=4, b_cycle=5)

    def test_non_divisor_bits_per_cycle_warns(self):
        with pytest.warns(UserWarning):
            cfg = dimc(32, b_i=8, b_cycle=3)
        assert cfg.cycles_per_mvm == 3

    def test_rejects_bad_counts_and_fractions(self):
        with pytest.raises(ValueError):
            aimc(0)
        with pytest.raises(ValueError):
            aimc(32, n_macros=0)
        with pytest.raises(ValueError):
            aimc(32, input_toggle_rate=1.5)
        with pytest.raises(ValueError):
            ImcMacroConfig(imc_type="aimc", d_i=32, d_o=32)

    def test_array_dimensions_are_bounded(self):
        # the mapper tries every unroll factor up to the array dimension
        limit = macro.MAX_ARRAY_DIM
        assert dimc(limit).d_i == limit
        for dims, name in (((limit + 1, 32), "d_i"), ((32, limit + 1), "d_o")):
            with pytest.raises(ValueError) as info:
                ImcMacroConfig(imc_type=ImcType.DIMC, d_i=dims[0], d_o=dims[1])
            assert str(info.value) == f"{name} must be at most {limit}, got {limit + 1}"

    @pytest.mark.parametrize("name", ["b_i", "b_w", "b_o", "m", "n_macros"])
    def test_operand_widths_and_counts_are_bounded(self, name):
        # an unbounded one failed later, converting to float, without its name
        limit = macro.MAX_MACRO_INT
        assert getattr(dimc(32, **{name: limit}), name) == limit
        for value in (limit + 1, 10**400):
            with pytest.raises(ValueError) as info:
                dimc(32, **{name: value})
            assert str(info.value) == f"{name} must be at most {limit}, got {value}"

    @pytest.mark.parametrize("name, value, message", [
        ("b_i", True, "b_i must be an integer >= 1, got True"),
        ("b_cycle", True, "b_cycle must be an integer >= 1, got True"),
        ("n_macros", True, "n_macros must be an integer >= 1, got True"),
        ("m", False, "m must be an integer >= 1, got False"),
        ("input_toggle_rate", True,
         "input_toggle_rate must be a number, not a boolean, got True"),
        ("pipelined", 1, "pipelined must be a boolean, got 1"),
        ("adc_resolution_from_full_precision", "yes",
         "adc_resolution_from_full_precision must be a boolean, got 'yes'"),
    ])
    def test_booleans_and_flags_keep_their_kind(self, name, value, message):
        # True passed for 1 and 1 for True; the config read neither as meant
        with pytest.raises(ValueError) as info:
            dimc(32, **{name: value})
        assert str(info.value) == message

    def test_precision_override_clamps_serial_width(self):
        cfg = resolve_layer_precisions(aimc(32), b_i=1, b_w=8, b_o=8)
        assert cfg.b_i == 1 and cfg.b_cycle == 1
        cfg = resolve_layer_precisions(aimc(32), b_i=4, b_w=2, b_o=16)
        assert (cfg.b_i, cfg.b_w, cfg.b_o, cfg.b_cycle) == (4, 2, 16, 2)


class TestClockPeriod:
    def test_digital_clock_in_gate_delays(self, params):
        # d_gate mult + (4.8*5 + 2*13) d_gate tree + 2*(20-13) d_gate accumulate
        m = macro_metrics(params, dimc(32))
        assert m.clock_period == pytest.approx(65 * params.d_gate, rel=REL)

    def test_analog_clock_composition(self, params):
        cfg = ImcMacroConfig(imc_type=ImcType.AIMC, d_i=16, d_o=12, m=32, b_cycle=2)
        m = macro_metrics(params, cfg)
        assert m.cycles_per_mvm == 4
        expected = (adc_delay(params, 4, 16)
                    + adder_tree_cost(params, 8, 4, 1.0).delay
                    + accumulator_cost(params, 13, 7).delay)
        assert m.clock_period == pytest.approx(expected, rel=REL)
        assert m.clock_period == pytest.approx(4.90904e-9, rel=1e-5)

    def test_clock_equals_sum_of_breakdown_delays(self, params):
        for cfg in (aimc(64), dimc(64), aimc(32, b_i=4, b_w=4), dimc(128, b_cycle=2)):
            m = macro_metrics(params, cfg)
            total = sum(c.delay for c in m.breakdown.values())
            assert m.clock_period == pytest.approx(total, rel=REL)

    def test_pipelining_shortens_clock(self, params):
        for cfg in (aimc(64), dimc(64)):
            plain = macro_metrics(params, cfg)
            piped = macro_metrics(params, replace(cfg, pipelined=True))
            assert piped.clock_period < plain.clock_period
            # the register boundary splits the path, it never reorders it
            total = sum(c.delay for c in piped.breakdown.values())
            assert piped.clock_period < total

    @pytest.mark.parametrize("make, front", [(aimc, "adc"), (dimc, "multiplier")])
    def test_pipelined_clock_splits_after_front_end(self, params, make, front):
        for cfg in (make(16), make(256), make(64, b_cycle=4), make(64, m=2, n_macros=3)):
            m = macro_metrics(params, replace(cfg, pipelined=True))
            first = m.breakdown[front].delay
            total = sum(c.delay for c in m.breakdown.values())
            assert m.clock_period == max(first, total - first)

    def test_analog_clock_grows_with_rows(self, params):
        clocks = [macro_metrics(params, aimc(d)).clock_period for d in SIZES]
        assert all(a < b for a, b in zip(clocks, clocks[1:]))

    def test_digital_clock_grows_slowly(self, params):
        small = macro_metrics(params, dimc(32)).clock_period
        large = macro_metrics(params, dimc(1024)).clock_period
        assert small < large < 2 * small

    def test_full_precision_conversion_costs_energy_and_time(self, params):
        base = macro_metrics(params, aimc(128))
        full = macro_metrics(
            params, aimc(128, adc_resolution_from_full_precision=True))
        assert full.energy_per_mvm > base.energy_per_mvm
        assert full.clock_period > base.clock_period


class TestBreakdown:
    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("make", [aimc, dimc])
    def test_totals_match_component_sums(self, params, make, pipelined):
        m = macro_metrics(params, make(64, pipelined=pipelined))
        assert set(m.breakdown) == set(BREAKDOWN_COMPONENTS)
        assert m.energy_per_mvm == pytest.approx(
            sum(c.energy for c in m.breakdown.values()), rel=1e-9)
        assert m.area == pytest.approx(
            sum(c.area for c in m.breakdown.values()), rel=1e-9)

    def test_type_specific_components_are_zero(self, params):
        a = macro_metrics(params, aimc(32)).breakdown
        d = macro_metrics(params, dimc(32)).breakdown
        assert a["multiplier"].energy == 0.0 and a["adder_tree"].energy == 0.0
        assert d["dac"].energy == 0.0 and d["adc"].energy == 0.0
        assert a["dac"].energy > 0.0 and a["adc"].energy > 0.0
        assert d["multiplier"].energy > 0.0 and d["adder_tree"].energy > 0.0

    @pytest.mark.parametrize("n_macros", [1, 3])
    @pytest.mark.parametrize("make", [aimc, dimc])
    def test_input_register_is_the_register_energy_per_mvm(self, params, make, n_macros):
        # one write of d_i*b_i bits per MVM and macro, whatever the cycle count
        for cfg in (make(64, n_macros=n_macros), make(32, b_i=6, b_cycle=3, n_macros=n_macros)):
            m = macro_metrics(params, cfg)
            assert m.breakdown["input_register"].energy == (
                per_mvm_register_energy(params, cfg) * n_macros)
            assert per_cycle_energy(params, cfg)["input_register"] == 0.0

    def test_digital_single_bit_slices_need_no_combine_tree(self, params):
        for cfg in (dimc(64), dimc(256, pipelined=True, n_macros=4)):
            combine = macro_metrics(params, cfg).breakdown["combine_tree"]
            assert (combine.energy, combine.delay, combine.area) == (0.0, 0.0, 0.0)
        assert per_cycle_energy(params, dimc(64), 16, 8)["combine_tree"] == 0.0

    def test_idle_data_still_converts(self, params):
        # all-zero activity silences switching but not the converters
        cfg = aimc(64, input_toggle_rate=0.0, weight_sparsity=1.0)
        m = macro_metrics(params, cfg)
        assert m.breakdown["cell_array"].energy == 0.0
        assert m.breakdown["adc"].energy > 0.0
        assert m.energy_per_mvm > 0.0


class TestBreakdownObjects:
    """_pricing builds each breakdown ComponentCost and the MacroMetrics from a
    ready __dict__, without the generated __init__. Each must be
    indistinguishable from the one the public constructor builds, and the
    constructor's checks must accept every value."""

    @staticmethod
    def _metrics(params):
        for make in (aimc, dimc):
            for pipelined in (False, True):
                for exp in range(3, 13):  # sizes 8 to 4096
                    cfg = make(1 << exp, pipelined=pipelined)
                    yield cfg, macro_metrics(params, cfg)

    @staticmethod
    def _assert_same(built, expected):
        assert type(built) is type(expected)
        assert built == expected and not built != expected
        assert repr(built) == repr(expected)
        assert list(vars(built)) == [f.name for f in fields(expected)]
        for f in fields(built):
            with pytest.raises(FrozenInstanceError):
                setattr(built, f.name, getattr(expected, f.name))
        assert copy.copy(built) == expected
        assert pickle.loads(pickle.dumps(built)) == expected

    def test_every_breakdown_cost_matches_the_constructor(self, params):
        checked = 0
        for _, mm in self._metrics(params):
            assert list(mm.breakdown) == list(BREAKDOWN_COMPONENTS)
            for cost in mm.breakdown.values():
                expected = ComponentCost(**vars(cost))
                self._assert_same(cost, expected)
                assert hash(cost) == hash(expected)
                checked += 1
        assert checked == 2 * 2 * 10 * len(BREAKDOWN_COMPONENTS)

    def test_every_macro_metrics_matches_the_constructor(self, params):
        for _, mm in self._metrics(params):
            self._assert_same(mm, MacroMetrics(**vars(mm)))

    def test_totals_add_the_breakdown_left_to_right(self, params):
        # the floats a single sum() of the entries gave up to Python 3.11, bit for bit
        for cfg, mm in self._metrics(params):
            costs = [mm.breakdown[name] for name in BREAKDOWN_COMPONENTS]
            assert mm.energy_per_mvm == reduce(add, (c.energy for c in costs), 0.0)
            assert mm.area == reduce(add, (c.area for c in costs), 0.0)
            if not cfg.pipelined:
                assert mm.clock_period == reduce(add, (c.delay for c in costs), 0.0)


class TestScaling:
    def test_replication_linearity(self, params):
        for make in (aimc, dimc):
            one = macro_metrics(params, make(64))
            four = macro_metrics(params, make(64, n_macros=4))
            assert four.energy_per_mvm == pytest.approx(4 * one.energy_per_mvm, rel=REL)
            assert four.area == pytest.approx(4 * one.area, rel=REL)
            assert four.tops == pytest.approx(4 * one.tops, rel=REL)
            assert four.tops_per_w == pytest.approx(one.tops_per_w, rel=REL)
            assert four.tops_per_mm2 == pytest.approx(one.tops_per_mm2, rel=REL)
            assert four.clock_period == one.clock_period

    def test_digital_energy_per_mac_is_flat(self, params):
        per_mac = []
        for d in SIZES:
            m = macro_metrics(params, dimc(d))
            per_mac.append(m.energy_per_mvm / (d * d))
        assert max(per_mac) / min(per_mac) < 1.3

    @given(d_exp=st.integers(5, 10), b_i=st.sampled_from([2, 4, 8]),
           kind=st.sampled_from(list(ImcType)))
    def test_metrics_are_finite_and_positive(self, d_exp, b_i, kind):
        params = TechnologyParams()
        cfg = ImcMacroConfig(imc_type=kind, d_i=2**d_exp, d_o=2**d_exp, b_i=b_i,
                             b_cycle=min(b_i, 2) if kind is ImcType.AIMC else 1)
        m = macro_metrics(params, cfg)
        for v in (m.energy_per_mvm, m.clock_period, m.area, m.tops,
                  m.tops_per_w, m.tops_per_mm2):
            assert math.isfinite(v) and v > 0


class TestGating:
    def test_full_array_matches_default(self, params):
        for cfg in (aimc(64), dimc(64, b_cycle=2)):
            assert per_cycle_energy(params, cfg) == per_cycle_energy(
                params, cfg, cfg.d_i, cfg.d_o)

    def test_gated_components_scale_with_usage(self, params):
        cfg = aimc(64)
        full = per_cycle_energy(params, cfg)
        half = per_cycle_energy(params, cfg, 32, 32)
        assert half["cell_array"] == full["cell_array"]
        assert half["dac"] == pytest.approx(0.5 * full["dac"], rel=REL)
        assert half["adc"] == pytest.approx(0.5 * full["adc"], rel=REL)
        assert half["accumulator"] == pytest.approx(0.5 * full["accumulator"], rel=REL)

    def test_digital_multiplier_gates_in_both_dimensions(self, params):
        cfg = dimc(64)
        full = per_cycle_energy(params, cfg)
        quarter = per_cycle_energy(params, cfg, 32, 32)
        assert quarter["multiplier"] == pytest.approx(0.25 * full["multiplier"], rel=REL)
        assert quarter["adder_tree"] == pytest.approx(0.25 * full["adder_tree"], rel=REL)

    def test_rejects_usage_beyond_array(self, params):
        cfg = aimc(32)
        for call, message in (
                (lambda: per_cycle_energy(params, cfg, 33, 32),
                 "rows_used must lie in [0, d_i], got 33"),
                (lambda: per_cycle_energy(params, cfg, 0, 33),
                 "cols_used must lie in [0, d_o], got 33"),
                (lambda: per_mvm_register_energy(params, cfg, 33),
                 "rows_used must lie in [0, d_i], got 33")):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("count", [2.5, True, "a", -1])
    def test_usage_must_be_a_count(self, params, count):
        # 2.5 rows and True rows were priced; "a" failed on a comparison and a
        # fractional register row named n_bits, a field the caller never passed
        cfg = aimc(32)
        for name, call in (("rows_used", lambda: per_cycle_energy(params, cfg, count, 3)),
                           ("cols_used", lambda: per_cycle_energy(params, cfg, 3, count)),
                           ("rows_used", lambda: per_mvm_register_energy(params, cfg, count))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{name} must be an integer >= 0, got {count!r}"

    def test_register_energy_scales_with_rows(self, params):
        cfg = aimc(64, b_i=8)
        assert per_mvm_register_energy(params, cfg, 16) == pytest.approx(
            16 * 8 * params.dff_energy, rel=REL)


class TestDegenerateTechnology:
    # constants set to zero, the macro types left with a zero quantity, that quantity
    @pytest.mark.parametrize("zeros, failing, quantity", [
        (("c_gate", "k1", "k2", "k7"), (ImcType.AIMC, ImcType.DIMC), "energy per MVM"),
        (("d_gate", "k3", "k4"), (ImcType.AIMC, ImcType.DIMC), "clock period"),
        (("d_gate",), (ImcType.DIMC,), "clock period"),
        (("c_gate",), (ImcType.DIMC,), "energy per MVM"),
        (("a_gate", "sram_cell_area"), (ImcType.DIMC,), "area"),
    ])
    def test_zero_quantity_is_a_value_error(self, zeros, failing, quantity):
        params = TechnologyParams(**dict.fromkeys(zeros, 0.0))
        for kind in ImcType:
            cfg = ImcMacroConfig(imc_type=kind, d_i=32, d_o=32)
            if kind in failing:
                with pytest.raises(ValueError, match=f"{quantity} of the {kind.name} macro"):
                    macro_metrics(params, cfg)
                # the gated energies come from the same pricing, so they fail alike
                with pytest.raises(ValueError, match=f"{quantity} of the {kind.name} macro"):
                    per_cycle_energy(params, cfg)
            else:
                m = macro_metrics(params, cfg)
                assert m.energy_per_mvm > 0 and m.clock_period > 0 and m.area > 0

    # a constant at 1e308 overflows one quantity of the macro types that use it;
    # the macro is named, not the ComponentCost field that would hold the inf
    @pytest.mark.parametrize("constant, failing, quantity", [
        ("k1", (ImcType.AIMC,), "energy per MVM"),
        ("k2", (ImcType.AIMC,), "energy per MVM"),
        ("k7", (ImcType.AIMC,), "energy per MVM"),
        ("k3", (ImcType.AIMC,), "clock period"),
        ("k4", (ImcType.AIMC,), "clock period"),
        ("sram_cell_area", (ImcType.AIMC, ImcType.DIMC), "area"),
    ])
    def test_overflowing_quantity_names_the_macro(self, constant, failing, quantity):
        params = TechnologyParams(**{constant: 1e308})
        for kind in ImcType:
            cfg = ImcMacroConfig(imc_type=kind, d_i=32, d_o=32)
            if kind in failing:
                with pytest.raises(ValueError) as info:
                    macro_metrics(params, cfg)
                assert str(info.value) == (f"{quantity} of the {kind.name} macro is inf: "
                                           "its technology constants are out of range")
            else:
                m = macro_metrics(params, cfg)
                assert math.isfinite(m.energy_per_mvm * m.clock_period * m.area)


    # a unit cost near the float limit is finite, but each component multiplies it
    # by a count inside its ComponentCost: the component and the macro are named
    @pytest.mark.parametrize("technology, cfg, failure", [
        ({"fa_area_ratio": 1e308}, aimc(32), "combine tree of the AIMC macro: area"),
        ({"fa_area_ratio": 1e308}, dimc(32), "adder tree of the DIMC macro: area"),
        ({"dff_area_ratio": 1e308}, aimc(32), "input register of the AIMC macro: area"),
        ({"dff_area_ratio": 1e308}, dimc(32), "input register of the DIMC macro: area"),
        # smaller ratios, so that a later component overflows first
        ({"fa_area_ratio": 5e305}, dimc(32, b_i=1000), "accumulator of the DIMC macro: area"),
        ({"dff_area_ratio": 3e306}, dimc(32, b_i=1, pipelined=True),
         "pipeline register of the DIMC macro: area"),
        # c_gate * v_dd**2 overflows; the tiny ratios keep E_FA and E_DFF finite
        ({"c_gate": 1e300, "v_dd": 1e10, "fa_energy_ratio": 1e-30, "dff_energy_ratio": 1e-30},
         dimc(32), "multiplier of the DIMC macro: energy"),
    ], ids=["fa-aimc", "fa-dimc", "dff-aimc", "dff-dimc", "accumulator", "pipeline",
            "multiplier"])
    def test_overflowing_component_names_the_macro(self, technology, cfg, failure):
        with pytest.raises(ValueError) as info:
            macro_metrics(TechnologyParams(**technology), cfg)
        assert str(info.value) == (f"{failure} must be finite and non-negative, got inf: "
                                   "its technology constants are out of range")


def test_underflowing_area_is_a_value_error():
    # every area term is subnormal or zero, so the area in mm^2 rounds to zero
    params = TechnologyParams(a_gate=5e-324, sram_cell_area=5e-324, k5=1000.0)
    with pytest.raises(ValueError, match="area of the AIMC macro is zero"):
        macro_metrics(params, aimc(32))


def _fresh(fn, *args):
    """fn(*args) with the pricing memo empty: nothing carried from earlier calls."""
    macro._pricing_entry = None
    return fn(*args)


class TestPricingMemo:
    """_pricing keeps the last (params, cfg) it priced, for both macro_metrics and
    per_cycle_energy; whatever it priced before, every result must equal a fresh
    pricing."""

    @staticmethod
    def _interleaved_pool():
        """(params, cfg, rows, cols, metrics, energies) whose prices differ in params
        or in cfg alone, plus equal but distinct copies of each."""
        base = aimc(32)
        params_pool = [TechnologyParams(), TechnologyParams(), TechnologyParams(v_dd=0.8),
                       TechnologyParams(k1=80e-15, d_gate=40e-12)]
        cfgs = [base, aimc(32), replace(base, d_o=16), replace(base, b_w=4, b_cycle=1),
                dimc(32, pipelined=True), dimc(32, b_i=4, b_o=16)]
        assert params_pool[0] == params_pool[1] and params_pool[0] is not params_pool[1]
        assert cfgs[0] == cfgs[1] and cfgs[0] is not cfgs[1]
        pool = []
        for params in params_pool:
            for cfg in cfgs:
                for rows, cols in ((cfg.d_i, cfg.d_o), (3, 5)):
                    pool.append((params, cfg, rows, cols, _fresh(macro_metrics, params, cfg),
                                 _fresh(per_cycle_energy, params, cfg, rows, cols)))
        return pool

    @staticmethod
    def _stale(pool, seed, rounds):
        """The pool entries whose pricing differs from the fresh one, in a shuffled order."""
        order = list(pool)
        random.Random(seed).shuffle(order)
        failures = []
        for _ in range(rounds):
            for params, cfg, rows, cols, metrics, energies in order:
                if (per_cycle_energy(params, cfg, rows, cols) != energies
                        or macro_metrics(params, cfg) != metrics
                        or per_cycle_energy(params, cfg, rows, cols) != energies):
                    failures.append((seed, params, cfg, rows, cols))
        return failures

    def test_pricing_is_never_stale_across_interleaved_params_and_configs(self):
        pool = self._interleaved_pool()
        assert self._stale(pool, seed=3, rounds=4) == []

    def test_pricing_is_never_stale_across_threads(self):
        pool = self._interleaved_pool()
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda s=seed: failures.extend(
                           self._stale(pool, seed=s, rounds=3)))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_repeat_calls_share_one_pricing(self, params):
        cfg = aimc(32)
        first = _fresh(macro_metrics, params, cfg)
        assert macro_metrics(params, cfg) is first
        assert macro_metrics(TechnologyParams(), cfg) is not first
        assert macro_metrics(params, aimc(32)) is not first
        assert macro_metrics(params, aimc(32)) == first
