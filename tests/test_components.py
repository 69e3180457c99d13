import math
from dataclasses import fields, replace
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from imcperf import (
    ComponentCost,
    ImcMacroConfig,
    ImcType,
    SystemConfig,
    TechnologyParams,
    accumulator_cost,
    adc_area,
    adc_delay,
    adc_energy,
    adc_resolution,
    adder_tree_cost,
    adder_tree_fa_count,
    ceil_log2,
    cell_array_energy,
    dac_energy,
    default_cache,
    multiplier_cost,
    register_cost,
    sram_array_area,
)
from _oracles import ripple_tree

REL = 1e-12
# tolerance for reference figures rounded to ~4 significant digits
PRINTED = 1e-3


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9, 1024)] == [0, 1, 2, 2, 3, 3, 4, 10]
    with pytest.raises(ValueError):
        ceil_log2(0)


class TestDerivedUnitCosts:
    def test_full_adder_and_dff(self, params):
        cv2 = params.c_gate * params.v_dd**2
        assert params.fa_energy == pytest.approx(6 * cv2, rel=REL)
        assert params.dff_energy == pytest.approx(3 * cv2, rel=REL)
        assert params.fa_energy == pytest.approx(3.402e-15, rel=REL)
        assert params.dff_energy == pytest.approx(1.701e-15, rel=REL)
        assert params.fa_sum_delay == pytest.approx(4.8 * 47.8e-12, rel=REL)
        assert params.fa_carry_delay == pytest.approx(2 * 47.8e-12, rel=REL)
        assert params.fa_area == pytest.approx(4.7892, rel=REL)
        assert params.dff_area == pytest.approx(3.684, rel=REL)


class TestAdcChain:
    def test_resolution_values(self, params):
        # ceil(b + log2(k * fs * sqrt(d_i))) with k*fs = 1
        assert adc_resolution(params, 2, 1024) == 7
        assert adc_resolution(params, 2, 32) == 5
        assert adc_resolution(params, 1, 4) == 2
        assert adc_resolution(params, 8, 32) == 11

    def test_resolution_clamps_to_one(self):
        low = TechnologyParams(adc_fs=0.01, adc_k=1.0)
        assert adc_resolution(low, 1, 1) == 1

    def test_energy_worked_values(self, params):
        assert adc_energy(params, 4) == pytest.approx(324.21e-15, rel=PRINTED)
        assert adc_energy(params, 7) == pytest.approx(580.27e-15, rel=PRINTED)
        assert adc_energy(params, 10) == pytest.approx(1.6594e-12, rel=PRINTED)
        assert adc_energy(params, 7) == pytest.approx(
            (params.k1 * 7 + params.k2 * 4**7) * params.v_dd**2, rel=REL)

    def test_delay_worked_values(self, params):
        assert adc_delay(params, 7, 1024) == pytest.approx(51.29e-9, rel=PRINTED)
        assert adc_delay(params, 4, 16) == pytest.approx(
            (params.k3 * 16 + params.k4) * 4, rel=REL)

    def test_area_worked_values(self, params):
        assert adc_area(params, 4) == pytest.approx(183.1, rel=PRINTED)
        assert adc_area(params, 7) == pytest.approx(1134.9, rel=PRINTED)
        assert adc_area(params, 10) == pytest.approx(7033.0, rel=PRINTED)

    def test_oversized_resolution_is_a_value_error(self, params):
        # 4**2000 does not fit a float; the error names the resolution
        for price in (adc_energy, adc_area):
            with pytest.raises(ValueError, match="ADC resolution of 2000 bits"):
                price(params, 2000)

    def test_overflowing_constants_are_a_value_error(self):
        # an infinite raw resolution, and an area exponent past the float range
        with pytest.raises(ValueError, match="ADC resolution for adc_k=1.7e"):
            adc_resolution(TechnologyParams(adc_k=1.7e308), 2, 64)
        with pytest.raises(ValueError, match="ADC area exponent"):
            adc_area(TechnologyParams(k6=1e300), 4)

    def test_float_powers_match_integer_powers(self, params):
        # 4.0**res and 2.0**res are exact wherever the integer power fits a float
        for res in range(1, 512):
            assert adc_energy(params, res) == (
                params.k1 * res + params.k2 * 4**res) * params.v_dd**2
            assert adc_area(params, res) == 10.0 ** (-params.k5 * res + params.k6) * 2**res

    @given(res=st.integers(min_value=1, max_value=14))
    def test_strictly_increasing_in_resolution(self, res):
        p = TechnologyParams()
        assert adc_energy(p, res + 1) > adc_energy(p, res)
        assert adc_area(p, res + 1) > adc_area(p, res)
        assert adc_delay(p, res + 1, 64) > adc_delay(p, res, 64)

    @given(d_i=st.integers(min_value=1, max_value=4095))
    def test_delay_strictly_increasing_in_rows(self, d_i):
        p = TechnologyParams()
        assert adc_delay(p, 5, d_i + 1) > adc_delay(p, 5, d_i)

    @given(b=st.integers(min_value=1, max_value=10),
           exp=st.integers(min_value=0, max_value=12))
    def test_resolution_monotone(self, b, exp):
        p = TechnologyParams()
        d_i = 2**exp
        assert adc_resolution(p, b + 1, d_i) >= adc_resolution(p, b, d_i)
        assert adc_resolution(p, b, 2 * d_i) >= adc_resolution(p, b, d_i)


class TestDacAndCells:
    def test_dac_worked_values(self, params):
        assert dac_energy(params, 2) == pytest.approx(81e-15, rel=REL)
        assert dac_energy(params, 7) == pytest.approx(283.5e-15, rel=REL)
        assert dac_energy(params, 1) == pytest.approx(40.5e-15, rel=REL)

    def test_cell_array_formula(self, params):
        expected = 0.5 * params.c_gate * params.v_dd**2 * 8 * 32 * 32 * 0.5
        assert cell_array_energy(params, 8, 32, 32, 0.5) == pytest.approx(expected, rel=REL)

    @given(b_w=st.integers(1, 8), d_i=st.integers(1, 512), d_o=st.integers(1, 512))
    def test_cell_array_linearity(self, b_w, d_i, d_o):
        p = TechnologyParams()
        base = cell_array_energy(p, b_w, d_i, d_o, 0.5)
        assert cell_array_energy(p, 2 * b_w, d_i, d_o, 0.5) == pytest.approx(2 * base, rel=REL)
        assert cell_array_energy(p, b_w, 2 * d_i, d_o, 0.5) == pytest.approx(2 * base, rel=REL)
        assert cell_array_energy(p, b_w, d_i, 2 * d_o, 0.5) == pytest.approx(2 * base, rel=REL)
        assert cell_array_energy(p, b_w, d_i, d_o, 1.0) == pytest.approx(2 * base, rel=REL)


class TestVoltageScaling:
    @given(v=st.floats(min_value=0.3, max_value=1.5))
    def test_energies_quadratic_areas_invariant(self, v):
        lo = TechnologyParams(v_dd=v)
        hi = TechnologyParams(v_dd=2 * v)
        assert adc_energy(hi, 6) == pytest.approx(4 * adc_energy(lo, 6), rel=REL)
        assert dac_energy(hi, 6) == pytest.approx(4 * dac_energy(lo, 6), rel=REL)
        assert cell_array_energy(hi, 8, 16, 16, 0.5) == pytest.approx(
            4 * cell_array_energy(lo, 8, 16, 16, 0.5), rel=REL)
        tree_hi = adder_tree_cost(hi, 16, 8, 1.0)
        tree_lo = adder_tree_cost(lo, 16, 8, 1.0)
        assert tree_hi.energy == pytest.approx(4 * tree_lo.energy, rel=REL)
        assert adc_area(hi, 6) == adc_area(lo, 6)
        assert tree_hi.area == tree_lo.area
        assert tree_hi.delay == tree_lo.delay


class TestAdderTree:
    def test_fa_count_spot_value(self):
        assert adder_tree_fa_count(4, 8) == 25

    def test_fa_count_rejects_non_power_of_two(self):
        for fan_in in (3, 5, 6, 12, 100):
            with pytest.raises(ValueError):
                adder_tree_fa_count(fan_in, 8)

    def test_fa_count_closed_form_matches_the_level_sum(self):
        # level n of a fan_in-operand tree holds fan_in/2**n adders of b_in+n-1 bits
        for depth in range(17):
            fan_in = 1 << depth
            for b_in in range(1, 65):
                level_sum = sum((b_in + n - 1) * (fan_in >> n) for n in range(1, depth + 1))
                assert adder_tree_fa_count(fan_in, b_in) == level_sum

    def test_matches_ripple_constructor(self, params):
        for exp in range(1, 11):
            fan_in = 2**exp
            for b_in in range(1, 17):
                n_fa, delay = ripple_tree(params, fan_in, b_in)
                cost = adder_tree_cost(params, fan_in, b_in, 1.0)
                assert adder_tree_fa_count(fan_in, b_in) == n_fa
                assert cost.delay == pytest.approx(delay, rel=REL)
                assert cost.energy == pytest.approx(params.fa_energy * n_fa, rel=REL)
                assert cost.area == pytest.approx(params.fa_area * n_fa, rel=REL)

    def test_worked_cost_values(self, params):
        cost = adder_tree_cost(params, 4, 8, 1.0)
        assert cost.energy == pytest.approx(85.05e-15, rel=REL)
        assert cost.delay == pytest.approx(1.4149e-9, rel=PRINTED)
        assert cost.area == pytest.approx(119.73, rel=REL)
        assert adder_tree_cost(params, 128, 8, 1.0).delay == pytest.approx(
            3.0401e-9, rel=PRINTED)

    def test_degenerate_single_input(self, params):
        assert adder_tree_cost(params, 1, 8, 1.0) == ComponentCost(0.0, 0.0, 0.0)

    @given(fan_in=st.integers(2, 1024), b_in=st.integers(1, 16))
    def test_padding_scales_energy_only(self, fan_in, b_in):
        p = TechnologyParams()
        depth = ceil_log2(fan_in)
        padded = 1 << depth
        cost = adder_tree_cost(p, fan_in, b_in, 0.5)
        full = adder_tree_cost(p, padded, b_in, 0.5)
        assert cost.delay == full.delay
        assert cost.area == full.area
        assert cost.energy == pytest.approx(full.energy * fan_in / padded, rel=REL)

    def test_activity_scales_energy(self, params):
        half = adder_tree_cost(params, 32, 8, 0.5)
        full = adder_tree_cost(params, 32, 8, 1.0)
        assert half.energy == pytest.approx(0.5 * full.energy, rel=REL)
        assert half.delay == full.delay


class TestSequentialCells:
    def test_accumulator_worked_values(self, params):
        cost = accumulator_cost(params, 22, 15)
        assert cost.energy == pytest.approx(112.27e-15, rel=PRINTED)
        assert cost.delay == pytest.approx(669.2e-12, rel=REL)
        assert cost.area == pytest.approx(186.4, rel=PRINTED)

    def test_accumulator_rejects_inverted_widths(self, params):
        with pytest.raises(ValueError):
            accumulator_cost(params, 14, 15)

    def test_register_cost(self, params):
        cost = register_cost(params, 8)
        assert cost.energy == pytest.approx(8 * params.dff_energy, rel=REL)
        assert cost.delay == 0.0
        assert register_cost(params, 0) == ComponentCost(0.0, 0.0, 0.0)

    def test_multiplier_is_one_nand(self, params):
        cost = multiplier_cost(params)
        assert cost.energy == pytest.approx(0.5 * params.c_gate * params.v_dd**2, rel=REL)
        assert cost.delay == params.d_gate
        assert cost.area == params.a_gate


def test_sram_array_area_before_and_after_calibration(params):
    legacy = replace(params, sram_cell_area=0.3)
    assert sram_array_area(legacy, 1024 * 1024 * 8) == pytest.approx(2.516e6, rel=PRINTED)
    assert sram_array_area(params, 10) == pytest.approx(12.0, rel=REL)


class TestValidation:
    def test_rejects_nonpositive_voltage(self):
        with pytest.raises(ValueError):
            TechnologyParams(v_dd=0.0)

    def test_rejects_negative_constants(self):
        with pytest.raises(ValueError):
            TechnologyParams(k1=-1e-15)
        with pytest.raises(ValueError):
            TechnologyParams(sram_cell_area=-0.1)

    def test_rejects_bad_adc_bounds(self):
        with pytest.raises(ValueError):
            TechnologyParams(adc_fs=0.0)
        with pytest.raises(ValueError):
            TechnologyParams(adc_fs=1.5)
        with pytest.raises(ValueError):
            TechnologyParams(adc_k=0.5)

    @pytest.mark.parametrize("name", ["v_dd", "k1", "adc_fs", "sram_cell_write_energy"])
    def test_rejects_booleans(self, name):
        with pytest.raises(ValueError) as info:
            TechnologyParams(**{name: True})
        assert str(info.value) == f"{name} must be a number, not a boolean, got True"

    def test_rejects_nan_adc_k(self):
        with pytest.raises(ValueError, match="adc_k must be >= 1, got nan"):
            TechnologyParams(adc_k=math.nan)

    @pytest.mark.parametrize("constants, derived", [
        (dict(v_dd=1e200), "fa_energy"),  # v_dd**2 overflows
        (dict(dff_energy_ratio=1e300, c_gate=1e10), "dff_energy"),
        (dict(d_gate=1e308, fa_sum_delay_ratio=10.0), "fa_sum_delay"),
        (dict(a_gate=1e308, dff_area_ratio=6.0, fa_area_ratio=0.0), "dff_area"),
    ])
    def test_rejects_overflowing_unit_costs(self, constants, derived):
        with pytest.raises(ValueError, match=f"{derived} derived from the technology"):
            TechnologyParams(**constants)

    def test_zero_gate_capacitance_is_allowed(self):
        # degenerate calibrations are legal inputs for what-if studies
        p = TechnologyParams(c_gate=0.0)
        assert p.fa_energy == 0.0

    def test_component_cost_rejects_negative(self):
        with pytest.raises(ValueError):
            ComponentCost(energy=-1e-15)

    def test_count_and_fraction_guards(self, params):
        with pytest.raises(ValueError):
            cell_array_energy(params, 0, 32, 32, 0.5)
        with pytest.raises(ValueError):
            cell_array_energy(params, 8, 32, 32, 1.5)
        with pytest.raises(ValueError):
            adc_energy(params, 0)
        with pytest.raises(ValueError):
            adc_delay(params, 3, 0)


_MACRO = ImcMacroConfig(ImcType.AIMC, 32, 32)
# (record, a constructor taking the field as a keyword, field) for every field
# that holds a real number; an integer field gives the count text instead
_REAL_FIELDS = (
    [("TechnologyParams", TechnologyParams, f.name) for f in fields(TechnologyParams)]
    + [("ImcMacroConfig", partial(ImcMacroConfig, ImcType.AIMC, 32, 32), name)
       for name in ("input_toggle_rate", "weight_sparsity")]
    + [("MemoryLevel", partial(replace, default_cache(_MACRO)), name)
       for name in ("read_energy", "write_energy", "area")]
    + [("SystemConfig", partial(SystemConfig, _MACRO, TechnologyParams(),
                                default_cache(_MACRO)), "dram_energy_per_bit")]
    + [("ComponentCost", ComponentCost, name) for name in ("energy", "delay", "area")]
)


class TestNumericFieldRule:
    """Every record checks its numeric fields with the rule in components: a
    boolean, a non-number or a number past the float range is a ValueError that
    names the field."""

    @pytest.mark.parametrize("value", ["1", None, [1]], ids=["string", "none", "list"])
    @pytest.mark.parametrize("build, name", [
        pytest.param(build, name, id=f"{record}.{name}") for record, build, name in _REAL_FIELDS])
    def test_non_number_is_named(self, build, name, value):
        with pytest.raises(ValueError) as info:
            build(**{name: value})
        assert str(info.value) == f"{name} must be a number, got {value!r}"

    # 10**5000 is past the digits str() converts, so the count cannot come from str()
    @pytest.mark.parametrize("value, digits", [(10**400, 401), (-10**400, 401), (10**5000, 5001)],
                             ids=["401-digits", "negative", "5001-digits"])
    @pytest.mark.parametrize("build, name", [
        pytest.param(build, name, id=f"{record}.{name}") for record, build, name in _REAL_FIELDS])
    def test_integer_past_the_float_range_is_named(self, build, name, value, digits):
        # never an OverflowError, which pytest.raises(ValueError) lets through
        with pytest.raises(ValueError) as info:
            build(**{name: value})
        assert str(info.value) == \
            f"{name} is too large for a float, got an integer of {digits} digits"

    def test_fraction_past_the_float_range_is_named(self):
        with pytest.raises(ValueError) as info:
            TechnologyParams(k1=Fraction(10**400, 3))
        assert str(info.value) == "k1 is too large for a float"

    @pytest.mark.parametrize("cost", [partial(cell_array_energy, b_w=8, d_i=32, d_o=32),
                                      partial(adder_tree_cost, fan_in=32, b_in=8)],
                             ids=["cell_array_energy", "adder_tree_cost"])
    def test_activity_past_the_float_range_is_named(self, params, cost):
        with pytest.raises(ValueError) as info:
            cost(params, activity=10**400)
        assert str(info.value) == \
            "activity is too large for a float, got an integer of 401 digits"

    @pytest.mark.parametrize("name", ["energy", "delay", "area"])
    def test_component_cost_rejects_a_boolean(self, name):
        with pytest.raises(ValueError) as info:
            ComponentCost(**{name: True})
        assert str(info.value) == f"{name} must be a number, not a boolean, got True"

    def test_counts_reject_a_boolean(self, params):
        with pytest.raises(ValueError) as info:
            register_cost(params, True)
        assert str(info.value) == "n_bits must be an integer >= 0, got True"
        with pytest.raises(ValueError) as info:
            ceil_log2(True)
        assert str(info.value) == "ceil_log2 requires a positive integer, got True"
        with pytest.raises(ValueError) as info:
            accumulator_cost(params, True, False)
        assert str(info.value) == "b_adds_out must be an integer >= 0, got False"
        with pytest.raises(ValueError) as info:
            adder_tree_fa_count(True, 8)
        assert str(info.value) == "fan_in must be an integer >= 1, got True"


def test_determinism(params):
    # identical inputs give bit-identical outputs
    assert adc_energy(params, 9) == adc_energy(params, 9)
    assert adder_tree_cost(params, 24, 9, 0.3) == adder_tree_cost(params, 24, 9, 0.3)
    assert math.isfinite(adc_area(params, 14))
