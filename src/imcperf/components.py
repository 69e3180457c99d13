"""Per-component energy, delay, and area cost models for SRAM-based IMC macros.

Every operation is a pure closed-form function of a TechnologyParams instance.
The bundled defaults describe a 28nm node at 0.9 V supply. Energies are in
joules, delays in seconds, areas in square micrometers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TechnologyParams",
    "ComponentCost",
    "ceil_log2",
    "cell_array_energy",
    "adc_resolution",
    "adc_energy",
    "adc_delay",
    "adc_area",
    "dac_energy",
    "multiplier_cost",
    "adder_tree_fa_count",
    "adder_tree_cost",
    "accumulator_cost",
    "register_cost",
    "sram_array_area",
]


def ceil_log2(n: int) -> int:
    """Smallest integer e with 2**e >= n. Counts that are not powers of two round up."""
    if type(n) is bool or not isinstance(n, int) or n < 1:
        raise ValueError(f"ceil_log2 requires a positive integer, got {n!r}")
    return (n - 1).bit_length()


def _is_pow2(n: int) -> bool:
    return isinstance(n, int) and n >= 1 and (n & (n - 1)) == 0


# The one rule for a numeric field, used by every record, cost function and the
# CLI: each check raises a ValueError that names the field.
def _check_count(name: str, value: int, minimum: int = 1) -> None:
    # bool is an int subclass, but True is no count
    if type(value) is bool or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_number(name: str, value: float) -> None:
    if type(value) is bool:  # an int subclass, but True is no quantity
        raise ValueError(f"{name} must be a number, not a boolean, got {value!r}")
    try:
        math.isfinite(value)
    except TypeError:  # a string, None, a list
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:  # a number, too large for a float: left to the range check
        pass


def _check_amount(name: str, value: float) -> None:
    # every ComponentCost runs this thrice, so a valid value returns before any diagnosis
    try:  # an int too large for a float raises OverflowError
        if type(value) is not bool and math.isfinite(value) and value >= 0:
            return
    except TypeError:
        pass
    _check_number(name, value)
    raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _check_fraction(name: str, value: float) -> None:
    _check_number(name, value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class TechnologyParams:
    """Calibrated technology constants plus the calibration inputs the model cannot derive.

    Gate-level constants (c_gate/d_gate/a_gate) describe a NAND2 cell; full-adder,
    flip-flop, ADC, and DAC costs are expressed as ratios or fitted coefficients on
    top of them. sram_cell_area, sram_cell_write_energy, and the cache parameters
    consumed by the system model are placeholder calibration values: fit them against
    a memory compiler or measured silicon before trusting absolute numbers.
    """

    v_dd: float = 0.9               # supply voltage, V
    c_gate: float = 0.7e-15         # NAND2 gate capacitance, F
    d_gate: float = 47.8e-12        # NAND2 delay, s
    a_gate: float = 0.614           # NAND2 area, um^2
    k1: float = 100e-15             # ADC energy, linear-in-resolution term, F
    k2: float = 1e-18               # ADC energy, exponential term, F
    k3: float = 6.53e-12            # ADC delay per attached cell, s
    k4: float = 640e-12             # ADC conversion delay per bit, s
    k5: float = 0.0369              # ADC area exponent slope
    k6: float = 1.206               # ADC area exponent offset
    k7: float = 50e-15              # DAC energy per resolution bit, F
    fa_energy_ratio: float = 6.0    # E_FA in multiples of c_gate*v_dd^2
    dff_energy_ratio: float = 3.0   # E_DFF in multiples of c_gate*v_dd^2
    fa_sum_delay_ratio: float = 4.8   # sum-path delay in multiples of d_gate
    fa_carry_delay_ratio: float = 2.0  # carry-path delay in multiples of d_gate
    fa_area_ratio: float = 7.8      # A_FA in multiples of a_gate
    dff_area_ratio: float = 6.0     # A_DFF in multiples of a_gate
    sram_cell_area: float = 1.2     # um^2 per 6T cell, calibration input
    sram_cell_write_energy: float = 10e-15  # J per bit written, calibration input
    adc_fs: float = 0.5             # normalized ADC full-scale fraction
    adc_k: float = 2.0              # ADC noise-margin constant

    def __post_init__(self) -> None:
        # every field's type before any range: a boolean anywhere is named first
        for name, value in vars(self).items():
            _check_number(name, value)
        for name in (
            "c_gate", "d_gate", "a_gate", "k1", "k2", "k3", "k4", "k5", "k6", "k7",
            "fa_energy_ratio", "dff_energy_ratio", "fa_sum_delay_ratio",
            "fa_carry_delay_ratio", "fa_area_ratio", "dff_area_ratio",
            "sram_cell_area", "sram_cell_write_energy",
        ):
            _check_amount(name, getattr(self, name))
        if not math.isfinite(self.v_dd) or self.v_dd <= 0:
            raise ValueError(f"v_dd must be strictly positive, got {self.v_dd!r}")
        if not (0.0 < self.adc_fs <= 1.0):
            raise ValueError(f"adc_fs must lie in (0, 1], got {self.adc_fs!r}")
        if not self.adc_k >= 1.0:  # NaN too
            raise ValueError(f"adc_k must be >= 1, got {self.adc_k!r}")
        for name in ("fa_energy", "dff_energy", "fa_sum_delay", "fa_carry_delay",
                     "fa_area", "dff_area"):
            try:
                value = getattr(self, name)
            except OverflowError:  # v_dd**2
                value = math.inf
            if not math.isfinite(value):
                raise ValueError(f"{name} derived from the technology constants is not finite")

    # Derived unit costs. E_FA = 6*C_gate*V_dd^2 and friends hold exactly.
    @property
    def fa_energy(self) -> float:
        return self.fa_energy_ratio * self.c_gate * self.v_dd**2

    @property
    def dff_energy(self) -> float:
        return self.dff_energy_ratio * self.c_gate * self.v_dd**2

    @property
    def fa_sum_delay(self) -> float:
        return self.fa_sum_delay_ratio * self.d_gate

    @property
    def fa_carry_delay(self) -> float:
        return self.fa_carry_delay_ratio * self.d_gate

    @property
    def fa_area(self) -> float:
        return self.fa_area_ratio * self.a_gate

    @property
    def dff_area(self) -> float:
        return self.dff_area_ratio * self.a_gate


@dataclass(frozen=True)
class ComponentCost:
    """(energy, delay, area) triple for one hardware component."""

    energy: float = 0.0
    delay: float = 0.0
    area: float = 0.0

    def __post_init__(self) -> None:
        _check_amount("energy", self.energy)
        _check_amount("delay", self.delay)
        _check_amount("area", self.area)


def cell_array_energy(params: TechnologyParams, b_w: int, d_i: int, d_o: int,
                      activity: float) -> float:
    """Bitline switching energy of one full-array compute cycle.

    Each of the b_w*d_i*d_o active cells toggles half a gate capacitance;
    activity scales the data-dependent switching.
    """
    _check_count("b_w", b_w)
    _check_count("d_i", d_i)
    _check_count("d_o", d_o)
    _check_fraction("activity", activity)
    return 0.5 * params.c_gate * params.v_dd**2 * b_w * d_i * d_o * activity


def adc_resolution(params: TechnologyParams, bits_per_cycle: int, d_i: int) -> int:
    """Resolution needed to read a d_i-input analog sum of bits_per_cycle-bit inputs.

    ceil(bits_per_cycle + log2(adc_k * adc_fs * sqrt(d_i))), clamped to >= 1.
    """
    _check_count("bits_per_cycle", bits_per_cycle)
    _check_count("d_i", d_i)
    raw = bits_per_cycle + math.log2(params.adc_k * params.adc_fs * math.sqrt(d_i))
    if raw == math.inf:
        raise ValueError(f"ADC resolution for adc_k={params.adc_k!r} is too large to price")
    return max(1, math.ceil(raw))


def _adc_power(base: float, res: int) -> float:
    """base**res as a float; a resolution past the float range is a ValueError."""
    try:
        return base**res
    except OverflowError:
        raise ValueError(f"ADC resolution of {res} bits is too large to price") from None


def adc_energy(params: TechnologyParams, res: int) -> float:
    """SAR ADC conversion energy: (k1*res + k2*4**res) * v_dd^2."""
    _check_count("res", res)
    return (params.k1 * res + params.k2 * _adc_power(4.0, res)) * params.v_dd**2


def adc_delay(params: TechnologyParams, res: int, d_i: int) -> float:
    """Bitline settling plus conversion time: (k3*d_i + k4) * res.

    The k3*d_i term carries the loading of d_i cells on the bitline, so analog
    signal traversal is folded in here rather than in the cell-array row.
    """
    _check_count("res", res)
    _check_count("d_i", d_i)
    return (params.k3 * d_i + params.k4) * res


def adc_area(params: TechnologyParams, res: int) -> float:
    """SAR ADC area: 10**(-k5*res + k6) * 2**res."""
    _check_count("res", res)
    exponent = -params.k5 * res + params.k6
    try:
        scale = 10.0**exponent
    except OverflowError:
        raise ValueError(f"ADC area exponent -k5*res + k6 = {exponent!r} is too large "
                         "to price") from None
    return scale * _adc_power(2.0, res)


def dac_energy(params: TechnologyParams, res: int) -> float:
    """Input DAC energy k7*res*v_dd^2. DAC delay and area are treated as negligible."""
    _check_count("res", res)
    return params.k7 * res * params.v_dd**2


def multiplier_cost(params: TechnologyParams) -> ComponentCost:
    """1-bit multiplier, a single NAND gate between input bit and stored weight bit."""
    return ComponentCost(
        energy=0.5 * params.c_gate * params.v_dd**2,
        delay=params.d_gate,
        area=params.a_gate,
    )


def adder_tree_fa_count(fan_in: int, b_in: int) -> int:
    """Full adders in a binary reduction tree of fan_in operands of b_in bits each.

    Level n (1-indexed) holds fan_in/2**n ripple-carry adders of width b_in+n-1.
    fan_in must be a power of two; callers wanting other fan-ins go through
    adder_tree_cost, which pads.
    """
    if not _is_pow2(fan_in):
        raise ValueError(f"fan_in must be a power of two >= 1, got {fan_in!r}")
    _check_count("b_in", b_in)
    depth = fan_in.bit_length() - 1
    return sum((b_in + n - 1) * (fan_in >> n) for n in range(1, depth + 1))


def adder_tree_cost(params: TechnologyParams, fan_in: int, b_in: int,
                    activity: float) -> ComponentCost:
    """Energy, critical-path delay, and area of one reduction adder tree.

    Non-power-of-two fan-ins are padded to the next power of two: delay and area
    use the padded tree, energy is scaled by fan_in/padded (the padding inputs
    are tied off and never toggle).
    """
    _check_count("fan_in", fan_in)
    _check_count("b_in", b_in)
    _check_fraction("activity", activity)
    if fan_in == 1:
        return ComponentCost(0.0, 0.0, 0.0)
    depth = ceil_log2(fan_in)
    padded = 1 << depth
    n_fa = adder_tree_fa_count(padded, b_in)
    return ComponentCost(
        energy=params.fa_energy * n_fa * (fan_in / padded) * activity,
        delay=params.fa_sum_delay * depth + params.fa_carry_delay * (b_in + depth),
        area=params.fa_area * n_fa,
    )


def accumulator_cost(params: TechnologyParams, b_acc: int, b_adds_out: int) -> ComponentCost:
    """Accumulating register of width b_acc fed by a b_adds_out-bit addend.

    Delay covers only the carry ripple through the b_acc - b_adds_out extra bits;
    the lower bits are on the adder-tree path already.
    """
    if not isinstance(b_acc, int) or not isinstance(b_adds_out, int):
        raise ValueError("b_acc and b_adds_out must be integers")
    if b_adds_out < 0 or b_acc < b_adds_out:
        raise ValueError(f"need b_acc >= b_adds_out >= 0, got {b_acc!r} < {b_adds_out!r}")
    return ComponentCost(
        energy=(params.fa_energy + params.dff_energy) * b_acc,
        delay=params.fa_carry_delay * (b_acc - b_adds_out),
        area=(params.fa_area + params.dff_area) * b_acc,
    )


def register_cost(params: TechnologyParams, n_bits: int) -> ComponentCost:
    """n_bits D flip-flops; energy is per write event, clk-to-Q delay neglected."""
    _check_count("n_bits", n_bits, minimum=0)
    return ComponentCost(
        energy=n_bits * params.dff_energy,
        delay=0.0,
        area=n_bits * params.dff_area,
    )


def sram_array_area(params: TechnologyParams, n_cells: int) -> float:
    """Array area as n_cells * sram_cell_area. Valid only after area calibration."""
    _check_count("n_cells", n_cells, minimum=0)
    return n_cells * params.sram_cell_area
