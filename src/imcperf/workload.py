"""DNN workload description: 8-nested-loop layers, networks, and layer classification.

A layer is the loop nest (B, G, K, C, OX, OY, FX, FY): batch, groups, output
channels per group, input channels per group, output spatial sizes, and kernel
sizes. Networks are ordered layer lists with repeat counts, loaded from JSON.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter
from pathlib import Path

from .components import _check_count

__all__ = [
    "Layer",
    "Network",
    "LayerKind",
    "WorkloadError",
    "classify",
    "total_macs",
    "load_network",
    "bundled_network",
    "bundled_network_names",
]

# Guard against absurd loop bounds; products beyond this are treated as overflow.
_MAC_LIMIT = 1 << 62

_BOUNDS = ("b", "g", "k", "c", "ox", "oy", "fx", "fy", "sx", "sy")
_PRECISIONS = ("b_i", "b_w", "b_o")
_get_bounds = attrgetter(*_BOUNDS)
_get_precisions = attrgetter(*_PRECISIONS)
_NO_PRECISIONS = (None,) * len(_PRECISIONS)


class WorkloadError(ValueError):
    """Raised for malformed workload files or invalid layer definitions."""


class LayerKind(enum.Enum):
    FC = "fc"
    PW = "pw"
    DW = "dw"
    CONV = "conv"
    OTHER = "other"


@dataclass(frozen=True)
class Layer:
    """One 8-nested-loop layer; bounds default to 1, strides to 1.

    b_i/b_w/b_o override the macro operand precisions for this layer when set.
    The input extents ix and iy (kernel halo included) and the weight_elements,
    input_elements and output_elements counts are set once, at construction.
    """

    b: int = 1
    g: int = 1
    k: int = 1
    c: int = 1
    ox: int = 1
    oy: int = 1
    fx: int = 1
    fy: int = 1
    sx: int = 1
    sy: int = 1
    b_i: int | None = None
    b_w: int | None = None
    b_o: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        # every layer of every request runs this, so a valid one skips the
        # diagnosis; bool is an int subclass, and type() leaves it out
        values = _get_bounds(self)
        precisions = _get_precisions(self)
        if precisions != _NO_PRECISIONS:
            values += tuple(value for value in precisions if value is not None)
        if not (isinstance(self.name, str) and set(map(type, values)) == {int}
                and min(values) >= 1):
            problems = []
            for f in _BOUNDS + _PRECISIONS:
                value = getattr(self, f)
                if value is None and f in _PRECISIONS:
                    continue  # the macro's precision applies
                try:
                    _check_count(f, value)
                except ValueError as exc:
                    problems.append(str(exc))
            if not isinstance(self.name, str):
                problems.append(f"name must be a string, got {self.name!r}")
            if problems:
                raise WorkloadError("; ".join(problems))
        # The derived counts, computed once. They are attributes beside the
        # fields, so ==, hash, repr and dataclasses.replace never read them.
        set_count = object.__setattr__
        ix = (self.ox - 1) * self.sx + self.fx  # input width including the kernel halo
        iy = (self.oy - 1) * self.sy + self.fy
        set_count(self, "ix", ix)
        set_count(self, "iy", iy)
        set_count(self, "weight_elements", self.g * self.k * self.c * self.fx * self.fy)
        set_count(self, "input_elements", self.b * self.g * self.c * ix * iy)
        set_count(self, "output_elements", self.b * self.g * self.k * self.ox * self.oy)
        set_count(self, "_macs", (self.b * self.g * self.k * self.c
                                  * self.ox * self.oy * self.fx * self.fy))


@dataclass(frozen=True)
class Network:
    """Ordered list of layers with per-layer repeat counts."""

    name: str
    layers: tuple[Layer, ...]
    repeats: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise WorkloadError("network must contain at least one layer")
        if len(self.layers) != len(self.repeats):
            raise WorkloadError("layers and repeats must have equal length")
        for i, (layer, r) in enumerate(zip(self.layers, self.repeats)):
            try:
                _check_count("repeat", r)
                macs = total_macs(layer)  # rejects absurd loop bounds
            except ValueError as exc:
                raise WorkloadError(f"layer {i}: {exc}") from None
            # the network's MACs, energy and latency scale by the repeat
            if r * macs > _MAC_LIMIT:
                raise WorkloadError(
                    f"layer {i}: repeat {r} times {macs} MACs overflows the supported range")


def classify(layer: Layer) -> LayerKind:
    """Layer kind from the loop shape; checks run in order fc, dw, pw, conv."""
    if layer.g == 1 and layer.ox == layer.oy == layer.fx == layer.fy == 1:
        return LayerKind.FC
    if layer.g > 1 and layer.k == 1 and layer.c == 1:
        return LayerKind.DW
    if layer.g == 1 and layer.fx == layer.fy == 1 and layer.ox * layer.oy > 1:
        return LayerKind.PW
    if layer.g == 1 and layer.fx * layer.fy > 1:
        return LayerKind.CONV
    return LayerKind.OTHER


def total_macs(layer: Layer) -> int:
    """Product of all eight loop bounds.

    Raises WorkloadError when it, or the layer's input element count, exceeds
    2**62. At unit strides the input count is at most the MAC count, so only
    sx and sy can push it past the bound.
    """
    macs = layer._macs
    if macs > _MAC_LIMIT:
        raise WorkloadError(f"layer MAC count {macs} overflows the supported range")
    if layer.input_elements > _MAC_LIMIT:
        raise WorkloadError("layer input element count overflows the supported range "
                            "of 2**62: its stride sx or sy is too large")
    return macs


_LAYER_FIELDS = {f.name for f in fields(Layer)} | {"repeat"}


def _layer_from_dict(entry: dict, index: int) -> tuple[Layer, int]:
    if not isinstance(entry, dict):
        raise WorkloadError(f"layer {index}: expected an object, got {type(entry).__name__}")
    unknown = sorted(set(entry) - _LAYER_FIELDS)
    if unknown:
        raise WorkloadError(f"layer {index}: unknown field(s) {', '.join(unknown)}")
    repeat = entry.get("repeat", 1)
    try:
        _check_count("repeat", repeat)
        layer = Layer(**{k: v for k, v in entry.items() if k != "repeat"})
    except ValueError as exc:
        raise WorkloadError(f"layer {index}: {exc}") from None
    return layer, repeat


def _network_from_dict(doc: dict, source: str, default_name: str | None = None) -> Network:
    if not isinstance(doc, dict):
        raise WorkloadError(f"{source}: top level must be an object")
    unknown = sorted(set(doc) - {"name", "layers"})
    if unknown:
        raise WorkloadError(f"{source}: unknown field(s) {', '.join(unknown)}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise WorkloadError(f"{source}: name must be a string")
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise WorkloadError(f"{source}: network must contain at least one layer")
    layers = []
    repeats = []
    for i, entry in enumerate(raw_layers):
        layer, repeat = _layer_from_dict(entry, i)
        layers.append(layer)
        repeats.append(repeat)
    return Network(name=name or default_name or source,
                   layers=tuple(layers), repeats=tuple(repeats))


def load_network(path: str | Path) -> Network:
    """Parse a network JSON file; unknown fields and invalid bounds are rejected."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise WorkloadError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise WorkloadError(f"{path}: not UTF-8 text: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # overlong integer, deep nesting
        raise WorkloadError(f"{path}: invalid JSON: {exc}") from None
    return _network_from_dict(doc, str(path), default_name=path.stem)


def _data_file(name: str) -> Path:
    from importlib.resources import files

    return Path(str(files("imcperf").joinpath("data", name)))


def bundled_network_names() -> tuple[str, ...]:
    """Names of the workload files shipped with the package."""
    return ("mlperf-tiny-layers",)


def bundled_network(name: str = "mlperf-tiny-layers") -> Network:
    """Load a workload shipped with the package (see bundled_network_names).

    Each file is package data, parsed on first use and then shared: a Network
    and its layers are frozen.
    """
    if name not in bundled_network_names():
        raise WorkloadError(f"unknown bundled network {name!r}")
    return _parsed_bundled_network(name)


@cache
def _parsed_bundled_network(name: str) -> Network:
    return load_network(_data_file(f"{name}.json"))
