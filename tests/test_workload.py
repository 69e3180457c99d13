import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from imcperf import (
    Layer,
    LayerKind,
    Network,
    WorkloadError,
    bundled_network,
    bundled_network_names,
    classify,
    load_network,
    total_macs,
)

FC = Layer(k=128, c=640, name="fc")
PW = Layer(k=64, c=64, ox=12, oy=12, name="pw")
DW = Layer(g=64, ox=25, oy=5, fx=3, fy=3, name="dw")
CONV = Layer(k=16, c=16, ox=32, oy=32, fx=3, fy=3, name="conv")


class TestClassify:
    def test_benchmark_shapes(self):
        assert classify(FC) is LayerKind.FC
        assert classify(PW) is LayerKind.PW
        assert classify(DW) is LayerKind.DW
        assert classify(CONV) is LayerKind.CONV

    def test_rule_ordering(self):
        # a 1x1 output conv is fully-connected even with many channels
        assert classify(Layer(k=32, c=32)) is LayerKind.FC
        # grouped layers with single-channel groups are depthwise
        assert classify(Layer(g=8, ox=4, oy=4, fx=3, fy=3)) is LayerKind.DW
        # pointwise requires a spatial extent and a 1x1 kernel
        assert classify(Layer(k=4, c=4, ox=2)) is LayerKind.PW
        assert classify(Layer(k=4, c=4, ox=2, fx=2)) is LayerKind.CONV
        # grouped layers with multiple channels per group fit no bucket
        assert classify(Layer(g=4, k=2, c=2, ox=4, oy=4)) is LayerKind.OTHER

    def test_kind_values(self):
        assert {k.value for k in LayerKind} == {"fc", "pw", "dw", "conv", "other"}


class TestTotalMacs:
    def test_benchmark_counts(self):
        assert total_macs(FC) == 81920
        assert total_macs(PW) == 589824
        assert total_macs(DW) == 72000
        assert total_macs(CONV) == 2359296

    @given(st.permutations(["b", "g", "k", "c", "ox", "oy", "fx", "fy"]),
           st.lists(st.integers(1, 9), min_size=8, max_size=8))
    def test_order_independent(self, names, bounds):
        layer = Layer(**dict(zip(names, bounds)))
        expected = 1
        for v in bounds:
            expected *= v
        assert total_macs(layer) == expected

    def test_overflow_rejected(self):
        huge = Layer(k=1 << 31, c=1 << 31, ox=4)
        with pytest.raises(WorkloadError):
            total_macs(huge)


class TestLayerValidation:
    def test_rejects_bad_bounds(self):
        for bad in (dict(k=0), dict(c=-3), dict(ox=2.0), dict(fy=True)):
            with pytest.raises(WorkloadError):
                Layer(**bad)

    def test_rejects_bad_precision_overrides(self):
        with pytest.raises(WorkloadError):
            Layer(k=4, b_i=0)
        assert Layer(k=4, b_i=4).b_i == 4
        assert Layer(k=4).b_i is None

    def test_input_extent_includes_halo(self):
        layer = Layer(k=1, c=1, ox=12, oy=10, fx=3, fy=5, sx=2, sy=1)
        assert layer.ix == 25
        assert layer.iy == 14

    def test_network_rejects_a_boolean_repeat(self):
        with pytest.raises(WorkloadError) as info:
            Network("n", (FC, PW), (1, True))
        assert str(info.value) == "layer 1: repeat must be an integer >= 1, got True"

    def test_rejects_a_name_that_is_not_a_string(self):
        with pytest.raises(WorkloadError, match="name must be a string, got 5"):
            Layer(k=4, name=5)

    def test_element_counts(self):
        assert CONV.weight_elements == 16 * 16 * 3 * 3
        assert CONV.input_elements == 16 * 34 * 34
        assert CONV.output_elements == 16 * 32 * 32


class TestLoadNetwork:
    def write(self, tmp_path, doc):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(tmp_path, {
            "name": "tiny",
            "layers": [
                {"k": 16, "c": 8, "ox": 4, "oy": 4, "repeat": 3},
                {"g": 8, "fx": 3, "fy": 3, "ox": 5, "oy": 5},
            ],
        })
        net = load_network(path)
        assert net.name == "tiny"
        assert net.repeats == (3, 1)
        assert classify(net.layers[1]) is LayerKind.DW

    def test_name_defaults_to_stem(self, tmp_path):
        path = self.write(tmp_path, {"layers": [{"k": 2}]})
        assert load_network(path).name == "net"

    def test_invalid_json_reports_position(self, tmp_path):
        path = self.write(tmp_path, '{"layers": [\n  {"k": 2,}\n]}')
        with pytest.raises(WorkloadError, match=r"line 2, column"):
            load_network(path)

    def test_unknown_field_names_the_layer(self, tmp_path):
        path = self.write(tmp_path, {"layers": [{"k": 2}, {"kernel": 3}]})
        with pytest.raises(WorkloadError, match="layer 1"):
            load_network(path)

    def test_bad_repeat_and_empty_layers(self, tmp_path):
        with pytest.raises(WorkloadError, match="repeat"):
            load_network(self.write(tmp_path, {"layers": [{"k": 2, "repeat": 0}]}))
        with pytest.raises(WorkloadError, match="at least one layer"):
            load_network(self.write(tmp_path, {"layers": []}))

    def test_unknown_top_level_field(self, tmp_path):
        path = self.write(tmp_path, {"layers": [{"k": 2}], "version": 1})
        with pytest.raises(WorkloadError, match="version"):
            load_network(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError):
            load_network(tmp_path / "absent.json")

    def test_absurd_bounds_rejected_at_load(self, tmp_path):
        path = self.write(tmp_path, {"layers": [{"k": 1 << 31, "c": 1 << 31, "ox": 4}]})
        with pytest.raises(WorkloadError, match="overflows"):
            load_network(path)

    def test_repeated_macs_are_bounded_at_load(self, tmp_path):
        # a 10**300 repeat printed a 300-digit macs cell; 10**400 overflowed a float
        half = {"k": 1 << 31, "c": 1 << 30}  # 2**61 MACs: two repeats reach the limit
        assert load_network(self.write(tmp_path, {"layers": [
            {**half, "repeat": 2}]})).repeats == (2,)
        for entry, text in (({**half, "repeat": 3}, f"repeat 3 times {1 << 61} MACs"),
                            ({"k": 8, "repeat": 10**300}, f"repeat {10**300} times 8 MACs")):
            path = self.write(tmp_path, {"layers": [{"k": 2}, entry]})
            with pytest.raises(WorkloadError) as info:
                load_network(path)
            assert str(info.value) == f"layer 1: {text} overflows the supported range"

    def test_networks_built_in_code_are_bounded_too(self):
        # a 10**400 repeat failed pricing the network, converting to float
        with pytest.raises(WorkloadError, match=r"^layer 1: repeat 1(0){400} times 8 MACs "):
            Network(name="n", layers=(FC, Layer(k=8)), repeats=(1, 10**400))
        with pytest.raises(WorkloadError, match=f"^layer 0: layer MAC count {1 << 64} overflows"):
            Network(name="n", layers=(Layer(k=1 << 32, c=1 << 32),), repeats=(1,))

    def test_layer_name_must_be_a_string(self, tmp_path):
        path = self.write(tmp_path, {"layers": [{"k": 2}, {"k": 2, "name": 5}]})
        with pytest.raises(WorkloadError, match="layer 1: name must be a string"):
            load_network(path)

    @pytest.mark.parametrize("text", [
        '{"layers": [{"k": ' + "1" * 5000 + "}]}",
        "[" * 100_000 + "]" * 100_000,
    ], ids=["overlong-integer", "deep-nesting"])
    def test_undecodable_json_names_the_file(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(WorkloadError, match=re.escape(f"{path}: invalid JSON")):
            load_network(path)

    def test_file_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_bytes('{"layers": [{"k": 2, "name": "café"}]}'.encode("utf-8"))
        assert load_network(path).layers[0].name == "café"
        path.write_bytes(b'{"layers": [{"k": 2}]}\xff')
        with pytest.raises(WorkloadError, match=re.escape(str(path))):
            load_network(path)


def test_bundled_networks():
    names = bundled_network_names()
    assert "mlperf-tiny-layers" in names
    net = bundled_network("mlperf-tiny-layers")
    kinds = [classify(layer) for layer in net.layers]
    assert kinds == [LayerKind.FC, LayerKind.PW, LayerKind.DW, LayerKind.CONV]
    with pytest.raises(WorkloadError):
        bundled_network("no-such-network")
