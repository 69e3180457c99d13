"""tools/search_diff.py: the seeded differential of best_mapping against the
exhaustive reference passes on this tree and can fail."""

import importlib.util
import random
import warnings
from pathlib import Path

import pytest

from imcperf import Layer, best_mapping, enumerate_mappings, evaluate_mapping
from imcperf import system as system_module

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "search_diff.py"
_spec = importlib.util.spec_from_file_location("search_diff", _TOOL)
search_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(search_diff)


def _runner_up(layer, system, objective):
    """A candidate other than the winner, when the layer has two or more."""
    winner = best_mapping(layer, system, objective).mapping
    mapping = next((m for m in enumerate_mappings(layer, system.macro) if m != winner), winner)
    return evaluate_mapping(layer, system.macro, mapping)


def test_one_second_at_seed_1_finds_no_mismatch(capsys):
    assert search_diff.main(["--seconds", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed 1: ") and " 0 mismatches" in out
    assert int(out.split()[2]) > 0  # searches


def test_a_wrong_winner_prints_a_reproducer_that_fails(capsys):
    assert search_diff.run(60, 1, search=_runner_up) == 1
    text = capsys.readouterr().out
    assert text.count("\ndef test_search_diff_seed_1_draw_") == 1

    namespace = {}
    exec(compile(text, "<reproducer>", "exec"), namespace)
    (name,) = [key for key in namespace if key.startswith("test_")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # b_cycle rounding is drawn on purpose
        namespace[name]()  # the real search passes the pasted test
        namespace["best_mapping"] = _runner_up
        with pytest.raises(AssertionError):
            namespace[name]()


def _perturbed_pricing(system, layer):
    """The layer's pricing entry with a form whose energy is 1e-9 off."""
    entry = system_module._layer_pricing(system, layer)
    form = entry[4]

    def perturbed(r, k_u, ox_u):
        energy, latency = form(r, k_u, ox_u)
        return energy * (1 + 1e-9), latency

    return entry[:4] + (perturbed,)


def test_a_form_that_disagrees_with_its_price_prints_a_reproducer_that_fails(capsys):
    assert search_diff.run(60, 1, pricing=_perturbed_pricing) == 1
    text = capsys.readouterr().out
    assert text.count("\ndef test_search_diff_form_seed_1_draw_") == 1

    namespace = {}
    exec(compile(text, "<reproducer>", "exec"), namespace)
    (name,) = [key for key in namespace if key.startswith("test_")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # b_cycle rounding is drawn on purpose
        namespace[name]()  # the real form passes the pasted test
        namespace["_layer_pricing"] = _perturbed_pricing
        with pytest.raises(AssertionError):
            namespace[name]()


def test_draws_repeat_per_seed():
    first, second = random.Random(5), random.Random(5)
    draws = [search_diff.draw(first, 5, index) for index in range(20)]
    assert draws == [search_diff.draw(second, 5, index) for index in range(20)]


def test_draws_reach_a_free_cache_read_and_spilled_inputs():
    rng = random.Random(1)
    draws = [search_diff.draw(rng, 1, index) for index in range(30)]
    assert any(case.cache.get("read_energy") == 0.0 for case in draws)
    assert any(Layer(**case.layer).input_elements * case.layer.get("b_i", 8)
               > case.system().cache.capacity_bits for case in draws)
