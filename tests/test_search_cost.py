"""tools/search_cost.py: each stage times one pass and prints its figures, and
--against compares two trees on any stage."""

import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "search_cost.py"

_KEYS = {
    "search": ["searches", "candidates", "priced", "passes", "us_per_candidate_min",
               "us_per_candidate_median"],
    "pricing": ["pricings", "passes", "us_per_pricing_min", "us_per_pricing_median"],
    "request": ["requests", "passes",
                *(f"{step}_us_{stat}" for step in ("parse_args", "load_config", "load_workload",
                                                   "design_points", "render_json", "emit",
                                                   "model")
                  for stat in ("min", "median")),
                "us_per_request_min", "us_per_request_median"],
}
# the unit of each stage's figure
_PER = {"search": "candidate", "pricing": "pricing", "request": "request"}


def _run(*args):
    proc = subprocess.run([sys.executable, str(_TOOL), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("stage", sorted(_KEYS))
def test_one_pass_prints_every_figure(stage):
    figures = dict(line.split() for line in _run("--stage", stage, "--passes", "1")
                   .splitlines())
    assert list(figures) == _KEYS[stage]
    assert figures["passes"] == "1"
    count = figures[_KEYS[stage][0]]
    assert count.isdigit() and int(count) > 0
    if stage == "search":  # the searches price some of the candidates
        assert 0 < int(figures["priced"]) <= int(figures["candidates"])
    minimum, median = (float(figures[key]) for key in _KEYS[stage][-2:])
    assert 0.0 < minimum == median  # one pass gives one figure


@pytest.mark.parametrize("stage", sorted(_KEYS))
def test_against_a_checkout_reports_the_claim_bar(stage):
    lines = _run("--stage", stage, "--against", str(_ROOT), "--rounds", "1",
                 "--passes", "1").splitlines()
    per = _PER[stage]
    assert [line.split()[0] for line in lines] == [
        "round", "against", "this", "median", "this", "claim"]
    assert lines[1].endswith(f"(us per {per})") and lines[2].endswith(f"(us per {per})")
    assert lines[4].startswith("this tree won ") and lines[4].endswith(" of 1 rounds")
    assert lines[5].startswith(("claim bar met: won ", "claim bar not met: won "))


def test_request_steps_add_up_to_the_request():
    figures = dict(line.split() for line in _run("--stage", "request", "--workload",
                                                 "peak-sweep", "--passes", "1").splitlines())
    steps = [float(figures[key]) for key in _KEYS["request"][2:-2:2]]
    assert figures["load_workload_us_min"] == "0.00"  # peak-sweep names no workload
    assert float(figures["parse_args_us_min"]) > 0.0  # the parse main calls is timed
    assert all(value >= 0.0 for value in steps)
    assert sum(steps) == pytest.approx(float(figures["us_per_request_min"]), abs=0.05)


def test_workload_is_refused_outside_the_request_stage():
    proc = subprocess.run([sys.executable, str(_TOOL), "--stage", "search",
                           "--workload", "layer-mix"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "--workload applies to the request stage only" in proc.stderr
