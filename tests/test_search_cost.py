"""tools/search_cost.py: each stage times one pass and prints its figures, and
--against compares two trees on any stage."""

import importlib.util
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
    scaled_key = f"us_per_{_PER[stage]}_scaled_min"
    assert list(figures) == [*_KEYS[stage], scaled_key]
    assert float(figures[scaled_key]) > 0.0
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
        "round", "against", "this", "median", "this", "claim", "raw"]
    assert lines[1].endswith(f"(us per {per})") and lines[2].endswith(f"(us per {per})")
    assert lines[4].startswith("this tree won ") and lines[4].endswith(" of 1 rounds")
    assert lines[5].startswith(("claim bar met: won ", "claim bar not met: won "))
    assert lines[6].startswith(("raw claim bar met: won ", "raw claim bar not met: won "))


def test_against_keeps_each_runs_figures_apart(monkeypatch, capsys):
    """Against this same checkout, both runs of a round have one src path, and
    each run's raw minimum still reads beside its own scaled one."""
    spec = importlib.util.spec_from_file_location("search_cost", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = iter(range(1, 9))

    def run_minima(src, stage, passes, workload):
        index = next(runs)  # scaled and raw of one run share its index
        return 10.0 * index, 1.0 * index

    monkeypatch.setattr(tool, "_run_minima", run_minima)
    tool.compare(_ROOT, "search", 4, 1, None)
    lines = capsys.readouterr().out.splitlines()
    # round 1 runs the other tree first, and every round swaps the order
    assert lines[:4] == ["round 1   against 10 (raw 1)  this 20 (raw 2)",
                         "round 2   against 40 (raw 4)  this 30 (raw 3)",
                         "round 3   against 50 (raw 5)  this 60 (raw 6)",
                         "round 4   against 80 (raw 8)  this 70 (raw 7)"]
    assert lines[-2].startswith("claim bar not met: won 2 of 4 rounds ")
    assert lines[-1].startswith("raw claim bar not met: won 2 of 4 rounds ")


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
