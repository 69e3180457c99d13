"""Time a model stage over one pass of a benchmark workload's requests.

    python3 tools/search_cost.py [--stage search|pricing|request] [--workload W]
                                 [--passes N] [--src SRC_DIR]
    python3 tools/search_cost.py --against DIR [--stage S] [--workload W] [--rounds N]
                                 [--passes N]

The requests come from ``imcbench/workloads.py``. The ``search`` stage (the
default) takes the ``dse-network`` requests (``dse_requests``): one ``network``
command per (network, macro type, size). Each request's layers are searched
in-process, without a tracer, by calling ``best_mapping`` once per layer on the
system that ``imcperf network`` builds for the request; only those calls are
timed. It prints the number of searches and candidates per pass, the number
of candidates the searches price (their ``evaluate_layer_mapping`` calls, counted
in one untimed pass), and the minimum and median microseconds per candidate
over N passes (default 5). A candidate is a mapping of a layer's
``mapping_space``, whether or not the search prices it: a pass's search time
is divided by the size of its mapping spaces, not by the candidates priced, so
``--against`` compares the same work on both trees.

The ``pricing`` stage takes the ``peak-sweep`` requests (``peak_requests``):
each ``sweep`` prices its config's macro for both types at each of its sizes,
and each ``validate`` prices the seven reference configurations with its
config's technology. Each pass calls ``macro_metrics`` once per design point,
on a fresh copy of its config, so the pricing memo never answers, and times
those calls only. It prints the number of pricings per pass and the minimum and
median microseconds per pricing over N passes (default 200).

The ``request`` stage times the real ``cli.main`` over one pass of workload
W's requests (default ``dse-network``; its seed is the benchmark's default),
each run as the benchmark runs it: in-process, writing JSON to a file in a
directory that holds the files the requests read. It wraps the names ``main``
looks up for each step (``_parse_args``, ``load_config``, ``_load_workload``,
``_design_points``, ``_render_json`` and ``_emit``) and prints, for each step,
the minimum and median over N passes (default 5) of its microseconds per
request; ``model`` is the rest of ``main``, the search and pricing, and
``us_per_request`` all of it. A step a workload never takes
(``load_workload`` in ``peak-sweep``) reads 0.

Every stage also times ``imcbench/clock.py``'s speed kernel
(``kernel_seconds``) before the first pass and after each, and prints the
least figure scaled by ``NOMINAL_S`` over the median of those kernel times as
``<figure>_scaled_min``: the run's figure at the kernel's nominal host speed,
so that host drift between runs mostly cancels. One factor per run, from all
its samples, moves less than the samples of about 3 ms beside a single pass.

SRC_DIR is the directory that holds the ``imcperf`` package (default: this
repository's ``src``), so one copy of the script can time two trees.

With ``--against DIR`` the script compares this tree with the checkout in DIR
(its ``src`` directory holds the other ``imcperf``) on the chosen stage and,
for ``request``, workload. Each of N rounds runs the script once per tree,
each run in a fresh process, and swaps which tree goes first every round. A
run's figure is its host-scaled minimum over its passes; each round's line
also gives each run's raw minimum beside it. The script prints each tree's
minimum, median and quartiles of those figures, the median over rounds of the
ratio DIR / this tree (above 1 when this tree is faster) and the number of
rounds this tree won. It also says whether the rounds meet the bar for
claiming that this tree is faster: it won at least nine tenths of the rounds
(a tie counts for neither), and its median is below DIR's by more than the
distance between DIR's quartiles; a last line gives the same verdict on the
raw minima. Stdlib only.
"""

from __future__ import annotations

import argparse
import copy
import os
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# stage: (the figure it prints, default passes)
STAGES = {"search": ("us_per_candidate", 5), "pricing": ("us_per_pricing", 200),
          "request": ("us_per_request", 5)}
# each step of a request, and the name cli.main looks it up by
REQUEST_STEPS = {"parse_args": "_parse_args", "load_config": "load_config",
                 "load_workload": "_load_workload", "design_points": "_design_points",
                 "render_json": "_render_json", "emit": "_emit"}


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _searches(run_dir: Path) -> list[tuple[object, object, str]]:
    """(layer, system, objective) of every search one dse-network pass makes."""
    from imcbench.workloads import dse_requests, write_files
    from imcperf.cli import build_macro, load_config, make_system
    from imcperf.workload import bundled_network, bundled_network_names, load_network

    requests = dse_requests()
    write_files(requests, run_dir)
    bundle = load_config(None)
    searches = []
    for request in requests:
        argv = request["argv"]
        if argv[0] != "network":
            raise SystemExit(f"expected a network request, got {argv}")
        workload = _option(argv, "--workload")
        network = (bundled_network(workload) if workload in bundled_network_names()
                   else load_network(run_dir / workload))
        macro = build_macro(bundle, _option(argv, "--type"), int(_option(argv, "--sizes")))
        system = make_system(bundle, macro)
        objective = _option(argv, "--objective")
        searches.extend((layer, system, objective) for layer in network.layers)
    return searches


def _pricings(run_dir: Path) -> list[tuple[object, object]]:
    """(params, macro) of every design point one peak-sweep pass prices."""
    from imcbench.workloads import peak_requests, write_files
    from imcperf import cli

    requests = peak_requests()
    write_files(requests, run_dir)
    references = [macro for _, macro in cli._reference_macros()]
    pricings = []
    for request in requests:
        argv = request["argv"]
        bundle = cli.load_config(str(run_dir / _option(argv, "--config")))
        if argv[0] == "sweep":
            sizes = [int(size) for size in _option(argv, "--sizes").split(",")]
            macros = [cli.build_macro(bundle, imc_type, size)
                      for imc_type in ("aimc", "dimc") for size in sizes]
        elif argv[0] == "validate":
            macros = references
        else:
            raise SystemExit(f"expected a sweep or validate request, got {argv}")
        pricings.extend((bundle.params, macro) for macro in macros)
    return pricings


def _priced(searches: list[tuple[object, object, str]]) -> int:
    """The evaluate_layer_mapping calls the searches make: the candidates they price."""
    from imcperf import system as system_module

    price = system_module.evaluate_layer_mapping
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return price(*args)

    system_module.evaluate_layer_mapping = counting
    try:
        for layer, system, objective in searches:
            system_module.best_mapping(layer, system, objective)
    finally:
        system_module.evaluate_layer_mapping = price
    return calls


def _time_search(passes: int, between: Callable[[], None]
                 ) -> tuple[list[tuple[str, object]], list[float]]:
    from imcperf.mapper import mapping_space
    from imcperf.system import best_mapping

    with tempfile.TemporaryDirectory() as tmp:
        searches = _searches(Path(tmp))
    candidates = 0
    for layer, system, _ in searches:
        rows, cols = mapping_space(layer, system.macro)
        candidates += len(rows) * len(cols)
    priced = _priced(searches)

    per_candidate_us = []
    clock = time.perf_counter
    between()
    for _ in range(passes):
        elapsed = 0.0
        for layer, system, objective in searches:
            start = clock()
            best_mapping(layer, system, objective)
            elapsed += clock() - start
        per_candidate_us.append(elapsed / candidates * 1e6)
        between()
    return [("searches", len(searches)), ("candidates", candidates), ("priced", priced),
            ("passes", passes),
            ("us_per_candidate_min", f"{min(per_candidate_us):.4f}"),
            ("us_per_candidate_median", f"{statistics.median(per_candidate_us):.4f}")
            ], per_candidate_us


def _time_pricing(passes: int, between: Callable[[], None]
                  ) -> tuple[list[tuple[str, object]], list[float]]:
    from imcperf.macro import macro_metrics

    with tempfile.TemporaryDirectory() as tmp:
        pricings = _pricings(Path(tmp))

    per_pricing_us = []
    clock = time.perf_counter
    between()
    for _ in range(passes):
        # a copy has the config's fields but not the identity the pricing memo keys on
        fresh = [(params, copy.copy(macro)) for params, macro in pricings]
        start = clock()
        for params, macro in fresh:
            macro_metrics(params, macro)
        per_pricing_us.append((clock() - start) / len(fresh) * 1e6)
        between()
    return [("pricings", len(pricings)), ("passes", passes),
            ("us_per_pricing_min", f"{min(per_pricing_us):.2f}"),
            ("us_per_pricing_median", f"{statistics.median(per_pricing_us):.2f}")
            ], per_pricing_us


def _time_request(passes: int, workload: str, between: Callable[[], None]
                  ) -> tuple[list[tuple[str, object]], list[float]]:
    from imcbench.workloads import DEFAULT_SEED, requests_for, write_files
    from imcperf import cli

    requests = requests_for(workload, DEFAULT_SEED)
    clock = time.perf_counter
    spent = dict.fromkeys(REQUEST_STEPS, 0.0)

    def timed(step: str, fn):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[step] += clock() - start
        return wrapper

    saved = {name: getattr(cli, name) for name in REQUEST_STEPS.values()}
    for step, name in REQUEST_STEPS.items():
        setattr(cli, name, timed(step, saved[name]))
    per_request_us: dict[str, list[float]] = {
        step: [] for step in (*REQUEST_STEPS, "model", "request")}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_files(requests, Path(tmp))
        os.chdir(tmp)
        try:
            between()
            for _ in range(passes):
                spent.update(dict.fromkeys(spent, 0.0))
                elapsed = 0.0
                for request in requests:
                    start = clock()
                    code = cli.main([*request["argv"], "--format", "json", "--out", "out.json"])
                    elapsed += clock() - start
                    if code != 0:
                        raise SystemExit(f"{request['argv']} exited with code {code}")
                for step, seconds in (*spent.items(), ("model", elapsed - sum(spent.values())),
                                      ("request", elapsed)):
                    per_request_us[step].append(seconds / len(requests) * 1e6)
                between()
        finally:
            os.chdir(cwd)
            for name, original in saved.items():
                setattr(cli, name, original)
    figures: list[tuple[str, object]] = [("requests", len(requests)), ("passes", passes)]
    for step, values in per_request_us.items():
        prefix = "us_per_request" if step == "request" else f"{step}_us"
        figures += [(f"{prefix}_min", f"{min(values):.2f}"),
                    (f"{prefix}_median", f"{statistics.median(values):.2f}")]
    return figures, per_request_us["request"]


def _run_minima(src: Path, stage: str, passes: int, workload: str | None
                ) -> tuple[float, float]:
    """The stage's host-scaled and raw minimum figures in one fresh-process run
    on the package in src."""
    keys = [f"{STAGES[stage][0]}_{kind}" for kind in ("scaled_min", "min")]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--stage", stage,
         *(("--workload", workload) if workload else ()),
         "--passes", str(passes), "--src", str(src)],
        capture_output=True, text=True, check=True)
    figures = dict(line.split(maxsplit=1) for line in proc.stdout.splitlines())
    if not all(key in figures for key in keys):
        raise SystemExit(f"no {' or '.join(keys)} in the output for {src}:\n{proc.stdout}")
    scaled, raw = (float(figures[key]) for key in keys)
    return scaled, raw


def _quartiles(values: list[float]) -> tuple[float, float]:
    low, _, high = (statistics.quantiles(values, n=4, method="inclusive")
                    if len(values) > 1 else values * 3)
    return low, high


def _summary(label: str, values: list[float], per: str) -> str:
    low, high = _quartiles(values)
    return (f"{label:<8} min {min(values):.4g}  median {statistics.median(values):.4g}  "
            f"q1 {low:.4g}  q3 {high:.4g}  (us per {per})")


def _claim_bar(this: list[float], other: list[float]) -> str:
    """Whether this tree's figures beat other's by the bar for claiming a gain."""
    wins = sum(t < o for t, o in zip(this, other))
    low, high = _quartiles(other)
    gap = statistics.median(other) - statistics.median(this)
    met = wins * 10 >= len(this) * 9 and gap > high - low
    return (f"claim bar {'met' if met else 'not met'}: won {wins} of {len(this)} rounds "
            f"(needs 9/10), median gap {gap:.4g} against q3 - q1 {high - low:.4g}")


def compare(against: Path, stage: str, rounds: int, passes: int,
            workload: str | None) -> int:
    """Alternate fresh-process runs of this tree and the tree in against."""
    other_src = (against / "src").resolve()
    if not (other_src / "imcperf").is_dir():
        raise SystemExit(f"{other_src} holds no imcperf package")
    this_src = (ROOT / "src").resolve()
    # each tree's host-scaled and raw minima, one of each per round
    this: tuple[list[float], list[float]] = ([], [])
    other: tuple[list[float], list[float]] = ([], [])
    for index in range(rounds):
        order = ((this_src, this), (other_src, other))
        for src, (scaled, raw) in (order if index % 2 else order[::-1]):
            figures = _run_minima(src, stage, passes, workload)
            scaled.append(figures[0])
            raw.append(figures[1])
        print(f"round {index + 1:<3} against {other[0][-1]:.4g} (raw {other[1][-1]:.4g})  "
              f"this {this[0][-1]:.4g} (raw {this[1][-1]:.4g})", flush=True)
    ratios = [o / t for o, t in zip(other[0], this[0])]
    wins = sum(t < o for t, o in zip(this[0], other[0]))
    per = STAGES[stage][0].removeprefix("us_per_")
    print(_summary("against", other[0], per))
    print(_summary("this", this[0], per))
    print(f"median ratio against/this {statistics.median(ratios):.3f}")
    print(f"this tree won {wins} of {rounds} rounds")
    print(_claim_bar(this[0], other[0]))
    print(f"raw {_claim_bar(this[1], other[1])}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=tuple(STAGES), default="search",
                        help="best_mapping over dse-network, macro_metrics over "
                             "peak-sweep, or each step of cli.main over a workload "
                             "(default: search)")
    parser.add_argument("--workload",
                        help="benchmark workload of the request stage (default: dse-network)")
    parser.add_argument("--passes", type=int,
                        help="passes to time (default: 5 for search and request, "
                             "200 for pricing)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the imcperf package (default: ./src)")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="checkout to compare with, in alternating fresh processes")
    parser.add_argument("--rounds", type=int, default=10,
                        help="runs per tree with --against (default: 10)")
    args = parser.parse_args()
    passes = STAGES[args.stage][1] if args.passes is None else args.passes
    if passes < 1:
        parser.error("--passes must be >= 1")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.workload is not None and args.stage != "request":
        parser.error("--workload applies to the request stage only")
    if args.against is not None:
        return compare(args.against, args.stage, args.rounds, passes, args.workload)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT)]
    from imcbench.clock import NOMINAL_S, kernel_seconds
    from imcbench.workloads import WORKLOADS

    workload = args.workload or "dse-network"
    if workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    samples: list[float] = []  # the kernel's seconds before the first pass and after each

    def between() -> None:
        samples.append(kernel_seconds())

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # b_cycle rounding warns once per layer
        if args.stage == "request":
            figures, per_pass = _time_request(passes, workload, between)
        else:
            figures, per_pass = (_time_search if args.stage == "search"
                                 else _time_pricing)(passes, between)
    scaled = min(per_pass) * NOMINAL_S / statistics.median(samples)
    figures.append((f"{STAGES[args.stage][0]}_scaled_min", f"{scaled:.4f}"))
    for name, value in figures:
        print(f"{name:<27} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
