"""Time every mapper search of the benchmark's ``dse-network`` request set.

    python3 tools/search_cost.py [--passes N] [--src SRC_DIR]
    python3 tools/search_cost.py --against DIR [--rounds N] [--passes N]

The requests come from ``imcbench/workloads.py`` (``dse_requests``): one
``network`` command per (network, macro type, size). Each request's layers are
searched in-process, without a tracer, by calling ``best_mapping`` once per
layer on the system that ``imcperf network`` builds for the request; only those
calls are timed. The script prints the number of searches and candidates per
pass and the minimum and median microseconds per candidate over N passes (a
pass's search time divided by its candidates). SRC_DIR is the directory that
holds the ``imcperf`` package (default: this repository's ``src``), so one copy
of the script can time two trees.

With ``--against DIR`` the script compares this tree with the checkout in DIR
(its ``src`` directory holds the other ``imcperf``). Each of N rounds runs the
script once per tree, each run in a fresh process, and swaps which tree goes
first every round. A run's figure is its minimum over its passes. The script
prints each tree's minimum, median and quartiles of those figures, the median
over rounds of the ratio DIR / this tree (above 1 when this tree is faster)
and the number of rounds this tree won. Stdlib only.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def _run_minimum(src: Path, passes: int) -> float:
    """us_per_candidate_min of one fresh-process run on the package in src."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--passes", str(passes),
         "--src", str(src)],
        capture_output=True, text=True, check=True)
    for line in proc.stdout.splitlines():
        name, _, value = line.partition(" ")
        if name == "us_per_candidate_min":
            return float(value)
    raise SystemExit(f"no us_per_candidate_min in the output for {src}:\n{proc.stdout}")


def _summary(label: str, values: list[float]) -> str:
    low, _, high = (statistics.quantiles(values, n=4, method="inclusive")
                    if len(values) > 1 else values * 3)
    return (f"{label:<8} min {min(values):.2f}  median {statistics.median(values):.2f}  "
            f"q1 {low:.2f}  q3 {high:.2f}  (us per candidate)")


def compare(against: Path, rounds: int, passes: int) -> int:
    """Alternate fresh-process runs of this tree and the tree in against."""
    other_src = (against / "src").resolve()
    if not (other_src / "imcperf").is_dir():
        raise SystemExit(f"{other_src} holds no imcperf package")
    this_src = (ROOT / "src").resolve()
    this: list[float] = []
    other: list[float] = []
    for index in range(rounds):
        order = ((this_src, this), (other_src, other))
        for src, values in (order if index % 2 else order[::-1]):
            values.append(_run_minimum(src, passes))
        print(f"round {index + 1:<3} against {other[-1]:.2f}  this {this[-1]:.2f}", flush=True)
    ratios = [o / t for o, t in zip(other, this)]
    wins = sum(t < o for t, o in zip(this, other))
    print(_summary("against", other))
    print(_summary("this", this))
    print(f"median ratio against/this {statistics.median(ratios):.3f}")
    print(f"this tree won {wins} of {rounds} rounds")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5, help="passes to time (default: 5)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the imcperf package (default: ./src)")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="checkout to compare with, in alternating fresh processes")
    parser.add_argument("--rounds", type=int, default=10,
                        help="runs per tree with --against (default: 10)")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.against is not None:
        return compare(args.against, args.rounds, args.passes)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT)]

    from imcperf.mapper import best_mapping, mapping_space

    with tempfile.TemporaryDirectory() as tmp:
        searches = _searches(Path(tmp))
    candidates = 0
    for layer, system, _ in searches:
        rows, cols = mapping_space(layer, system.macro)
        candidates += len(rows) * len(cols)

    per_candidate_us = []
    clock = time.perf_counter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # b_cycle rounding warns once per layer
        for _ in range(args.passes):
            elapsed = 0.0
            for layer, system, objective in searches:
                start = clock()
                best_mapping(layer, system, objective)
                elapsed += clock() - start
            per_candidate_us.append(elapsed / candidates * 1e6)

    print(f"searches                {len(searches)}")
    print(f"candidates              {candidates}")
    print(f"passes                  {args.passes}")
    print(f"us_per_candidate_min    {min(per_candidate_us):.2f}")
    print(f"us_per_candidate_median {statistics.median(per_candidate_us):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
