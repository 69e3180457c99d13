"""Time every mapper search of the benchmark's ``dse-network`` request set.

    python3 tools/search_cost.py [--passes N] [--src SRC_DIR]

The requests come from ``imcbench/workloads.py`` (``dse_requests``): one
``network`` command per (network, macro type, size). Each request's layers are
searched in-process, without a tracer, by calling ``best_mapping`` once per
layer on the system that ``imcperf network`` builds for the request; only those
calls are timed. The script prints the number of searches and candidates per
pass and the minimum and median microseconds per candidate over N passes (a
pass's search time divided by its candidates). SRC_DIR is the directory that
holds the ``imcperf`` package (default: this repository's ``src``), so one copy
of the script can time two trees. Stdlib only.
"""

from __future__ import annotations

import argparse
import statistics
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5, help="passes to time (default: 5)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the imcperf package (default: ./src)")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be >= 1")
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
