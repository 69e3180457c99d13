"""Run every workload, print every metric with its unit, optionally record a baseline.

    python3 imcbench/suite.py                     # one untraced run per workload
    python3 imcbench/suite.py --runs 10 --trace --baseline imcbench/BASELINE.json

Run from the repository root. With --runs N each workload runs N times with
seeds 1..N; the table shows each metric's median and its spread (quartile
distance over median). --trace adds one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from imcbench.workloads import WHY, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "imcbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line[2:] for line in lines if line.startswith("# ")]
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        spread = 0.0
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
    return {"median": median, "spread": spread, "values": values}


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--baseline", metavar="PATH", help="write medians and machine info here")
    args = parser.parse_args()

    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "git_sha": git_sha(), "run_seconds": args.seconds, "runs": args.runs,
        "workloads": {},
    }
    for workload in WORKLOADS:
        print(f"== {workload}: {WHY[workload]}", flush=True)
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        notes = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            notes += result["notes"][1:]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        entry = {"end_to_end": {}, "error_rate": failed / attempted,
                 "requests": attempted, "notes": sorted(set(notes))}
        for name, series in values.items():
            entry["end_to_end"][name] = {"unit": units[name], **summarize(series)}
            print(f"  {name:<16} {entry['end_to_end'][name]['median']:>12.6g} {units[name]:<6}"
                  f" spread {entry['end_to_end'][name]['spread']:.3f}")
        print(f"  {'error_rate':<16} {entry['error_rate']:>12.6g} ratio "
              f"({failed} of {attempted} requests failed)")
        for note in entry["notes"]:
            print(f"  # {note}")
        if args.trace:
            traced = run_once(workload, 1, args.seconds, 1)
            entry["per_layer"] = {name: [metric["value"], metric["unit"]]
                                  for name, metric in traced["metrics"].items()}
            entry["trace_notes"] = traced["notes"][1:]
            for name, (value, unit) in entry["per_layer"].items():
                if value or not name.startswith("mapper."):
                    print(f"  {name:<44} {value:>12.6g} {unit}")
        report["workloads"][workload] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
