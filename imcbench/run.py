"""imcperf benchmark: one workload, one closed-loop run, one JSON result line.

    python3 imcbench/run.py --workload dse-network --seed 1 --seconds 15 --trace 0

Run from the repository root. The benchmark generates the workload's requests
from the seed, checks every output against reference rows, and measures host
time only, scaled to reference host speed (clock.py). With --trace 0 it prints the end-to-end metrics; with --trace 1 it
runs half the time untraced and half traced and prints the per-layer metrics.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "imcbench"
RUN_ROOT = ROOT / ".imcbench_run"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 170

# (name, unit, better, bound): the bound is the share of the parent's median
# by which a metric may worsen before a change counts as a regression. Two
# sets of ten seeds on a shared 2-vCPU host spread by up to 0.13
# (point_p50_ms, dse-network) and 0.15 (point_tail_ms, peak-sweep).
END_TO_END = (
    ("evals_per_s", "1/s", "higher", 0.2),
    ("point_p50_ms", "ms", "lower", 0.2),
    ("point_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("IMCPERF_CONFIG_DIR", None)  # the requests name their configs explicitly
    env["PYTHONHASHSEED"] = "0"  # same string hashes, so dict and set layouts, every run
    return env


def measure_setup(requests: list[dict], run_dir: Path) -> float:
    """Median set-up seconds over fresh processes, after one warm-up process."""
    from imcbench.clock import NOMINAL_S

    args: list[str] = []
    for flag in ("--config", "--workload"):
        names = {r["argv"][r["argv"].index(flag) + 1] for r in requests if flag in r["argv"]}
        for name in sorted(names):
            args += [flag, name]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *args],
                               cwd=run_dir, env=_child_env(), capture_output=True,
                               text=True, timeout=60, check=True)
        elapsed, kernel_s = map(float, probe.stdout.split())
        samples.append(elapsed * NOMINAL_S / kernel_s)
    return statistics.median(samples[1:])


def load_reference(workload: str, seed: int, requests: list[dict], run_dir: Path) -> dict:
    from imcbench import reference, workloads

    if workloads.seed_independent(workload) or seed == workloads.DEFAULT_SEED:
        golden = reference.load_golden(workload)["requests"]
        missing = [r["id"] for r in requests if r["id"] not in golden]
        if missing:
            raise RuntimeError(f"golden/{workload}.json lacks requests {missing[:3]}")
        return {r["id"]: golden[r["id"]] for r in requests}
    return {r["id"]: reference.reference_rows(r["argv"], run_dir) for r in requests}


def run_worker(run_dir: Path) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(run_dir)],
                          env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, phase: dict, setup_s: float,
               rss_mb: float) -> tuple[dict, list[str]]:
    from imcbench.workloads import TAIL_PERCENTILE

    latencies = phase["latencies_ms"]
    tail = TAIL_PERCENTILE[workload]
    values = {
        "evals_per_s": phase["evals"] / phase["busy_s"],
        "point_p50_ms": statistics.median(latencies),
        "point_tail_ms": percentile(latencies, tail),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    raw = phase["raw_latencies_ms"]
    kernel = phase["kernel_ms"]
    notes = [
        f"point_tail_ms is p{tail:g} of {len(latencies)} requests over "
        f"{phase['passes']} pass(es), {len(latencies) * (100 - tail) / 100:.0f} beyond it",
        f"unscaled: evals_per_s {phase['evals'] / phase['raw_busy_s']:.6g}, "
        f"point_p50_ms {statistics.median(raw):.6g}, point_tail_ms {percentile(raw, tail):.6g}; "
        f"speed kernel {statistics.median(kernel):.4g} ms median of {len(kernel)} "
        f"(range {min(kernel):.4g}-{max(kernel):.4g})",
    ]
    return {name: (values[name], unit) for name, unit, _, _ in END_TO_END}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "imcperf" / "__init__.py").is_file():
        print(f"imcbench: no imcperf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from imcbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    requests = workloads.requests_for(args.workload, args.seed)

    run_dir = RUN_ROOT / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workloads.write_files(requests, run_dir)
        ref = load_reference(args.workload, args.seed, requests, run_dir)
        (run_dir / "reference.json").write_text(json.dumps(ref))
        (run_dir / "requests.json").write_text(json.dumps(
            [{key: r[key] for key in ("id", "argv", "jobs", "evals")} for r in requests]))
        (run_dir / "job.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace)}))
        started = time.perf_counter()
        setup_s = None if args.trace else measure_setup(requests, run_dir)
        result = run_worker(run_dir)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"imcbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    phases = [result["run"]] if "run" in result else [result["untraced"], result["traced"]]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    for phase in phases:
        for failure in phase["failures"]:
            print(f"imcbench: mismatch: {failure}", file=sys.stderr)
    if args.trace:
        metrics = {name: tuple(value) for name, value in result["layers"].items()}
        notes = [f"traced {result['traced']['passes']} pass(es), {result['spans']} spans, "
                 f"worker peak RSS {result['peak_rss_mb']:.0f} MB; "
                 "per-layer counts and times are per pass"]
    else:
        metrics, notes = end_to_end(args.workload, result["run"], setup_s,
                                    result["peak_rss_mb"])

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"wall={time.perf_counter() - started:.1f}s: {workloads.WHY[args.workload]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} requests failed)")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
