"""Closed-loop client: one process, one request in flight at a time.

Run by run.py as ``python3 imcbench/worker.py RUN_DIR``. RUN_DIR holds
job.json, requests.json, reference.json and the files the requests read.
Each request is an in-process ``imcperf.cli.main(argv)`` call writing JSON to
a file; its output is checked against the reference before it counts. Request
times are scaled to reference host speed (see clock.py). The result is
printed as one JSON line on stdout.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import sys
import time
import warnings
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_NAME = "out.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from imcbench.clock import NOMINAL_S, SAMPLE_EVERY_S, kernel_seconds  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process.

    VmHWM, where Linux has it: ru_maxrss also counts the parent's resident
    memory at the moment this process was exec'd.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Timings and outcomes of the requests issued in one phase.

    latencies are scaled to reference speed, raw_latencies as measured.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs  # the speed kernel runs on a pool as wide as the requests' own
        # arrays, not lists, keep the benchmark's own share of peak RSS small
        self.latencies = array("d")
        self.raw_latencies = array("d")
        self.kernel_samples = array("d")
        self.evals = 0
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.failures: list[str] = []

    def sample_speed(self, pending: int) -> None:
        """Time the kernel; scale the `pending` latest requests by this and the last sample."""
        sample = kernel_seconds(self.jobs)
        if pending:
            factor = NOMINAL_S / ((self.kernel_samples[-1] + sample) / 2)
            self.latencies.extend(raw * factor for raw in self.raw_latencies[-pending:])
        self.kernel_samples.append(sample)

    def evals_per_s(self) -> float:
        return self.evals / sum(self.latencies)

    def summary(self) -> dict:
        return {"latencies_ms": [x * 1e3 for x in self.latencies],
                "raw_latencies_ms": [x * 1e3 for x in self.raw_latencies],
                "busy_s": sum(self.latencies), "raw_busy_s": sum(self.raw_latencies),
                "kernel_ms": [x * 1e3 for x in self.kernel_samples],
                "evals": self.evals, "attempted": self.attempted, "failed": self.failed,
                "passes": self.passes, "failures": self.failures[:5]}


def run_phase(requests: list[dict], reference: dict, rng: random.Random,
              seconds: float, after_request=None) -> Phase:
    """Whole passes over the request set, each in a new order, until `seconds` pass."""
    from imcperf import cli
    from imcbench.reference import compare_rows

    out = Path(OUT_NAME)
    out_args = ["--format", "json", "--out", OUT_NAME]
    phase = Phase(max(r["jobs"] for r in requests))
    order = list(range(len(requests)))
    phase.sample_speed(0)
    began = sampled = time.perf_counter()
    pending = 0
    while True:
        rng.shuffle(order)
        for index in order:
            request = requests[index]
            error = None
            t0 = time.perf_counter()
            try:
                code = cli.main(request["argv"] + out_args)
            except Exception as exc:  # a raising request is a failed one
                code, error = None, f"raised {exc!r}"
            elapsed = time.perf_counter() - t0
            if after_request is not None:
                after_request()
            if error is None and code != 0:
                error = f"exit code {code}"
            if error is None:
                try:
                    rows = json.loads(out.read_text())["rows"]
                except (OSError, ValueError, KeyError) as exc:
                    error = f"unreadable output: {exc!r}"
                else:
                    error = compare_rows(reference[request["id"]], rows)
            phase.raw_latencies.append(elapsed)
            pending += 1
            if time.perf_counter() - sampled >= SAMPLE_EVERY_S:
                phase.sample_speed(pending)
                sampled, pending = time.perf_counter(), 0
            phase.attempted += 1
            if error is None:
                phase.evals += request["evals"]
            else:
                phase.failed += 1
                phase.failures.append(f"{request['id']}: {error}")
        phase.passes += 1
        if time.perf_counter() - began >= seconds:
            phase.sample_speed(pending)
            return phase


def traced_phase(requests: list[dict], reference: dict, rng: random.Random,
                 seconds: float, run_dir: Path, workload: str):
    from imcperf import cli, components, macro, mapper, system, workload as wl
    from imcbench.tracing import B_CYCLE_WARNING, Tracer

    tracer = Tracer()
    uninstall = tracer.install({"cli": cli, "components": components, "macro": macro,
                                "mapper": mapper, "system": system, "workload": wl})
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")

            def count_warnings() -> None:
                tracer.counts["b_cycle_warnings"] += sum(
                    B_CYCLE_WARNING in str(w.message) for w in caught)
                caught.clear()

            phase = run_phase(requests, reference, rng, seconds, count_warnings)
    finally:
        uninstall()
    tracer.write(run_dir.parent / f"trace-{workload}.bin")
    return tracer, phase


def main() -> int:
    run_dir = Path(sys.argv[1]).resolve()
    job = json.loads((run_dir / "job.json").read_text())
    requests = json.loads((run_dir / "requests.json").read_text())
    reference = json.loads((run_dir / "reference.json").read_text())
    os.chdir(run_dir)
    import imcperf.cli  # noqa: F401  (import cost belongs to set-up, not to a request)

    # The collector need not scan the benchmark's own objects during requests.
    gc.collect()
    gc.freeze()

    rng = random.Random(job["seed"])
    if not job["trace"]:
        phase = run_phase(requests, reference, rng, job["seconds"])
        result = {"run": phase.summary()}
    else:
        from imcbench.tracing import layer_metrics
        from imcbench.workloads import bench_layer_names

        untraced = run_phase(requests, reference, rng, job["seconds"] / 2)
        tracer, traced = traced_phase(requests, reference, rng, job["seconds"] / 2,
                                      run_dir, job["workload"])
        ratio = untraced.evals_per_s() / traced.evals_per_s() if traced.evals else 0.0
        metrics = layer_metrics(tracer, traced.passes, ratio, bench_layer_names())
        result = {"untraced": untraced.summary(), "traced": traced.summary(),
                  "spans": len(tracer.start),
                  "layers": {name: list(value) for name, value in metrics.items()}}
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
