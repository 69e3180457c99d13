"""Host-speed reference: a fixed pure-Python kernel timed between requests.

The shared virtual machines this benchmark was built on change speed by up
to 2x within a minute, which no run length averages out.
The worker therefore times this kernel, which uses no imcperf code, before and
after every ~0.1 s of requests, run the way the requests run (on a --jobs
thread pool or not), and scales each request's host time by
NOMINAL_S / (kernel seconds): the time the request would have taken with the
kernel at NOMINAL_S. A change to imcperf moves the scaled times exactly as it
moves the raw ones, while most of the host's drift cancels.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

NOMINAL_S = 1e-3  # kernel seconds that define reference speed
SAMPLE_EVERY_S = 0.1
KERNEL_N = 50  # about NOMINAL_S of work on the machine the benchmark was built on


_KEYS = ("cell", "dac", "adc", "tree", "accumulator", "register")


@dataclass(frozen=True)
class _Cost:
    energy: float = 0.0
    delay: float = 0.0
    area: float = 0.0

    def __post_init__(self) -> None:
        for name in ("energy", "delay", "area"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def kernel(n: int = KERNEL_N) -> float:
    """Frozen-dataclass construction with validation, dict, tuple and float work."""
    total = 0.0
    for i in range(1, n + 1):
        bits = math.ceil(math.log2(i + 1))
        energies = dict.fromkeys(_KEYS, 0.0)
        for j, key in enumerate(_KEYS):
            cost = _Cost(energy=i * 1e-15 * (j + 1), delay=bits * 4.8e-11, area=0.6 * j)
            energies[key] = cost.energy * (1 << (bits & 7)) + cost.area
        ops = 2.0 * i * bits
        total += ops / (sum(energies.values()) + 1.0) + math.exp(-bits)
    return total


def kernel_seconds(jobs: int = 1) -> float:
    """Fastest of three kernel runs: the host's current speed, one sample.

    With jobs > 1 the kernel's work is split into 2 * jobs tasks on a thread
    pool of that size, made afresh each time as the CLI's --jobs pool is, so
    the sample also sees the cost of handing work between threads.
    """
    best = math.inf
    for _ in range(3):
        began = time.perf_counter()
        if jobs == 1:
            kernel()
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                list(pool.map(kernel, [KERNEL_N // (2 * jobs)] * (2 * jobs)))
        best = min(best, time.perf_counter() - began)
    return best
