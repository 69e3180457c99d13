"""Analytical energy, delay, and area model for SRAM-based in-memory computing.

The package models analog (charge-based) and digital SRAM macros from
per-component cost equations upward: peak macro metrics, spatial mapping of
neural-network layers, and system-level benchmarking with an activation cache
and DRAM. A CLI (`imcperf`) exposes design-point evaluation, array-size
sweeps, workload benchmarking, and a reference-configuration report.
"""

from . import components, macro, mapper, system, workload
from .components import *  # noqa: F401,F403
from .macro import *  # noqa: F401,F403
from .mapper import *  # noqa: F401,F403
from .system import *  # noqa: F401,F403
from .workload import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *components.__all__, *macro.__all__, *workload.__all__,
           *mapper.__all__, *system.__all__]
