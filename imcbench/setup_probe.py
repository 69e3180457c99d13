"""Set-up of one fresh process: import imcperf, parse the configs, load the workloads.

Run by run.py as ``python3 imcbench/setup_probe.py [--config PATH]... [--workload W]...``
from the run directory. Prints the seconds from just before ``import imcperf``
until the default config and every named config are parsed and every workload
is loaded, i.e. up to the first request, then the host-speed kernel's
seconds measured right after (see clock.py).
"""

import os
import sys
import time

began = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from imcperf.cli import load_config  # noqa: E402
from imcperf.workload import bundled_network, bundled_network_names, load_network  # noqa: E402

load_config(None)
args = sys.argv[1:]
for flag, value in zip(args[::2], args[1::2]):
    if flag == "--config":
        load_config(value)
    elif value in bundled_network_names():
        bundled_network(value)
    else:
        load_network(value)
elapsed = time.perf_counter() - began

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from imcbench.clock import kernel_seconds  # noqa: E402

print(repr(elapsed), repr(kernel_seconds()))
