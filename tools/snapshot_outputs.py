"""Write the CLI outputs of a fixed command matrix to a directory.

Run it once on each of two source trees and compare the directories with
``diff -r``: an empty diff shows that both trees print byte-identical results.

    python3 tools/snapshot_outputs.py OUT_DIR [--src SRC_DIR]

SRC_DIR is the directory that holds the ``imcperf`` package (default: this
repository's ``src``). The matrix is every command (sweep, peak, validate, layer,
network) in CSV and JSON, with the objectives energy, latency and edp for the
mapping commands, under nine configurations that switch on the options that
change how a macro is priced. Only the command outputs are written; warnings
on stderr are not part of the snapshot. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NETWORK_DIR = ROOT / "imcbench" / "networks"

_COMBINED = {
    "macro": {"pipelined": True, "adc_resolution_from_full_precision": True, "b_cycle": 4,
              "m": 2, "n_macros": 4, "weight_sparsity": 0.3},
    "cache": {"capacity_bits": 4096},
}
CONFIGS: dict[str, dict] = {
    "default": {},
    "pipelined": {"macro": {"pipelined": True}},
    "adc-full": {"macro": {"adc_resolution_from_full_precision": True}},
    "bcycle3": {"macro": {"b_cycle": 3}},
    "bcycle4": {"macro": {"b_cycle": 4}},
    "m2-macros4": {"macro": {"m": 2, "n_macros": 4}},
    "sparse": {"macro": {"weight_sparsity": 0.3}},
    "small-cache": {"cache": {"capacity_bits": 4096}},
    "combined": _COMBINED,
}
FORMATS = ("csv", "json")
OBJECTIVES = ("energy", "latency", "edp")
SWEEP_SIZES = "8,16,32,64,128,256,512,1024,2048,4096"
MAPPING_SIZES = "16,32,64,128,256"


def commands(workloads: list[str]) -> list[tuple[str, list[str]]]:
    """(output name, argv without --config/--format/--out) of one configuration."""
    out = [("sweep", ["sweep", "--sizes", SWEEP_SIZES]),
           ("peak-aimc", ["peak", "--type", "aimc"]),
           ("peak-dimc", ["peak", "--type", "dimc"]),
           ("validate", ["validate"])]
    selection = [arg for workload in workloads for arg in ("--workload", workload)]
    for command in ("layer", "network"):
        for objective in OBJECTIVES:
            out.append((f"{command}-{objective}",
                        [command, *selection, "--type", "both", "--sizes", MAPPING_SIZES,
                         "--objective", objective]))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the imcperf package (default: ./src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from imcperf.cli import main as imcperf_main

    workloads = ["mlperf-tiny-layers"] + [str(p) for p in sorted(NETWORK_DIR.glob("*.json"))]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for config_name, doc in CONFIGS.items():
        config_dir = args.out_dir / config_name
        config_dir.mkdir(exist_ok=True)
        config_path = config_dir / "config.json"
        config_path.write_text(json.dumps(doc, indent=2) + "\n")
        for name, command in commands(workloads):
            for fmt in FORMATS:
                target = config_dir / f"{name}.{fmt}"
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = imcperf_main([*command, "--config", str(config_path),
                                         "--format", fmt, "--out", str(target)])
                if code != 0:
                    failed += 1
                    target.write_text(f"exit code {code}\n")
                print(f"{config_name}/{target.name}: exit {code}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
