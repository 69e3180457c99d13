"""Write the CLI outputs of a fixed command matrix to a directory.

Run it once on each of two source trees and compare the directories with
``diff -r``: an empty diff shows that both trees print byte-identical results.

    python3 tools/snapshot_outputs.py OUT_DIR [--src SRC_DIR]

SRC_DIR is the directory that holds the ``imcperf`` package (default: this
repository's ``src``). The matrix is every command (sweep, peak, validate, layer,
network) in CSV and JSON, with the objectives energy, latency and edp for the
mapping commands, under nine configurations that switch on the options that
change how a macro is priced. Under ``escaping/``, ``layer`` and ``network`` run
in both formats on a workload whose network and layer names hold non-ASCII,
quote, backslash and control characters, so the comparison covers how each
format escapes text. Each mapping command also runs with ``--jobs 2``
into its own ``*-jobs2`` output, so a tree that evaluated ``--jobs`` on a thread
pool can be compared with one that evaluates serially. Only the command outputs
are written; warnings on stderr are not part of the snapshot.

The front end is snapshotted too: under ``frontend/``, one file per case holds
the exit code, stdout and stderr of ``--help`` (top level and every command) and
of a fixed set of usage, configuration and evaluation errors. Help text is
formatted for an 80-column terminal, and the output directory's path is
replaced by ``<OUT>`` so that snapshots written to two directories compare
equal. Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
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
            argv = [command, *selection, "--type", "both", "--sizes", MAPPING_SIZES,
                    "--objective", objective]
            out.append((f"{command}-{objective}", argv))
            out.append((f"{command}-{objective}-jobs2", [*argv, "--jobs", "2"]))
    return out


# names that every output format must escape or quote; layers with different
# precisions, so the names ride on more than one priced macro
ESCAPING_NETWORK = {
    "name": 'caf\u00e9 "net" \\ \u2028\t\u0001 \u03bb\u2013\U0001f600',
    "layers": [
        {"name": 'conv "3x3", \\path\\ \u00fcber', "k": 16, "c": 8, "ox": 8, "oy": 8,
         "fx": 3, "fy": 3},
        {"name": "tab\there\nnewline\r\u007f\u0000end", "k": 32, "c": 16, "b_i": 4},
        {"name": "\u2029\ufeff\u00a0,;'", "g": 8, "ox": 4, "oy": 4, "fx": 3, "fy": 3,
         "repeat": 2},
    ],
}


def escaping_commands(workload: str) -> list[tuple[str, list[str]]]:
    """(output name, argv without --format/--out) of the escaping runs."""
    common = ["--type", "both", "--sizes", "16,32"]
    return [("layer", ["layer", "--workload", workload, *common]),
            ("network", ["network", "--workload", workload,
                         "--workload", "mlperf-tiny-layers", *common])]


# inputs of the error cases, written under frontend/inputs/
FRONTEND_INPUTS: dict[str, str] = {
    "bad-json.json": "{not json",
    "not-object.json": "[]",
    "unknown-key.json": json.dumps({"macro": {"rows": 32}}),
    "invalid-macro.json": json.dumps({"macro": {"d_i": -4}}),
    "zero-capacity.json": json.dumps({"cache": {"capacity_bits": 0}}),
    "narrow-bandwidth.json": json.dumps({"cache": {"bandwidth_bits_per_cycle": 8}}),
    "degenerate.json": json.dumps({"technology": {"d_gate": 0, "k3": 0, "k4": 0}}),
    "huge-layer.json": json.dumps({"layers": [
        {"name": "huge", "k": 5040, "c": 5040, "ox": 5040, "fx": 5040}]}),
    "huge-m.json": json.dumps({"macro": {"m": 10**400}}),
    "huge-repeat.json": json.dumps({"layers": [{"k": 8, "repeat": 10**400}]}),
    "bool-macro-widths.json": json.dumps({"macro": {"b_i": True, "b_cycle": True}}),
    "bool-macro-count.json": json.dumps({"macro": {"n_macros": True}}),
    "int-macro-flag.json": json.dumps({"macro": {"pipelined": 1}}),
    "string-macro-flag.json": json.dumps(
        {"macro": {"adc_resolution_from_full_precision": "yes"}}),
    "bool-technology.json": json.dumps({"technology": {"v_dd": True}}),
    "bool-cache.json": json.dumps({"cache": {"capacity_bits": True}}),
    "string-technology.json": json.dumps({"technology": {"v_dd": "1"}}),
    "null-cache-energy.json": json.dumps({"cache": {"read_energy": None}}),
    "string-toggle-rate.json": json.dumps({"macro": {"input_toggle_rate": "0.5"}}),
    "string-dram.json": json.dumps({"dram_energy_per_bit": "1"}),
}


def frontend_cases(inputs: Path) -> list[tuple[str, list[str]]]:
    """(case name, argv) of the help texts and of the usage, config and evaluation errors."""
    def config(name: str) -> list[str]:
        return ["--config", str(inputs / name)]

    tiny = ["--workload", "mlperf-tiny-layers"]
    cases = [("help", ["--help"])]
    cases += [(f"help-{command}", [command, "--help"])
              for command in ("peak", "sweep", "layer", "network", "validate")]
    return cases + [
        ("no-command", []),
        ("unknown-command", ["bogus"]),
        ("unknown-option", ["peak", "--bogus"]),
        ("sizes-not-integer", ["peak", "--sizes", "abc"]),
        ("sizes-not-power-of-two", ["peak", "--sizes", "33"]),
        ("sizes-out-of-range", ["sweep", "--sizes", "4,8192"]),
        ("sizes-empty", ["peak", "--sizes", ""]),
        ("bad-type", ["peak", "--type", "cimc"]),
        ("bad-objective", ["layer", *tiny, "--objective", "power"]),
        ("bad-format", ["validate", "--format", "xml"]),
        ("jobs-zero", ["peak", "--jobs", "0"]),
        ("jobs-not-integer", ["network", *tiny, "--jobs", "two"]),
        ("layer-without-workload", ["layer"]),
        ("network-without-workload", ["network", "--type", "both"]),
        ("peak-with-workload", ["peak", "--workload", "x"]),
        ("missing-config", ["peak", *config("missing.json")]),
        ("config-bad-json", ["sweep", *config("bad-json.json")]),
        ("config-not-object", ["peak", *config("not-object.json")]),
        ("config-unknown-key", ["validate", *config("unknown-key.json")]),
        ("config-invalid-macro", ["peak", *config("invalid-macro.json")]),
        ("zero-cache-capacity-peak", ["peak", *config("zero-capacity.json")]),
        ("zero-cache-capacity-validate", ["validate", *config("zero-capacity.json")]),
        ("narrow-cache-bandwidth", ["peak", *config("narrow-bandwidth.json")]),
        ("unknown-workload", ["layer", "--workload", "no-such-net"]),
        ("search-budget", ["layer", "--workload", str(inputs / "huge-layer.json"),
                           "--type", "dimc", "--sizes", "4096"]),
        ("huge-macro-integer-peak", ["peak", *config("huge-m.json")]),
        ("huge-macro-integer-validate", ["validate", *config("huge-m.json")]),
        ("huge-repeat", ["network", "--workload", str(inputs / "huge-repeat.json")]),
        ("degenerate-technology-aimc", ["peak", "--type", "aimc", *config("degenerate.json")]),
        ("degenerate-technology-dimc", ["peak", "--type", "dimc", *config("degenerate.json")]),
        ("bool-macro-widths-peak", ["peak", "--type", "dimc", "--sizes", "32",
                                    *config("bool-macro-widths.json")]),
        ("bool-macro-widths-validate", ["validate", *config("bool-macro-widths.json")]),
        ("bool-macro-count", ["validate", *config("bool-macro-count.json")]),
        ("int-macro-flag", ["validate", *config("int-macro-flag.json")]),
        ("string-macro-flag", ["peak", *config("string-macro-flag.json")]),
        ("bool-technology", ["validate", *config("bool-technology.json")]),
        ("bool-cache", ["validate", *config("bool-cache.json")]),
        ("string-technology", ["peak", *config("string-technology.json")]),
        ("null-cache-energy", ["validate", *config("null-cache-energy.json")]),
        ("string-toggle-rate", ["peak", *config("string-toggle-rate.json")]),
        ("string-dram", ["sweep", *config("string-dram.json")]),
    ]


def snapshot_frontend(imcperf_main, out_dir: Path) -> None:
    """Write the exit code, stdout and stderr of every front-end case."""
    frontend = out_dir / "frontend"
    inputs = frontend / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, text in FRONTEND_INPUTS.items():
        (inputs / name).write_text(text + "\n")
    for name, argv in frontend_cases(inputs.resolve()):
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("ignore")
            code = imcperf_main(argv)
        text = (f"exit {code}\n--- stdout ---\n{stdout.getvalue()}"
                f"--- stderr ---\n{stderr.getvalue()}")
        text = text.replace(str(out_dir.resolve()), "<OUT>")
        (frontend / f"{name}.txt").write_text(text)
        print(f"frontend/{name}.txt: exit {code}", flush=True)


def run_to_file(imcperf_main, argv: list[str], target: Path) -> int:
    """Run one command into target; a failed command leaves its exit code there."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = imcperf_main([*argv, "--out", str(target)])
    if code != 0:
        target.write_text(f"exit code {code}\n")
    print(f"{target.parent.name}/{target.name}: exit {code}", flush=True)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the imcperf package (default: ./src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    # fixed help width, and no config picked up from the environment
    os.environ["COLUMNS"] = "80"
    os.environ.pop("IMCPERF_CONFIG_DIR", None)
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
                failed += run_to_file(
                    imcperf_main, [*command, "--config", str(config_path), "--format", fmt],
                    config_dir / f"{name}.{fmt}") != 0
    escaping_dir = args.out_dir / "escaping"
    escaping_dir.mkdir(exist_ok=True)
    workload = escaping_dir / "workload.json"
    workload.write_text(json.dumps(ESCAPING_NETWORK, indent=2) + "\n")
    for name, command in escaping_commands(str(workload)):
        for fmt in FORMATS:
            failed += run_to_file(imcperf_main, [*command, "--format", fmt],
                                  escaping_dir / f"{name}.{fmt}") != 0
    snapshot_frontend(imcperf_main, args.out_dir)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
