"""Write the CLI outputs of a fixed command matrix to a directory.

Run it once on each of two source trees and compare the directories with
``diff -r``: an empty diff shows that both trees print byte-identical results.

    python3 tools/snapshot_outputs.py OUT_DIR [--src SRC_DIR] [--reduced] [--python EXE]...

SRC_DIR is the directory that holds the ``imcperf`` package (default: this
repository's ``src``). The matrix is every command (sweep, peak, validate, layer,
network) in CSV and JSON, with the objectives energy, latency and edp for the
mapping commands, under nine configurations that switch on the options that
change how a macro is priced. Under each of those nine, ``sweep`` and ``peak``
also run in CSV with their defaults left in place (``sweep-default``,
``sweep-type-dimc``, ``sweep-sizes-8-4096``, ``peak-default``,
``peak-both-8-64``), so the comparison covers the type and sizes each command
fills in when ``--type`` or ``--sizes`` is unset. Two more configurations give
technology or cache constants as integers; under each, peak, layer and network run in JSON, whose
output shows whether a column prints as an integer or a float. Under
``escaping/``, ``layer`` and ``network`` run in both formats on a workload whose
network and layer names hold non-ASCII, quote, backslash and control
characters, so the comparison covers how each format escapes text. Only the
command outputs are written; warnings on stderr are not part of the snapshot.

The front end is snapshotted too: under ``frontend/``, one file per case holds
the exit code, stdout and stderr of ``--help`` (top level and every command), of
a fixed set of usage, configuration and evaluation errors, and of command lines
that only argparse reads: an abbreviated option, ``--opt=value``, a value that
starts with ``-`` and an ambiguous option. Among them,
``peak`` runs under a technology, cache, macro or DRAM constant given as an
integer too large for a float (``huge-*``); under ``k1 = 1e308``, which
overflows the analog macro's energy; and under ``fa_area_ratio`` or
``dff_area_ratio`` at 1e308, which overflow the area of one component
(``overflowing-*``). ``peak`` and ``validate`` also run under a ``null`` cache
section (``null-cache-*``). Help text is formatted for an 80-column
terminal, and the output directory's path is replaced by ``<OUT>`` so that
snapshots written to two directories compare equal.

``--reduced`` writes only the ``network`` JSON cases of the default
configuration, the ``escaping/`` cases and the ``frontend/`` cases. Each
``--python EXE`` (repeatable) also writes the same matrix under the interpreter
EXE, into a temporary directory, and compares it file by file with OUT_DIR, the
running interpreter's snapshot, so OUT_DIR should start empty. The script prints each
interpreter's count of differing files and their names, and exits 1 if any
file differs or any command of the running interpreter's matrix failed.
Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
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
# configurations whose constants are integers, each run in JSON only: every
# real-valued column must still print as a float
INTEGER_CONFIGS: dict[str, dict] = {
    "int-technology": {"technology": {"v_dd": 1, "c_gate": 1, "dff_energy_ratio": 3,
                                      "fa_energy_ratio": 2},
                       "macro": {"pipelined": True}},
    "int-cache": {"cache": {"read_energy": 0, "write_energy": 0}},
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
    return out


# sweep and peak with --type, --sizes or both left unset; CSV only
DEFAULT_COMMANDS = [("sweep-default", ["sweep"]),
                    ("sweep-type-dimc", ["sweep", "--type", "dimc"]),
                    ("sweep-sizes-8-4096", ["sweep", "--sizes", "8,4096"]),
                    ("peak-default", ["peak"]),
                    ("peak-both-8-64", ["peak", "--type", "both", "--sizes", "8,64"])]


def integer_commands(workloads: list[str]) -> list[tuple[str, list[str]]]:
    """(output name, argv without --config/--format/--out) of one integer configuration."""
    selection = [arg for workload in workloads for arg in ("--workload", workload)]
    points = ["--type", "both", "--sizes", MAPPING_SIZES]
    return [("peak", ["peak", *points]),
            ("layer", ["layer", *selection, *points]),
            ("network", ["network", *selection, *points])]


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
    "overflowing-k1.json": json.dumps({"technology": {"k1": 1e308}}),
    "overflowing-fa-area.json": json.dumps({"technology": {"fa_area_ratio": 1e308}}),
    "overflowing-dff-area.json": json.dumps({"technology": {"dff_area_ratio": 1e308}}),
    "null-cache.json": json.dumps({"cache": None}),
}
# fields given an integer too large for a float, one config file each
HUGE_FIELDS: dict[str, dict] = {
    "huge-adc-k": {"technology": {"adc_k": 10**400}},
    "huge-k1": {"technology": {"k1": 10**400}},
    "huge-v-dd": {"technology": {"v_dd": 10**400}},
    "huge-adc-fs": {"technology": {"adc_fs": 10**400}},
    "huge-cache-read-energy": {"cache": {"read_energy": 10**400}},
    "huge-dram": {"dram_energy_per_bit": 10**400},
    "huge-toggle-rate": {"macro": {"input_toggle_rate": 10**400}},
}
FRONTEND_INPUTS.update({f"{name}.json": json.dumps(doc) for name, doc in HUGE_FIELDS.items()})


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
        # command lines that argparse reads, not cli's table of plain ones
        ("abbreviated-option", ["network", "--work", "mlperf-tiny-layers", "--sizes=32"]),
        ("repeated-sizes", ["peak", "--sizes", "32", "--sizes", "64", "--type=dimc"]),
        ("jobs-negative", ["peak", "--jobs", "-1"]),
        ("ambiguous-option", ["peak", "--o", "x"]),
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
        ("overflowing-k1", ["peak", *config("overflowing-k1.json")]),
        ("overflowing-fa-area-aimc", ["peak", "--type", "aimc",
                                      *config("overflowing-fa-area.json")]),
        ("overflowing-fa-area-dimc", ["peak", "--type", "dimc",
                                      *config("overflowing-fa-area.json")]),
        ("overflowing-dff-area", ["peak", *config("overflowing-dff-area.json")]),
        ("null-cache-peak", ["peak", *config("null-cache.json")]),
        ("null-cache-validate", ["validate", *config("null-cache.json")]),
    ] + [(name, ["peak", *config(f"{name}.json")]) for name in HUGE_FIELDS]


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


def _files(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def differing_files(exe: str, out_dir: Path, src: Path, reduced: bool) -> list[str]:
    """The files of out_dir that the same matrix, written under exe, does not repeat
    byte for byte, with any file only one of the two snapshots holds."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [exe, str(Path(__file__).resolve()), tmp, "--src", str(src),
             *(("--reduced",) if reduced else ())],
            capture_output=True, text=True)
        if proc.returncode not in (0, 1):  # 1: a command failed, and its file says so
            raise SystemExit(f"{exe} exited with code {proc.returncode}:\n{proc.stderr}")
        theirs = _files(Path(tmp))
    ours = _files(out_dir)
    return sorted(name for name in ours.keys() | theirs.keys()
                  if ours.get(name) != theirs.get(name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the imcperf package (default: ./src)")
    parser.add_argument("--reduced", action="store_true",
                        help="only the default configuration's network JSON cases, "
                             "the escaping cases and the front-end cases")
    parser.add_argument("--python", action="append", default=[], metavar="EXE",
                        help="also write the matrix under EXE and compare it with "
                             "OUT_DIR (repeatable)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    # fixed help width, and no config picked up from the environment
    os.environ["COLUMNS"] = "80"
    os.environ.pop("IMCPERF_CONFIG_DIR", None)
    from imcperf.cli import main as imcperf_main

    workloads = ["mlperf-tiny-layers"] + [str(p) for p in sorted(NETWORK_DIR.glob("*.json"))]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    if args.reduced:
        network = [case for case in commands(workloads) if case[0].startswith("network-")]
        matrix = [("default", CONFIGS["default"], network, ("json",))]
    else:
        matrix = [(name, doc, commands(workloads), FORMATS) for name, doc in CONFIGS.items()]
        matrix += [(name, doc, DEFAULT_COMMANDS, ("csv",)) for name, doc in CONFIGS.items()]
        matrix += [(name, doc, integer_commands(workloads), ("json",))
                   for name, doc in INTEGER_CONFIGS.items()]
    for config_name, doc, config_commands, formats in matrix:
        config_dir = args.out_dir / config_name
        config_dir.mkdir(exist_ok=True)
        config_path = config_dir / "config.json"
        config_path.write_text(json.dumps(doc, indent=2) + "\n")
        for name, command in config_commands:
            for fmt in formats:
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
    differing = 0
    for exe in args.python:
        names = differing_files(exe, args.out_dir, args.src.resolve(), args.reduced)
        print(f"{exe}: {len(names)} differing file(s)", flush=True)
        for name in names:
            print(f"  {name}", flush=True)
        differing += len(names)
    return 1 if failed or differing else 0


if __name__ == "__main__":
    sys.exit(main())
