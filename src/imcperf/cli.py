"""Command-line front end.

Subcommands:
  peak      macro and system peak metrics for the configured design point
  sweep     peak metrics over a cross product of array sizes and macro types
  layer     per-layer mapping and system metrics for a workload file
  network   whole-network metrics per workload file, plus a geomean summary row
  validate  model estimates for seven published silicon configurations

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 evaluation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, NamedTuple

from .components import TechnologyParams, _check_amount
from .macro import ImcMacroConfig, ImcType, macro_metrics
from .system import (
    ENERGY_BREAKDOWN_KEYS,
    OBJECTIVES,
    MemoryLevel,
    SystemConfig,
    SystemMetrics,
    default_cache,
    geomean_efficiency,
    layer_system_metrics,
    network_system_metrics,
    peak_system_metrics,
)
from .workload import (
    Network,
    WorkloadError,
    _data_file,
    bundled_network,
    bundled_network_names,
    classify,
    load_network,
    total_macs,
)

__all__ = ["main"]

CONFIG_DIR_ENV = "IMCPERF_CONFIG_DIR"
DEFAULT_SWEEP_SIZES = (32, 64, 128, 256, 512, 1024)
_IMC_TYPES = tuple(imc_type.value for imc_type in ImcType)

# the ImcMacroConfig fields a peak row shows, and each of its MacroMetrics and
# SystemMetrics columns with the attribute it reads
_PEAK_MACRO_FIELDS = ("d_i", "d_o", "b_i", "b_w", "b_cycle", "m", "n_macros")
_MACRO_METRIC_FIELDS = {
    "clock_period": "clock_period", "cycles_per_mvm": "cycles_per_mvm",
    "macro_energy_per_mvm": "energy_per_mvm", "macro_tops": "tops",
    "macro_tops_per_w": "tops_per_w", "macro_tops_per_mm2": "tops_per_mm2",
    "macro_area": "area"}
_SYSTEM_METRIC_FIELDS = {
    "system_energy_per_mvm": "energy", "system_latency": "latency", "system_tops": "tops",
    "system_tops_per_w": "tops_per_w", "system_tops_per_mm2": "tops_per_mm2",
    "system_area": "area"}
PEAK_FIELDS = ("imc_type", *_PEAK_MACRO_FIELDS, *_MACRO_METRIC_FIELDS,
               *_SYSTEM_METRIC_FIELDS)
# the SystemMetrics columns that end every layer and network row
_METRICS = ("energy", "latency", "tops", "tops_per_w", "tops_per_mm2", "area")
_METRIC_FIELDS = (_METRICS + tuple(f"energy_{key}" for key in ENERGY_BREAKDOWN_KEYS)
                  + ("warnings",))
# the columns a layer row reads off its chosen SpatialMapping and MappingResult,
# and each traffic column with its MappingResult.traffic key
_MAPPING_FIELDS = ("k_u", "ox_u", "c_u", "fx_u", "fy_u", "rows", "cols")
_RESULT_FIELDS = ("spatial_utilization", "in_unroll_ratio", "out_unroll_ratio",
                  "mvm_invocations", "total_cycles", "weight_tile_loads")
_TRAFFIC_FIELDS = {"w_dram_bits": ("W", "dram"), "w_macro_bits": ("W", "macro"),
                   "i_dram_bits": ("I", "dram"), "i_cache_bits": ("I", "cache"),
                   "o_cache_bits": ("O", "cache")}
LAYER_FIELDS = (
    "workload", "layer_index", "layer", "kind", "imc_type", "d_i", "d_o", "macs",
    *_MAPPING_FIELDS, *_RESULT_FIELDS, *_TRAFFIC_FIELDS, *_METRIC_FIELDS,
)
NETWORK_FIELDS = (
    "workload", "imc_type", "d_i", "d_o", "n_layers", "macs",
) + _METRIC_FIELDS
# the ImcMacroConfig fields a reference configuration sets besides its type
_REFERENCE_FIELDS = ("b_i", "b_w", "b_cycle", "d_i", "d_o", "m", "n_macros")
VALIDATE_FIELDS = ("ref_index", "imc_type", *_REFERENCE_FIELDS,
                   "energy_per_mac", "clock_period", "area")
# one getter per column group, each of two or more names, so it returns a tuple
_get_peak_macro = attrgetter(*_PEAK_MACRO_FIELDS)
_get_macro_metrics = attrgetter(*_MACRO_METRIC_FIELDS.values())
_get_system_metrics = attrgetter(*_SYSTEM_METRIC_FIELDS.values())
_get_mapping = attrgetter(*_MAPPING_FIELDS)
_get_result = attrgetter(*_RESULT_FIELDS)
_get_traffic = itemgetter(*_TRAFFIC_FIELDS.values())
_get_metrics = attrgetter(*_METRICS)
_get_energy_breakdown = itemgetter(*ENERGY_BREAKDOWN_KEYS)
_get_reference = attrgetter(*_REFERENCE_FIELDS)
# what a command returns: its columns and its rows
_Rows = tuple[tuple[str, ...], list[dict[str, Any]]]


class ConfigError(Exception):
    """Configuration file missing, unparseable, or schema-invalid."""


class UsageError(Exception):
    """Bad flag combination detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class ConfigBundle:
    """Parsed configuration: technology constants plus raw macro/cache sections.

    Frozen, and each section, given as any mapping, is kept as a read-only view
    of its own copy, so the default bundle that load_config shares cannot be
    changed under another caller.
    """

    params: TechnologyParams
    macro_spec: MappingProxyType[str, Any]
    cache_spec: MappingProxyType[str, Any]
    dram_energy_per_bit: float

    def __post_init__(self) -> None:
        for name in ("macro_spec", "cache_spec"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


# each config section and the fields it may set
_SECTIONS = {
    "technology": {f.name for f in fields(TechnologyParams)},
    "macro": {f.name for f in fields(ImcMacroConfig)},
    "cache": {f.name for f in fields(MemoryLevel)},
}


def _check_keys(section: dict[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _resolve_config_path(arg: str | None) -> Path | None:
    if arg is not None:
        return Path(arg)
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / "config.json"
        if candidate.is_file():
            return candidate
    return None


def load_config(path_arg: str | None) -> ConfigBundle:
    """Parse the JSON configuration file, or return embedded defaults.

    Explicit --config paths must exist; the optional config.json under
    $IMCPERF_CONFIG_DIR is used when present. Both are looked up, read and
    checked on every call. Unknown keys are rejected, a section must be a JSON
    object, and an absent one reads as {}. With no file, every call returns
    one shared bundle, built and checked on first use.
    """
    path = _resolve_config_path(path_arg)
    if path is None:
        return _default_config()
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # undecodable text, or a path the OS refuses
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path}: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except (ValueError, RecursionError) as exc:  # overlong integer, deep nesting
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root in {path} must be a JSON object")
    return _config_bundle(doc)


@cache
def _default_config() -> ConfigBundle:
    return _config_bundle({})


def _config_bundle(doc: dict[str, Any]) -> ConfigBundle:
    """The bundle a config document describes, with every section checked."""
    _check_keys(doc, {*_SECTIONS, "dram_energy_per_bit"}, "config")

    specs = {name: doc.get(name, {}) for name in _SECTIONS}
    for name, section in specs.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section '{name}' must be a JSON object")
    for name, section in specs.items():
        _check_keys(section, _SECTIONS[name], name)

    dram = doc.get("dram_energy_per_bit", 3.7e-12)
    try:
        _check_amount("dram_energy_per_bit", dram)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        params = TechnologyParams(**specs["technology"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid technology section: {exc}") from exc

    bundle = ConfigBundle(
        params=params,
        macro_spec=specs["macro"],
        cache_spec=specs["cache"],
        dram_energy_per_bit=dram,
    )
    try:
        macro = build_macro(bundle)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid macro section: {exc}") from exc
    # the cache bandwidth fit depends on --sizes, so SystemConfig checks it later
    try:
        default_cache(macro, **bundle.cache_spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid cache section: {exc}") from exc
    return bundle


def build_macro(bundle: ConfigBundle, imc_type: str | None = None,
                size: int | None = None) -> ImcMacroConfig:
    """Macro from the config section, optionally overriding type and both dims."""
    spec = bundle.macro_spec.copy()
    spec.setdefault("imc_type", "aimc")
    spec.setdefault("d_i", 32)
    spec.setdefault("d_o", 32)
    if imc_type is not None:
        spec["imc_type"] = imc_type
    if size is not None:
        spec["d_i"] = size
        spec["d_o"] = size
    spec["imc_type"] = ImcType(spec["imc_type"])
    return ImcMacroConfig(**spec)


def make_system(bundle: ConfigBundle, macro: ImcMacroConfig) -> SystemConfig:
    return SystemConfig(macro=macro, params=bundle.params,
                        cache=default_cache(macro, **bundle.cache_spec),
                        dram_energy_per_bit=bundle.dram_energy_per_bit)


def _parse_sizes(text: str | None) -> tuple[int, ...] | None:
    """The --sizes value as sizes, checked for every command, even one that ignores it."""
    if text is None:
        return None
    sizes: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            value = int(piece)
        except ValueError:
            raise UsageError(f"--sizes entries must be integers, got {piece!r}") from None
        if value < 8 or value > 4096 or value & (value - 1):
            raise UsageError(
                f"--sizes entries must be powers of two in [8, 4096], got {value}")
        sizes.append(value)
    return tuple(sizes)


def _design_points(args: argparse.Namespace, bundle: ConfigBundle) -> list[SystemConfig]:
    """The systems of --type x --sizes, ordered by type, then size; an unset flag
    (None) keeps the config macro's type or dims."""
    types = _IMC_TYPES if args.type == "both" else (args.type,)
    sizes = args.sizes or (None,)
    return [make_system(bundle, build_macro(bundle, imc_type, size))
            for imc_type in types for size in sizes]


def _load_workload(arg: str) -> Network:
    path = Path(arg)
    if path.is_file():
        return load_network(path)
    if arg in bundled_network_names():
        return bundled_network(arg)
    raise WorkloadError(f"workload not found: {arg!r} is neither a file nor a bundled name")


def _peak_row(system: SystemConfig) -> dict[str, Any]:
    macro = system.macro
    return dict(zip(PEAK_FIELDS, (
        macro.imc_type.value, *_get_peak_macro(macro),
        *_get_macro_metrics(macro_metrics(system.params, macro)),
        *_get_system_metrics(peak_system_metrics(system))), strict=True))


def _cmd_peak(args: argparse.Namespace, bundle: ConfigBundle) -> _Rows:
    rows = [_peak_row(system) for system in _design_points(args, bundle)]
    rows.sort(key=lambda r: (r["imc_type"], r["d_i"], r["d_o"]))
    return PEAK_FIELDS, rows


def _cmd_sweep(args: argparse.Namespace, bundle: ConfigBundle) -> _Rows:
    """peak, with both types and DEFAULT_SWEEP_SIZES where the flags are unset."""
    args.type = args.type or "both"
    args.sizes = args.sizes or DEFAULT_SWEEP_SIZES
    return _cmd_peak(args, bundle)


def _metric_cells(metrics: SystemMetrics) -> tuple[Any, ...]:
    """The _METRIC_FIELDS cells of a layer or network row, in order."""
    return (*_get_metrics(metrics), *_get_energy_breakdown(metrics.energy_breakdown),
            "; ".join(metrics.warnings))


def _layer_rows(system: SystemConfig, network: Network, objective: str) -> list[dict[str, Any]]:
    macro = system.macro
    rows = []
    for index, layer in enumerate(network.layers):
        result, metrics = layer_system_metrics(system, layer, objective)
        rows.append(dict(zip(LAYER_FIELDS, (
            network.name, index, layer.name or f"layer{index}", classify(layer).value,
            macro.imc_type.value, macro.d_i, macro.d_o, total_macs(layer),
            *_get_mapping(result.mapping), *_get_result(result),
            *_get_traffic(result.traffic), *_metric_cells(metrics)), strict=True)))
    return rows


def _cmd_layer(args: argparse.Namespace, bundle: ConfigBundle) -> _Rows:
    networks = [_load_workload(arg) for arg in args.workload]
    rows = [row for system in _design_points(args, bundle) for network in networks
            for row in _layer_rows(system, network, args.objective)]
    rows.sort(key=lambda r: (r["workload"], r["imc_type"], r["d_i"], r["layer_index"]))
    return LAYER_FIELDS, rows


def _network_row(system: SystemConfig, network: Network,
                 objective: str) -> tuple[dict[str, Any], SystemMetrics]:
    macro = system.macro
    summary, reports = network_system_metrics(system, network, objective)
    macs = sum(report.repeat * total_macs(report.layer) for report in reports)
    row = dict(zip(NETWORK_FIELDS, (
        network.name, macro.imc_type.value, macro.d_i, macro.d_o, len(network.layers), macs,
        *_metric_cells(summary)), strict=True))
    return row, summary


def _cmd_network(args: argparse.Namespace, bundle: ConfigBundle) -> _Rows:
    networks = [_load_workload(arg) for arg in args.workload]
    rows: list[dict[str, Any]] = []
    for system in _design_points(args, bundle):
        results = [_network_row(system, network, args.objective) for network in networks]
        group_rows = sorted((row for row, _ in results), key=lambda r: r["workload"])
        rows.extend(group_rows)
        if len(networks) > 1:
            # argument order, not row order: the float sum depends on it
            means = geomean_efficiency([summary for _, summary in results])
            macro = system.macro
            rows.append({
                "workload": "geomean",
                "imc_type": macro.imc_type.value,
                "d_i": macro.d_i, "d_o": macro.d_o,
                "tops": means["tops"], "tops_per_w": means["tops_per_w"],
                "tops_per_mm2": means["tops_per_mm2"],
            })
    return NETWORK_FIELDS, rows


@cache
def _reference_macros() -> tuple[tuple[int, ImcMacroConfig], ...]:
    """(index, macro) of each reference configuration: package data, read on
    first use and then shared, as a tuple of frozen macros."""
    raw = _data_file("reference-configs.json").read_text("utf-8")
    return tuple((entry["index"],
                  ImcMacroConfig(imc_type=ImcType(entry["imc_type"]),
                                 **{name: entry[name] for name in _REFERENCE_FIELDS}))
                 for entry in json.loads(raw)["configs"])


def _cmd_validate(args: argparse.Namespace, bundle: ConfigBundle) -> _Rows:
    rows = []
    for index, macro in _reference_macros():
        mm = macro_metrics(bundle.params, macro)
        rows.append(dict(zip(VALIDATE_FIELDS, (
            index, macro.imc_type.value, *_get_reference(macro),
            mm.energy_per_mvm / (macro.d_i * macro.d_o * macro.n_macros),
            mm.clock_period, mm.area), strict=True)))
    return VALIDATE_FIELDS, rows


def _format_cell(value: Any) -> str:
    return format(value, ".6g") if isinstance(value, float) else str(value)


def _render_csv(fieldnames: tuple[str, ...], rows: list[dict[str, Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_format_cell(row.get(key, "")) for key in fieldnames])
    return buffer.getvalue()


# A row's items at the depth json.dumps(..., indent=2) puts them. With indent
# None the encoder runs in C; the rows hold scalars only.
_encode_row = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _render_json(command: str, fieldnames: tuple[str, ...],
                 rows: list[dict[str, Any]]) -> str:
    """json.dumps({"command": command, "rows": rows}, indent=2) plus a newline,
    byte for byte, with every row in the columns' order; fieldnames is not empty."""
    head = f'{{\n  "command": {json.dumps(command)},\n  "rows": '
    if not rows:
        return head + "[]\n}\n"
    body = ",\n    ".join(
        "{\n      " + _encode_row({key: row.get(key) for key in fieldnames})[1:-1] + "\n    }"
        for row in rows)
    return head + "[\n    " + body + "\n  ]\n}\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        mode = os.stat(out_path).st_mode  # follows links, as /dev/stdout is one
    except OSError:
        mode = stat.S_IFREG  # a missing or unreachable target is staged
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        # a FIFO or device is written through, as a shell redirect would;
        # replacing it would put a regular file in the node's place
        with open(out_path, "w", encoding="utf-8") as stream:
            stream.write(text)
        return
    # all-or-nothing: stage next to the target, then atomically replace; open()
    # creates the staged file 0o666 less the umask, as a shell redirect would.
    # The staged name has a fixed length, so any legal target name can be staged.
    # os.path, not pathlib: pathlib interns each path part, and every name is new.
    staged = os.path.join(os.path.dirname(out_path), f".imcperf-{os.urandom(8).hex()}.tmp")
    stream = open(staged, "x", encoding="utf-8")
    try:
        with stream:
            stream.write(text)
        os.replace(staged, out_path)
    except BaseException:
        try:
            os.unlink(staged)
        except OSError:
            pass
        raise


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace, ConfigBundle], _Rows]
    help: str
    takes_workload: bool = False


_COMMANDS = {
    "peak": _Command(_cmd_peak, "peak metrics for the configured design point"),
    "sweep": _Command(_cmd_sweep, "peak metrics over sizes x {aimc, dimc}"),
    "layer": _Command(_cmd_layer, "per-layer mapping and system metrics",
                      takes_workload=True),
    "network": _Command(_cmd_network, "whole-network metrics per workload",
                        takes_workload=True),
    "validate": _Command(_cmd_validate, "estimates for seven published configurations"),
}


class _Option(NamedTuple):
    """A command-line option, as build_parser adds it to a command's parser and
    _read_plain reads it; a convert of None keeps the text as it is."""
    dest: str
    help: str
    metavar: str | None = None
    choices: tuple[str, ...] | None = None
    default: Any = None
    convert: Callable[[str], Any] | None = None
    append: bool = False


# every command's options, in the order its help lists them; --workload goes
# only to the commands that take a workload
_OPTIONS = {
    "--config": _Option("config", "JSON configuration file (default: "
                                  f"${CONFIG_DIR_ENV}/config.json if present, else built-ins)",
                        metavar="PATH"),
    "--sizes": _Option("sizes", "comma-separated square array sizes, powers of two in "
                                "[8, 4096]", metavar="N,N,..."),
    "--type": _Option("type", "macro type override (default: from config; sweep: both)",
                      choices=_IMC_TYPES + ("both",)),
    "--objective": _Option("objective", "mapping objective (default: energy)",
                           choices=OBJECTIVES, default="energy"),
    "--format": _Option("format", "output format (default: csv)", choices=("csv", "json"),
                        default="csv"),
    "--out": _Option("out", "output file (default: stdout); a regular file is replaced "
                            "atomically, a FIFO or device is written through", metavar="PATH"),
    "--jobs": _Option("jobs", "accepted for compatibility (N >= 1); evaluation is serial",
                      metavar="N", default=1, convert=int),
    "--workload": _Option("workload", "workload JSON file or bundled name (repeatable)",
                          metavar="PATH", append=True),
}


def _option_table(command: _Command) -> tuple[dict[str, Any], dict[str, _Option]]:
    """The namespace command's parser starts from, and its {option string: _Option}."""
    options = {flag: option for flag, option in _OPTIONS.items()
               if command.takes_workload or flag != "--workload"}
    return {option.dest: option.default for option in options.values()}, options


_OPTION_TABLES = {name: _option_table(command) for name, command in _COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    """The imcperf parser: one subparser per command, with its table's options."""
    parser = _Parser(prog="imcperf",
                     description="Analytical performance model for SRAM-based "
                                 "in-memory-computing macros.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for flag, option in _OPTION_TABLES[name][1].items():
            cmd.add_argument(flag, action="append" if option.append else "store",
                             dest=option.dest, type=option.convert, choices=option.choices,
                             default=option.default, metavar=option.metavar,
                             help=option.help)
    return parser


# built once per process: parsing keeps no state between calls, and the
# --workload list starts from a None default on every call
_PARSER = build_parser()


def _read_plain(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives for tokens, the argv after command, when they
    are pairs of an option string of the command's table, exactly, and a str
    value that does not start with '-' and that converts and passes the choices
    check; None for any other tokens."""
    table = _OPTION_TABLES.get(command)
    if table is None or len(tokens) % 2:
        return None
    defaults, options = table
    args = argparse.Namespace()
    values = vars(args)  # filled in place: Namespace(**values) sets each name in Python
    values.update(defaults)
    pairs = iter(tokens)
    for flag, text in zip(pairs, pairs):
        option = options.get(flag) if isinstance(flag, str) else None
        if option is None or not isinstance(text, str) or text.startswith("-"):
            return None
        value = text
        if option.convert is not None:
            try:
                value = option.convert(text)
            except ValueError:
                return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = [*(values[option.dest] or ()), value] if option.append else value
    return args


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """argv parsed as _PARSER parses it: from the command's table when argv is
    plain (_read_plain), else by _PARSER, which alone writes help, usage and
    error texts."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv[0], argv[1:]) if argv else None
    if args is None:
        return _PARSER.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    command = _COMMANDS[args.command]
    try:
        if command.takes_workload and not args.workload:
            raise UsageError(f"--workload is required for '{args.command}'")
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        bundle = load_config(args.config)
        args.sizes = _parse_sizes(args.sizes)
        fieldnames, rows = command.run(args, bundle)
    except UsageError as exc:
        print(f"imcperf: error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"imcperf: config error: {exc}", file=sys.stderr)
        return 2
    except (WorkloadError, ValueError, ArithmeticError) as exc:
        print(f"imcperf: evaluation error: {exc}", file=sys.stderr)
        return 3

    try:
        if args.format == "json":
            text = _render_json(args.command, fieldnames, rows)
        else:
            text = _render_csv(fieldnames, rows)
        _emit(text, args.out)
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: a path the OS refuses
        print(f"imcperf: error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
