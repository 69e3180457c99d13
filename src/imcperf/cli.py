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
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .components import TechnologyParams, _check_amount
from .macro import ImcMacroConfig, ImcType, MacroMetrics, macro_metrics
from .mapper import OBJECTIVES
from .system import (
    ENERGY_BREAKDOWN_KEYS,
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

PEAK_FIELDS = (
    "imc_type", "d_i", "d_o", "b_i", "b_w", "b_cycle", "m", "n_macros",
    "clock_period", "cycles_per_mvm",
    "macro_energy_per_mvm", "macro_tops", "macro_tops_per_w", "macro_tops_per_mm2",
    "macro_area",
    "system_energy_per_mvm", "system_latency", "system_tops", "system_tops_per_w",
    "system_tops_per_mm2", "system_area",
)
# the SystemMetrics columns that end every layer and network row
_METRICS = ("energy", "latency", "tops", "tops_per_w", "tops_per_mm2", "area")
_METRIC_FIELDS = (_METRICS + tuple(f"energy_{key}" for key in ENERGY_BREAKDOWN_KEYS)
                  + ("warnings",))
LAYER_FIELDS = (
    "workload", "layer_index", "layer", "kind", "imc_type", "d_i", "d_o", "macs",
    "k_u", "ox_u", "c_u", "fx_u", "fy_u", "rows", "cols",
    "spatial_utilization", "in_unroll_ratio", "out_unroll_ratio",
    "mvm_invocations", "total_cycles", "weight_tile_loads",
    "w_dram_bits", "w_macro_bits", "i_dram_bits", "i_cache_bits", "o_cache_bits",
) + _METRIC_FIELDS
NETWORK_FIELDS = (
    "workload", "imc_type", "d_i", "d_o", "n_layers", "macs",
) + _METRIC_FIELDS
VALIDATE_FIELDS = (
    "ref_index", "imc_type", "b_i", "b_w", "b_cycle", "d_i", "d_o", "m", "n_macros",
    "energy_per_mac", "clock_period", "area",
)
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


@dataclass
class ConfigBundle:
    """Parsed configuration: technology constants plus raw macro/cache sections."""

    params: TechnologyParams
    macro_spec: dict[str, Any]
    cache_spec: dict[str, Any] | None
    dram_energy_per_bit: float


_TECH_FIELDS = {f.name for f in fields(TechnologyParams)}
_MACRO_FIELDS = {f.name for f in fields(ImcMacroConfig)}
_CACHE_FIELDS = {f.name for f in fields(MemoryLevel)}


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
    $IMCPERF_CONFIG_DIR is used when present. Unknown keys are rejected.
    """
    path = _resolve_config_path(path_arg)
    doc: dict[str, Any] = {}
    if path is not None:
        try:
            raw = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
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
    _check_keys(doc, {"technology", "macro", "cache", "dram_energy_per_bit"}, "config")

    tech_spec = doc.get("technology", {})
    macro_spec = doc.get("macro", {})
    cache_spec = doc.get("cache")
    for name, section in (("technology", tech_spec), ("macro", macro_spec)):
        if not isinstance(section, dict):
            raise ConfigError(f"config section '{name}' must be a JSON object")
    if cache_spec is not None and not isinstance(cache_spec, dict):
        raise ConfigError("config section 'cache' must be a JSON object")
    _check_keys(tech_spec, _TECH_FIELDS, "technology")
    _check_keys(macro_spec, _MACRO_FIELDS, "macro")
    if cache_spec is not None:
        _check_keys(cache_spec, _CACHE_FIELDS | {"name"}, "cache")

    dram = doc.get("dram_energy_per_bit", 3.7e-12)
    try:
        _check_amount("dram_energy_per_bit", dram)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError as exc:  # an int too large for a float
        raise ConfigError(f"dram_energy_per_bit: {exc}") from exc

    # OverflowError: an integer constant too large for a float
    try:
        params = TechnologyParams(**tech_spec)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid technology section: {exc}") from exc

    bundle = ConfigBundle(
        params=params,
        macro_spec=dict(macro_spec),
        cache_spec=dict(cache_spec) if cache_spec is not None else None,
        dram_energy_per_bit=float(dram),
    )
    try:
        macro = build_macro(bundle)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid macro section: {exc}") from exc
    # the cache bandwidth fit depends on --sizes, so SystemConfig checks it later
    try:
        replace(default_cache(macro), **(bundle.cache_spec or {}))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid cache section: {exc}") from exc
    return bundle


def build_macro(bundle: ConfigBundle, imc_type: str | None = None,
                size: int | None = None) -> ImcMacroConfig:
    """Macro from the config section, optionally overriding type and both dims."""
    spec = dict(bundle.macro_spec)
    spec.setdefault("imc_type", "aimc")
    spec.setdefault("d_i", 32)
    spec.setdefault("d_o", 32)
    if imc_type is not None:
        spec["imc_type"] = imc_type
        # per-type default unless the config pinned it explicitly
        if "b_cycle" not in bundle.macro_spec:
            spec.pop("b_cycle", None)
    if size is not None:
        spec["d_i"] = size
        spec["d_o"] = size
    spec["imc_type"] = ImcType(spec["imc_type"])
    return ImcMacroConfig(**spec)


def make_system(bundle: ConfigBundle, macro: ImcMacroConfig) -> SystemConfig:
    cache = replace(default_cache(macro), **(bundle.cache_spec or {}))
    return SystemConfig(macro=macro, params=bundle.params, cache=cache,
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
    if not sizes:
        raise UsageError("--sizes must name at least one size")
    return tuple(sizes)


def _resolve_types(type_arg: str | None, default_both: bool) -> tuple[str | None, ...]:
    """None means: keep the type the config macro declares."""
    if type_arg == "both" or (type_arg is None and default_both):
        return _IMC_TYPES
    return (type_arg,)


def _design_points(args: argparse.Namespace, bundle: ConfigBundle,
                   default_both: bool = False,
                   default_sizes: tuple[int, ...] | None = None) -> list[ImcMacroConfig]:
    """The macros of --type x --sizes, ordered by type, then size."""
    sizes = args.sizes or default_sizes or (None,)
    return [build_macro(bundle, imc_type, size)
            for imc_type in _resolve_types(args.type, default_both) for size in sizes]


def _load_workload(arg: str) -> Network:
    path = Path(arg)
    if path.is_file():
        return load_network(path)
    if arg in bundled_network_names():
        return bundled_network(arg)
    raise WorkloadError(f"workload not found: {arg!r} is neither a file nor a bundled name")


def _peak_row(bundle: ConfigBundle, macro: ImcMacroConfig) -> dict[str, Any]:
    mm: MacroMetrics = macro_metrics(bundle.params, macro)
    sm = peak_system_metrics(make_system(bundle, macro))
    return {
        "imc_type": macro.imc_type.value,
        "d_i": macro.d_i, "d_o": macro.d_o,
        "b_i": macro.b_i, "b_w": macro.b_w, "b_cycle": macro.b_cycle,
        "m": macro.m, "n_macros": macro.n_macros,
        "clock_period": mm.clock_period, "cycles_per_mvm": mm.cycles_per_mvm,
        "macro_energy_per_mvm": mm.energy_per_mvm,
        "macro_tops": mm.tops, "macro_tops_per_w": mm.tops_per_w,
        "macro_tops_per_mm2": mm.tops_per_mm2, "macro_area": mm.area,
        "system_energy_per_mvm": sm.energy, "system_latency": sm.latency,
        "system_tops": sm.tops, "system_tops_per_w": sm.tops_per_w,
        "system_tops_per_mm2": sm.tops_per_mm2, "system_area": sm.area,
    }


def _cmd_peak(args: argparse.Namespace, bundle: ConfigBundle,
              default_both: bool = False,
              default_sizes: tuple[int, ...] | None = None) -> _Rows:
    rows = [_peak_row(bundle, macro)
            for macro in _design_points(args, bundle, default_both, default_sizes)]
    rows.sort(key=lambda r: (r["imc_type"], r["d_i"], r["d_o"]))
    return PEAK_FIELDS, rows


def _cmd_sweep(args: argparse.Namespace, bundle: ConfigBundle) -> _Rows:
    return _cmd_peak(args, bundle, default_both=True, default_sizes=DEFAULT_SWEEP_SIZES)


def _workload_points(args: argparse.Namespace, bundle: ConfigBundle
                     ) -> tuple[list[Network], list[ImcMacroConfig]]:
    """The workloads in argument order, and the macros ordered by type, then size."""
    networks = [_load_workload(arg) for arg in args.workload]
    return networks, _design_points(args, bundle)


def _metric_cells(metrics: SystemMetrics) -> dict[str, Any]:
    """The _METRIC_FIELDS cells of a layer or network row."""
    cells: dict[str, Any] = {name: getattr(metrics, name) for name in _METRICS}
    for key in ENERGY_BREAKDOWN_KEYS:
        cells[f"energy_{key}"] = metrics.energy_breakdown[key]
    cells["warnings"] = "; ".join(metrics.warnings)
    return cells


def _layer_rows(bundle: ConfigBundle, macro: ImcMacroConfig, network: Network,
                objective: str) -> list[dict[str, Any]]:
    system = make_system(bundle, macro)
    rows = []
    for index, layer in enumerate(network.layers):
        result, metrics = layer_system_metrics(system, layer, objective)
        mapping = result.mapping
        rows.append({
            "workload": network.name,
            "layer_index": index,
            "layer": layer.name or f"layer{index}",
            "kind": classify(layer).value,
            "imc_type": macro.imc_type.value,
            "d_i": macro.d_i, "d_o": macro.d_o,
            "macs": total_macs(layer),
            "k_u": mapping.k_u, "ox_u": mapping.ox_u,
            "c_u": mapping.c_u, "fx_u": mapping.fx_u, "fy_u": mapping.fy_u,
            "rows": mapping.rows, "cols": mapping.cols,
            "spatial_utilization": result.spatial_utilization,
            "in_unroll_ratio": result.in_unroll_ratio,
            "out_unroll_ratio": result.out_unroll_ratio,
            "mvm_invocations": result.mvm_invocations,
            "total_cycles": result.total_cycles,
            "weight_tile_loads": result.weight_tile_loads,
            "w_dram_bits": result.traffic[("W", "dram")],
            "w_macro_bits": result.traffic[("W", "macro")],
            "i_dram_bits": result.traffic[("I", "dram")],
            "i_cache_bits": result.traffic[("I", "cache")],
            "o_cache_bits": result.traffic[("O", "cache")],
            **_metric_cells(metrics),
        })
    return rows


def _cmd_layer(args: argparse.Namespace, bundle: ConfigBundle) -> _Rows:
    networks, macros = _workload_points(args, bundle)
    rows = [row for macro in macros for network in networks
            for row in _layer_rows(bundle, macro, network, args.objective)]
    rows.sort(key=lambda r: (r["workload"], r["imc_type"], r["d_i"], r["layer_index"]))
    return LAYER_FIELDS, rows


def _network_row(bundle: ConfigBundle, macro: ImcMacroConfig, network: Network,
                 objective: str) -> tuple[dict[str, Any], SystemMetrics]:
    system = make_system(bundle, macro)
    summary, reports = network_system_metrics(system, network, objective)
    macs = sum(report.repeat * total_macs(report.layer) for report in reports)
    row = {
        "workload": network.name,
        "imc_type": macro.imc_type.value,
        "d_i": macro.d_i, "d_o": macro.d_o,
        "n_layers": len(network.layers),
        "macs": macs,
        **_metric_cells(summary),
    }
    return row, summary


def _cmd_network(args: argparse.Namespace, bundle: ConfigBundle) -> _Rows:
    networks, macros = _workload_points(args, bundle)
    rows: list[dict[str, Any]] = []
    for macro in macros:
        results = [_network_row(bundle, macro, network, args.objective)
                   for network in networks]
        group_rows = sorted((row for row, _ in results), key=lambda r: r["workload"])
        rows.extend(group_rows)
        if len(networks) > 1:
            # argument order, not row order: the float sum depends on it
            means = geomean_efficiency([summary for _, summary in results])
            rows.append({
                "workload": "geomean",
                "imc_type": macro.imc_type.value,
                "d_i": macro.d_i, "d_o": macro.d_o,
                "tops": means["tops"], "tops_per_w": means["tops_per_w"],
                "tops_per_mm2": means["tops_per_mm2"],
            })
    return NETWORK_FIELDS, rows


def _cmd_validate(args: argparse.Namespace, bundle: ConfigBundle) -> _Rows:
    raw = _data_file("reference-configs.json").read_text("utf-8")
    entries = json.loads(raw)["configs"]
    rows = []
    for entry in entries:
        macro = ImcMacroConfig(
            imc_type=ImcType(entry["imc_type"]),
            d_i=entry["d_i"], d_o=entry["d_o"],
            b_i=entry["b_i"], b_w=entry["b_w"], b_cycle=entry["b_cycle"],
            m=entry["m"], n_macros=entry["n_macros"],
        )
        mm = macro_metrics(bundle.params, macro)
        rows.append({
            "ref_index": entry["index"],
            "imc_type": macro.imc_type.value,
            "b_i": macro.b_i, "b_w": macro.b_w, "b_cycle": macro.b_cycle,
            "d_i": macro.d_i, "d_o": macro.d_o,
            "m": macro.m, "n_macros": macro.n_macros,
            "energy_per_mac": mm.energy_per_mvm / (macro.d_i * macro.d_o * macro.n_macros),
            "clock_period": mm.clock_period,
            "area": mm.area,
        })
    return VALIDATE_FIELDS, rows


def _format_cell(value: Any) -> str:
    return format(value, ".6g") if isinstance(value, float) else str(value)


def _render_csv(fieldnames: tuple[str, ...], rows: list[dict[str, Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(fieldnames),
                            restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: _format_cell(value) for key, value in row.items()})
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="imcperf",
                     description="Analytical performance model for SRAM-based "
                                 "in-memory-computing macros.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON configuration file (default: "
                             f"${CONFIG_DIR_ENV}/config.json if present, else built-ins)")
    common.add_argument("--sizes", metavar="N,N,...",
                        help="comma-separated square array sizes, powers of two in [8, 4096]")
    common.add_argument("--type", choices=_IMC_TYPES + ("both",),
                        help="macro type override (default: from config; sweep: both)")
    common.add_argument("--objective", choices=OBJECTIVES,
                        default="energy", help="mapping objective (default: energy)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    common.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout); written atomically")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted for compatibility (N >= 1); evaluation is serial")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=command.help)
        if command.takes_workload:
            cmd.add_argument("--workload", action="append", metavar="PATH",
                             help="workload JSON file or bundled name (repeatable)")
    return parser


# built once per process: parse_args keeps no state between calls, and the
# --workload list starts from a None default on every call
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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

    if args.format == "json":
        text = _render_json(args.command, fieldnames, rows)
    else:
        text = _render_csv(fieldnames, rows)
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"imcperf: error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
