"""tools/snapshot_outputs.py --python: the reduced matrix, the front end's help,
usage and error texts among it, prints the same bytes under this interpreter and
under every 3.12 or 3.13 installed beside it."""

import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "snapshot_outputs.py"
# a pyenv layout keeps each installed version in its own directory, side by side
_SIBLINGS = ("3.12", "3.13")


def _sibling(version):
    found = sorted(Path(sys.base_prefix).parent.glob(f"{version}*/bin/python3"))
    return str(found[-1]) if found else None


def _snapshot(out_dir, *interpreters):
    return subprocess.run(
        [sys.executable, str(_TOOL), str(out_dir), "--reduced",
         *(arg for exe in interpreters for arg in ("--python", exe))],
        capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    present = {"running": sys.executable}
    present.update((version, exe) for version in _SIBLINGS
                   if (exe := _sibling(version)) is not None)
    out_dir = tmp_path_factory.mktemp("snapshot")
    proc = _snapshot(out_dir, *present.values())
    assert proc.returncode in (0, 1), proc.stderr
    return present, proc.stdout.splitlines(), out_dir


@pytest.mark.parametrize("version", ["running", *_SIBLINGS])
def test_reduced_matrix_is_byte_identical(report, version):
    present, lines, out_dir = report
    if version not in present:
        pytest.skip(f"no Python {version} installed beside {sys.executable}")
    assert f"{present[version]}: 0 differing file(s)" in lines
    written = {path.relative_to(out_dir).as_posix() for path in out_dir.rglob("*")}
    assert {"default/network-energy.json", "escaping/network.json", "frontend/help.txt",
            "frontend/unknown-option.txt", "frontend/missing-config.txt"} <= written


def test_a_differing_file_is_named_and_fails_the_run(tmp_path):
    # an "interpreter" that writes the snapshot, then changes one file of it
    exe = tmp_path / "python-that-differs"
    exe.write_text(f'#!/bin/sh\n"{sys.executable}" "$@" || exit $?\n'
                   'printf x >> "$2/escaping/network.json"\n')
    exe.chmod(exe.stat().st_mode | stat.S_IXUSR)
    if not os.access(exe, os.X_OK):
        pytest.skip("cannot run a script from the temporary directory")
    proc = _snapshot(tmp_path / "out", str(exe))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [f"{exe}: 1 differing file(s)",
                                             "  escaping/network.json"]
