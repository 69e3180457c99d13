import os
from pathlib import Path

import pytest
from hypothesis import settings

from imcperf import TechnologyParams

# pytest's `pythonpath` setting reaches this process only; the CLI tests that
# start `python -m imcperf` need the same source tree on the child's path
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# (criterion number, line) pairs collected by the acceptance tests
_acceptance_lines: list[tuple[int, str]] = []


@pytest.fixture
def record_acceptance():
    """Record one pass/fail line per acceptance criterion for the summary."""

    def record(number: int, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {number}: {status} - {detail}"
        _acceptance_lines.append((number, line))
        print(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_acceptance_lines):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def params() -> TechnologyParams:
    return TechnologyParams()
