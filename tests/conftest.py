"""Loads the pinned CLI runs, shares each run across tests, and names the
golden comparison."""

import importlib.util
import json
from pathlib import Path

import pytest

_REGENERATE = Path(__file__).parent / "golden/regenerate.py"


def _load_golden():
    spec = importlib.util.spec_from_file_location("golden", _REGENERATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tests/test_golden.py imports this module's cases and tolerances.
GOLDEN = _load_golden()


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """GOLDEN.run(command, config, work, flags), run once per session for
    each distinct (command, config, flags): the golden test and
    test_cli's TestArtifactFormat read the same shipped-config runs."""
    runs = {}

    def run(command, config, flags=()):
        key = (command, json.dumps(config, sort_keys=True), tuple(flags))
        if key not in runs:
            runs[key] = GOLDEN.run(command, config,
                                   tmp_path_factory.mktemp("run"), flags)
        return runs[key]

    return run


def _comparison() -> str:
    differing = GOLDEN.differing_platform_fields()
    if not differing:
        return "golden comparison: exact bytes"
    fields = ", ".join(f"{key} {pinned} here {here}"
                       for key, (pinned, here) in differing.items())
    return ("golden comparison: floats within rel "
            f"{GOLDEN.REL_TOL:g} (pinned on another platform: {fields})")


def pytest_report_header(config):
    return _comparison()


def pytest_terminal_summary(terminalreporter, config):
    # -q, as the CI job runs, hides the header: name the comparison last.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_comparison())
