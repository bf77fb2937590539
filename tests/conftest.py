"""Loads the pinned verify-bounds runs and names their comparison."""

import importlib.util
from pathlib import Path

_REGENERATE = Path(__file__).parent / "golden/verify-bounds/regenerate.py"


def _load_golden():
    spec = importlib.util.spec_from_file_location("golden_verify_bounds",
                                                  _REGENERATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tests/test_golden.py imports this module's cases and tolerances.
GOLDEN = _load_golden()


def _comparison() -> str:
    differing = GOLDEN.differing_platform_fields()
    if not differing:
        return "golden verify-bounds comparison: exact bytes"
    fields = ", ".join(f"{key} {pinned} here {here}"
                       for key, (pinned, here) in differing.items())
    return ("golden verify-bounds comparison: floats within rel "
            f"{GOLDEN.REL_TOL:g} (pinned on another platform: {fields})")


def pytest_report_header(config):
    return _comparison()


def pytest_terminal_summary(terminalreporter, config):
    # -q, as the CI job runs, hides the header: name the comparison last.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_comparison())
