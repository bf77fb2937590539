"""Pinned CLI runs: their cases, and how to rewrite the files.

Each case is a (subcommand, name) pair.  Its directory, `<subcommand>/
<name>/`, holds the run's `stdout.txt` and `exit_code.txt` beside every
file the run wrote to `--out`; `platform.json` names the platform they
were written on.  tests/test_golden.py reruns every case and compares.

Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/regenerate.py

and list every changed file in CHANGES.md.
"""

import contextlib
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy

from seqpred import cli

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parents[1] / "configs"
PLATFORM = HERE / "platform.json"
# The two files a run leaves besides its artifacts.
STDOUT, EXIT_CODE = "stdout.txt", "exit_code.txt"
# On the pinned platform the files are compared byte for byte.  Elsewhere
# libm and numpy may round differently, so the text between numbers is
# compared exactly and each number within REL_TOL, or ABS_TOL for the
# rounding noise of a difference that is zero in exact arithmetic.
REL_TOL = 1e-12
ABS_TOL = 1e-13

_MARKOV1 = {"type": "markov", "order": 1,
            "table": {"": 0.5, "0": 0.8, "1": 0.25}}
_FOUR_MEMBERS = {
    "class": {
        "components": [
            {"type": "bernoulli", "theta": 0.3},
            {"type": "bernoulli", "theta": 0.7},
            _MARKOV1,
            {"type": "deterministic", "generator": "alternating"},
        ],
        "weights": "index-code",
    },
    "true_measure": "markov1",
    "horizons": [2, 5, 9],
    "mode": "exact",
}

# (subcommand, case name) -> config: a shipped config's file name, or the
# config itself.
CASES = {
    ("verify-bounds", "two_bernoulli"): "two_bernoulli.json",
    ("verify-bounds", "markov_mix"): "markov_mix.json",
    # No rho: every general-predictor relation is a zero row.
    ("verify-bounds", "four_members"): _FOUR_MEMBERS,
    # A true measure outside the class has no budget, so no cap.
    ("verify-bounds", "four_members_outside_truth"): dict(
        _FOUR_MEMBERS,
        true_measure={"type": "bernoulli", "theta": 0.45},
        rho={"type": "threshold",
             "base": {"type": "measure", "measure": _MARKOV1}},
    ),
    # Zero informed totals: the trend takes its fallback checks.
    ("verify-bounds", "four_members_alternating_truth"): dict(
        _FOUR_MEMBERS, true_measure="alternating",
    ),
    ("simulate", "two_bernoulli"): "two_bernoulli.json",
    ("simulate", "markov_mix"): "markov_mix.json",
    ("simulate", "monte_carlo"): "monte_carlo.json",
}


def platform_fields() -> dict:
    """The platform the floats depend on: libm, numpy and the interpreter."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "glibc": platform.libc_ver()[1] or "none",
        "machine": platform.machine(),
    }


def differing_platform_fields() -> dict:
    """{field: (pinned, here)} for each platform field that differs."""
    pinned = json.loads(PLATFORM.read_text())
    here = platform_fields()
    return {key: (pinned.get(key), value) for key, value in here.items()
            if pinned.get(key) != value}


def run(command: str, config, work: Path, flags=()) -> dict:
    """Run one subcommand on config (a shipped config's file name, or the
    config itself) under work; {file name: bytes} for its stdout, its exit
    code and each file it wrote."""
    if isinstance(config, str):
        path = CONFIGS / config
    else:
        path = work / "config.json"
        path.write_text(json.dumps(config))
    out = work / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, "--config", str(path), "--out", str(out),
                         *flags])
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return {STDOUT: stdout.getvalue().encode(),
            EXIT_CODE: f"{code}\n".encode(), **files}


def main() -> int:
    for (command, name), config in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            files = run(command, config, Path(work))
        target = HERE / command / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for file_name, data in files.items():
            (target / file_name).write_bytes(data)
    PLATFORM.write_text(json.dumps(platform_fields(), indent=2,
                                   sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
