"""Reruns the pinned CLI runs under tests/golden.

Each (subcommand, case) run's stdout, exit code and written files must
match the pinned files: byte for byte on the platform recorded beside
them, and elsewhere with the text between numbers exact and every number
within the tolerances regenerate.py states (the test header, or under -q
the last line, says which comparison ran).
"""

import math
import re

import pytest

from conftest import GOLDEN

# A number standing alone: not the digits of a name such as markov1.
NUMBER = re.compile(
    r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])"
)


def differences(pinned: str, fresh: str) -> list[str]:
    """Where fresh departs from pinned: any text between numbers, or a
    number outside the golden tolerance."""
    old, new = NUMBER.split(pinned), NUMBER.split(fresh)
    if len(old) != len(new):
        return [f"{len(old) // 2} numbers pinned, {len(new) // 2} written"]
    return [
        f"{a!r} became {b!r}" for i, (a, b) in enumerate(zip(old, new))
        if (a != b if i % 2 == 0 else not math.isclose(
            float(a), float(b), rel_tol=GOLDEN.REL_TOL, abs_tol=GOLDEN.ABS_TOL))
    ]


def test_every_case_is_pinned():
    pinned = {(command.name, case.name)
              for command in GOLDEN.HERE.iterdir() if command.is_dir()
              for case in command.iterdir() if case.is_dir()}
    assert pinned == set(GOLDEN.CASES)


@pytest.mark.parametrize("command, case", sorted(GOLDEN.CASES),
                         ids=["/".join(key) for key in sorted(GOLDEN.CASES)])
def test_run_matches_pinned(cli_run, command, case):
    fresh = cli_run(command, GOLDEN.CASES[command, case])
    pinned_dir = GOLDEN.HERE / command / case
    assert sorted(fresh) == sorted(p.name for p in pinned_dir.iterdir())
    exact = not GOLDEN.differing_platform_fields()
    for name, data in fresh.items():
        pinned = (pinned_dir / name).read_bytes()
        if exact:
            assert data == pinned, name
        else:
            assert differences(pinned.decode(), data.decode()) == [], name


class TestFloatComparison:
    """The comparison used off the pinned platform."""

    def test_numbers_within_tolerance_match(self):
        pinned = '{"left": 0.942442, "margin": -1.2e-17, "horizon": 4}'
        fresh = '{"left": 0.9424420000000001, "margin": 0.0, "horizon": 4}'
        assert differences(pinned, fresh) == []

    @pytest.mark.parametrize("fresh", [
        '{"left": 0.94244201, "margin": 0.0, "horizon": 4}',
        '{"left": 0.942442, "margin": 0.0, "horizon": 5}',
        '{"left": 0.942442, "margin": 0.0, "horizon": 4} ',
        '{"right": 0.942442, "margin": 0.0, "horizon": 4}',
        '{"left": 0.942442, "margin": 0.0}',
    ])
    def test_other_changes_differ(self, fresh):
        pinned = '{"left": 0.942442, "margin": 0.0, "horizon": 4}'
        assert differences(pinned, fresh) != []

    def test_digits_of_names_are_text(self):
        assert differences("markov1 left=2", "markov2 left=2") != []
