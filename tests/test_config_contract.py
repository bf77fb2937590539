"""The config contract: any one mutation of a shipped config exits cleanly.

Each shipped config is cut to small sizes, then mutated at one field
path: its value is replaced by one from a fixed pool, its key deleted,
or an unknown key added.  The flag a subcommand reads (--threads on
inequalities, --seed on dicegame and simulate) may be drawn from a
second pool.  main() must exit 0, 1 or 2 without a traceback and
without a numpy RuntimeWarning, which would mean a NaN or infinity
reached the numbers.  Exit 2 is a config error and must leave no
output: nothing on stdout, stderr starting with "config error" (or an
argparse usage line), and no --out directory.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from seqpred.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Each shipped config, the subcommands that read it, and the field
# values that cut its work to a few milliseconds.
SMALL = {
    "two_bernoulli.json": (
        ("verify-bounds", "simulate"),
        {("horizons",): {"start": 2, "stop": 4, "step": 2}},
    ),
    "markov_mix.json": (
        ("verify-bounds", "simulate"),
        {("horizons",): [2, 3, 4]},
    ),
    "monte_carlo.json": (
        ("simulate",),
        {("horizons",): [2, 4], ("samples",): 50},
    ),
    "dicegame.json": (
        ("dicegame",),
        {("game", "rounds"): 5, ("game", "games"): 2},
    ),
    "semimeasure.json": (
        ("approximate-m",),
        {("semimeasure", "cap"): 6, ("semimeasure", "depth"): 3},
    ),
    "inequalities.json": (
        ("inequalities",),
        {
            ("inequalities", "grid", "y_count"): 20,
            ("inequalities", "grid", "z_count"): 20,
            ("inequalities", "grid", "param_samples"): 2,
        },
    ),
}

POOL = (
    None, True, False, "x", "", -1, 0, 1, 0.5, 2.5, [], {}, [1],
    math.nan, math.inf, 1e308, -1e308,
)

# The flag each subcommand reads, and the values drawn for it.
FLAGS = {
    "inequalities": "--threads",
    "dicegame": "--seed",
    "simulate": "--seed",
}
FLAG_POOL = ("0", "-1", "1", "2", "x", "1.5")

# Deleting a section that holds cut sizes, or replacing it by {}, runs
# the subcommand at its default sizes (a 2000 x 2000 grid, 100 games of
# 400 rounds), which takes seconds; those two mutations are left out.
SECTIONS = {
    path[:end]
    for _commands, sizes in SMALL.values()
    for path in sizes
    for end in range(1, len(path))
}


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def small_config(name):
    config = json.loads((CONFIGS / name).read_text())
    for path, value in SMALL[name][1].items():
        _at(config, path[:-1])[path[-1]] = value
    return config


def field_paths(node, path=()):
    """The path of every value below node, dict keys and list indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def mutations(config):
    yield "add", ()
    for path in field_paths(config):
        for value in POOL:
            if not (path in SECTIONS and value == {}):
                yield "replace", path, value
        if path not in SECTIONS:
            yield "delete", path
        if isinstance(_at(config, path), dict):
            yield "add", path


def mutated(config, mutation):
    config = copy.deepcopy(config)
    kind, path = mutation[:2]
    if kind == "add":
        _at(config, path)["unknown_key"] = 1
        return config
    parent = _at(config, path[:-1])
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation[2]
    return config


RUNS = [
    (command, name)
    for name, (commands, _sizes) in SMALL.items()
    for command in commands
]
MUTATIONS = {name: list(mutations(small_config(name))) for name in SMALL}


def run_main(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def check_case(command, name, mutation, flags=()):
    config = mutated(small_config(name), mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run_main(
                [command, "--config", str(path), "--out", str(out), *flags]
            )
        assert not [w for w in caught if w.category is RuntimeWarning], [
            str(w.message) for w in caught
        ]
        assert code in (0, 1, 2), (code, stderr)
        assert "Traceback" not in stderr
        if code == 2:
            assert stdout == ""
            assert stderr.startswith(("config error", "usage:")), stderr
            assert not out.exists()


def test_every_config_gets_every_kind_of_mutation():
    for name, found in MUTATIONS.items():
        assert {mutation[0] for mutation in found} == {
            "replace", "delete", "add",
        }, name


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_mutation_exits_cleanly(data):
    command, name = data.draw(st.sampled_from(RUNS), label="run")
    mutation = data.draw(st.sampled_from(MUTATIONS[name]), label="mutation")
    flags = ()
    if command in FLAGS:
        value = data.draw(
            st.one_of(st.none(), st.sampled_from(FLAG_POOL)), label="flag",
        )
        if value is not None:
            flags = (FLAGS[command], value)
    check_case(command, name, mutation, flags)
