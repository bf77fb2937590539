"""Seeded inputs for the benchmark workloads.

Every input is plain JSON-shaped data in the experiment config format of
`seqpred.config`, drawn from `random.Random` keyed by the workload name
and the seed, so the same (workload, seed) always yields the same inputs.
This module uses the standard library only: input generation happens
before `seqpred` is imported and is not part of set-up time.

The seed draws parameters (biases, transition tables, which rule or
generator, component order, weights, horizons inside narrow ranges); the
shape of each item (component counts per family, horizon tops, sample
counts, caps) is fixed per item, so one run costs about the same for
every seed and spreads between seeds measure the program, not the draw.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-tree", "sampled-paths", "grid-scan", "program-enum")

DEALER_RULE_NAMES = (
    "constant-die1",
    "constant-die2",
    "alternate-12",
    "alternate-21",
    "feedback-repeat",
    "feedback-oppose",
    "majority3",
    "parity3",
)
GENERATORS = ("alternating", "ones", "zeros")
GAME_CALLERS = (
    "threshold-informed",
    "informed",
    "threshold-mixture",
    "mixture",
    "always-white",
)

# exact-tree: (bernoulli, markov, deterministic, game) component counts,
# family of the true measure, top of the horizon ladder, Laplace rho.
# Counts span 2..16 components; ladders end at 12..14, the engine's
# expensive end below its cap of 16.
EXACT_ITEMS = (
    ((2, 0, 0, 0), "bernoulli", 14, True),
    ((2, 2, 1, 0), "markov", 13, False),
    ((3, 2, 1, 2), "game", 12, True),
    ((5, 3, 2, 2), "bernoulli", 12, False),
    ((6, 4, 3, 3), "deterministic", 14, True),
)
LADDER_STEPS = 3  # horizons top-6, top-4, top-2, top

TURNAROUND_ROUNDS = 400
TURNAROUND_GAMES = 6
ROSTER_GAMES = 1
# Monte Carlo items: (horizon range, samples, class family, Laplace rho).
# The long ranges sit on both sides of n = 63, where path codes overflow.
# Work per step is the number of distinct sampled paths, which a
# low-entropy true measure shrinks, so its biases stay in MC_TRUE_BIAS.
MONTE_CARLO_ITEMS = (
    ((11, 12), 1000, "markov", True),
    ((11, 12), 1000, "markov", False),
    ((60, 62), 500, "bernoulli", True),
    ((63, 65), 500, "bernoulli", False),
)
MC_TRUE_BIAS = (0.3, 0.7)

# grid-scan: the shipped inequalities config, with param_seed drawn.
GRID = {
    "y_count": 2000,
    "z_count": 2000,
    "epsilon": 1e-06,
    "refine_per_side": 32,
    "param_samples": 100,
}
EXPLORE_PAIRS = {
    "distance": [[1.0, 1.2], [1.0, 0.5]],
    "lower": [[0.1, 1.05]],
    "threshold": [[2.0, 0.0]],
}

REGISTER_CAPS = (16, 17, 18, 19)
REGISTER_DEPTH = 8
# Fuel is part of the shape: it bounds how far REP doubles the output,
# and between 32 and 96 it moved the work per table by up to 30 %.
REGISTER_FUEL = 64
ECHO_DEPTH = 12
ECHO_CAP = 14


def generate(workload: str, seed: int) -> dict:
    """All inputs of one workload run, as JSON-shaped data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng)


def _bernoulli(rng, name, low=0.05, high=0.95):
    return {"type": "bernoulli", "theta": rng.uniform(low, high), "name": name}


def _markov(rng, order, name, low=0.1, high=0.9):
    table = {}
    for width in range(order + 1):
        for i in range(2**width):
            key = format(i, f"0{width}b") if width else ""
            table[key] = rng.uniform(low, high)
    return {"type": "markov", "order": order, "table": table, "name": name}


def _exact_tree(rng) -> dict:
    configs = []
    for index, (counts, mu_family, top, laplace) in enumerate(EXACT_ITEMS):
        n_bern, n_markov, n_det, n_game = counts
        families = {
            "bernoulli": [
                _bernoulli(rng, f"x{index}-bern{i}") for i in range(n_bern)
            ],
            "markov": [
                _markov(rng, rng.randint(1, 2), f"x{index}-markov{i}")
                for i in range(n_markov)
            ],
            "deterministic": [
                {"type": "deterministic", "generator": g}
                for g in rng.sample(GENERATORS, n_det)
            ],
            "game": [
                {"type": "game", "rule": r}
                for r in rng.sample(DEALER_RULE_NAMES, n_game)
            ],
        }
        mu = rng.choice(families[mu_family])
        components = [spec for group in families.values() for spec in group]
        rng.shuffle(components)
        config = {
            "class": {
                "components": components,
                "weights": rng.choice(["index-code", "uniform"]),
            },
            "true_measure": _member_name(mu),
            "horizons": {
                "start": top - 2 * LADDER_STEPS,
                "stop": top,
                "step": 2,
            },
            "mode": "exact",
        }
        if laplace:
            config["rho"] = {"type": "laplace"}
        configs.append(config)
    return {"configs": configs}


def _member_name(spec) -> str:
    """The name seqpred gives a component built from this spec."""
    if spec["type"] == "deterministic":
        return spec["generator"]
    if spec["type"] == "game":
        return f"game({spec['rule']})"
    return spec["name"]


def _sampled_paths(rng) -> dict:
    game = {
        "spec": {"stake_cents": 300, "payout_cents": 500},
        "rules": list(DEALER_RULE_NAMES),
        "rounds": TURNAROUND_ROUNDS,
        "games": TURNAROUND_GAMES,
        "roster_games": ROSTER_GAMES,
        "seed": rng.randrange(2**31),
        "mode": "sampled",
        "predictors": list(GAME_CALLERS),
    }
    monte_carlo = []
    for index, ((low, high), samples, family, laplace) in enumerate(
        MONTE_CARLO_ITEMS
    ):
        if family == "markov":
            components = [
                _bernoulli(rng, f"mc{index}-bern0"),
                _markov(rng, 1, f"mc{index}-markov1"),
                _markov(rng, 2, f"mc{index}-markov2", *MC_TRUE_BIAS),
            ]
        else:
            components = [
                _bernoulli(rng, f"mc{index}-bern0"),
                _bernoulli(rng, f"mc{index}-bern1"),
                _bernoulli(rng, f"mc{index}-bern2", *MC_TRUE_BIAS),
            ]
        mu = components[-1]
        rng.shuffle(components)
        config = {
            "class": {
                "components": components,
                "weights": rng.choice(["index-code", "uniform"]),
            },
            "true_measure": mu["name"],
            "horizons": [rng.randint(low, high)],
            "mode": "monte-carlo",
            "samples": samples,
            "seed": rng.randrange(2**31),
        }
        if laplace:
            config["rho"] = {"type": "laplace"}
        monte_carlo.append(config)
    return {"game": game, "monte_carlo": monte_carlo}


def _grid_scan(rng) -> dict:
    grid = dict(GRID, param_seed=rng.randrange(2**31))
    return {"inequalities": {"grid": grid, "explore": EXPLORE_PAIRS}}


def _program_enum(rng) -> dict:
    tables = [
        {"machine": "register", "cap": cap, "fuel": REGISTER_FUEL,
         "depth": REGISTER_DEPTH}
        for cap in REGISTER_CAPS
    ]
    # Echo output costs the same for any fuel at least the cap; only the
    # cap sets the work, so the seed draws the fuel alone.
    tables.append({
        "machine": "echo",
        "cap": ECHO_CAP,
        "fuel": rng.randint(ECHO_CAP, 2 * ECHO_CAP),
        "depth": ECHO_DEPTH,
    })
    return {"tables": [{"semimeasure": table} for table in tables]}


_GENERATORS = {
    "exact-tree": _exact_tree,
    "sampled-paths": _sampled_paths,
    "grid-scan": _grid_scan,
    "program-enum": _program_enum,
}
